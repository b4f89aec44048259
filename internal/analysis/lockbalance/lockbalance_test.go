package lockbalance_test

import (
	"testing"

	"qpiad/internal/analysis"
	"qpiad/internal/analysis/analysistest"
	"qpiad/internal/analysis/lockbalance"
)

// TestLockbalance covers locks leaked on early returns, at every return,
// and across panics; channel sends and Query* calls while a lock is
// must-held (including under a deferred unlock, which releases only at
// return); and the clean shapes the path analysis must not flag: defer
// unlock, release on every branch, per-iteration balance, read/write
// halves tracked independently, sends after release or under a
// branch-dependent lock, closures, audited allows, and non-sync Lock
// methods.
func TestLockbalance(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t),
		[]*analysis.Analyzer{lockbalance.Analyzer},
		"internal/lockflow")
}
