package cancelleak_test

import (
	"testing"

	"qpiad/internal/analysis"
	"qpiad/internal/analysis/analysistest"
	"qpiad/internal/analysis/cancelleak"
)

// TestCancelleak covers cancel funcs leaked on every path, on one branch,
// discarded at the assignment, and the false-positive guards: defer
// cancel(), call on every branch, escape by argument/return/closure, a
// loop-local pair, an audited allow, and a function that never returns.
func TestCancelleak(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t),
		[]*analysis.Analyzer{cancelleak.Analyzer},
		"internal/cancel")
}
