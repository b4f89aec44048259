package errdrop_test

import (
	"testing"

	"qpiad/internal/analysis"
	"qpiad/internal/analysis/analysistest"
	"qpiad/internal/analysis/errdrop"
)

// TestErrdrop covers expression-statement and deferred drops, blank error
// assignments, definitions dead on every path (reassigned before read,
// overwritten before read), and the false-positive guards: immediate
// checks, reads on a single branch, returns on another, named results
// with naked returns, closure captures, the fmt print-family exemptions,
// and an audited allow.
func TestErrdrop(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t),
		[]*analysis.Analyzer{errdrop.Analyzer},
		"internal/errflow")
}
