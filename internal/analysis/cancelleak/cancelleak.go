// Package cancelleak flags context.CancelFunc values that are not called
// on every path out of the function that obtained them.
//
// Every context.WithCancel/WithTimeout/WithDeadline (and their *Cause
// variants) allocates a timer or a registration in the parent context that
// is only released when the returned cancel function runs. A cancel func
// that is skipped on one branch — an early return in a retry loop, the
// error path of a per-attempt deadline, the non-stream arm of a handler — pins
// that memory until the parent context itself ends, which for a server is
// "never". This is exactly the leak class the resilience stack
// (internal/core/resilience.go, internal/core/stream.go) is most exposed
// to, and it is invisible to AST pattern matching: the call is present,
// just not on every path.
//
// The pass builds the function's CFG (internal/analysis/cfg) and runs a
// forward must-analysis (internal/analysis/dataflow): each cancel variable
// starts "pending" at its definition; any later mention — a direct call, a
// defer, being passed, stored, returned, or captured by a closure — marks
// it handled on that path (a value that escapes is its new owner's
// responsibility, matching go vet's lostcancel). A definition that is
// pending or only conditionally handled at the exit block is reported.
// Discarding the cancel func outright (`ctx, _ := context.WithCancel(p)`)
// is reported at the assignment.
package cancelleak

import (
	"go/ast"
	"go/types"

	"qpiad/internal/analysis"
	"qpiad/internal/analysis/cfg"
	"qpiad/internal/analysis/dataflow"
	"qpiad/internal/analysis/flow"
)

// Analyzer is the cancelleak pass.
var Analyzer = &analysis.Analyzer{
	Name: "cancelleak",
	Doc:  "flag context cancel functions not called on every path (context/timer leak)",
	Run:  run,
}

// cancelFuncs are the context constructors whose second result must be
// called.
var cancelFuncs = map[string]bool{
	"WithCancel": true, "WithTimeout": true, "WithDeadline": true,
	"WithCancelCause": true, "WithTimeoutCause": true, "WithDeadlineCause": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, fn := range flow.Functions(f) {
			checkFunc(pass, fn)
		}
	}
	return nil
}

// def is one cancel-variable definition site.
type def struct {
	obj  types.Object    // the cancel variable
	stmt *ast.AssignStmt // the defining statement
	ctor string          // "WithCancel", ...
}

func checkFunc(pass *analysis.Pass, fn flow.Function) {
	defs := collectDefs(pass, fn.Body)
	if len(defs) == 0 {
		return
	}
	g := cfg.New(fn.Body, nil)
	byObj := make(map[types.Object]*def, len(defs))
	for _, d := range defs {
		byObj[d.obj] = d
	}

	transfer := func(n ast.Node, st dataflow.State) {
		// Definition: the variable becomes pending. The defining
		// statement's own idents (the LHS) must not count as a use.
		if as, ok := n.(*ast.AssignStmt); ok {
			if d := defFor(defs, as); d != nil {
				st.Set(d.obj, dataflow.No)
				return
			}
		}
		// Any other mention — call, defer, escape, closure capture —
		// handles the value on this path. The one non-handling mention is
		// a blank assignment (`_ = cancel`): it uses the value in the
		// compiler's eyes without calling or transferring it.
		skip := blankAssignIdents(n)
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && !skip[id] {
				if obj := pass.Info.Uses[id]; obj != nil && byObj[obj] != nil {
					st.Set(obj, dataflow.Yes)
				}
			}
			return true
		})
	}

	res := dataflow.Forward(g, dataflow.State{}, transfer)
	exit := res.In[g.Exit]
	for _, d := range defs {
		switch exit.Get(d.obj) {
		case dataflow.No:
			report(pass, d, "is never called (context leak)")
		case dataflow.Top:
			report(pass, d, "is not called on every path to return")
		}
		// Bottom: the definition never reaches a return (the function
		// always panics, exits, or loops) — nothing to release on a path
		// that does not exist. Yes: handled everywhere.
	}
}

// report emits the diagnostic at the defining statement.
func report(pass *analysis.Pass, d *def, what string) {
	pass.Reportf(d.stmt.Pos(), "the cancel function %s returned by context.%s %s", d.obj.Name(), d.ctor, what)
}

// collectDefs finds `ctx, cancel := context.WithX(...)` assignments in the
// function body (nested closures are analyzed separately). A blank cancel
// is reported immediately: there is no path on which it could be called.
func collectDefs(pass *analysis.Pass, body *ast.BlockStmt) []*def {
	var defs []*def
	flow.LocalInspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name, ok := analysis.PkgFunc(pass.Info, call)
		if !ok || pkg != "context" || !cancelFuncs[name] {
			return true
		}
		id, ok := as.Lhs[1].(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "_" {
			pass.Reportf(as.Pos(),
				"the cancel function returned by context.%s is discarded: it must be called to release the context", name)
			return true
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id] // plain `=` assignment to an existing var
		}
		if obj != nil {
			defs = append(defs, &def{obj: obj, stmt: as, ctor: name})
		}
		return true
	})
	return defs
}

// blankAssignIdents collects RHS idents assigned to the blank identifier
// anywhere under n (`_ = cancel` keeps the compiler quiet without handling
// the value, so it must not satisfy the analysis).
func blankAssignIdents(n ast.Node) map[*ast.Ident]bool {
	skip := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				if rid, ok := as.Rhs[i].(*ast.Ident); ok {
					skip[rid] = true
				}
			}
		}
		return true
	})
	return skip
}

// defFor matches an assignment against the collected definitions.
func defFor(defs []*def, as *ast.AssignStmt) *def {
	for _, d := range defs {
		if d.stmt == as {
			return d
		}
	}
	return nil
}
