// Package errdrop flags error results that are discarded — or assigned and
// then never read on any path out of the function.
//
// QPIAD's availability story (PR 1's resilience layer, PR 7's admission
// control) depends on errors propagating: a dropped error from a source
// round-trip or a cache rebuild turns a recoverable fault into silently
// wrong certainty estimates. Three shapes are reported:
//
//   - expression-statement drop: `f.Close()` where the call returns an
//     error that nothing receives. Deferred calls count too — a
//     `defer enc.Flush()` loses the flush error with no trace.
//
//   - blank assignment: `n, _ := strconv.Atoi(s)` throws the error away
//     explicitly. The blank says "I know there is an error"; the pass asks
//     for the second half of that sentence, via //lint:allow with a reason
//     if discarding really is right.
//
//   - dead on every path: `v, err = parse(s)` where err is subsequently
//     overwritten or falls out of scope without a single read on any CFG
//     path. This is the flow-sensitive case AST matching cannot see: the
//     error IS received, just never looked at. A read on even one path
//     (log-and-continue branches, err checked only under a verbosity
//     flag) keeps the definition live and unreported.
//
// Exemptions, because a pass that cries wolf gets disabled: the fmt print
// family writing to terminals (fmt.Print*, and fmt.Fprint* when the writer
// is os.Stdout/os.Stderr), fmt.Fprint* into in-memory sinks
// (bytes.Buffer, strings.Builder), methods on those two types, and
// methods on the hash.Hash family ("it never returns an error" — the
// interface's own contract) — all documented or de-facto infallible.
// Writes to an arbitrary io.Writer are NOT exempt: that writer can be a
// socket.
package errdrop

import (
	"go/ast"
	"go/token"
	"go/types"

	"qpiad/internal/analysis"
	"qpiad/internal/analysis/cfg"
	"qpiad/internal/analysis/dataflow"
	"qpiad/internal/analysis/flow"
)

// Analyzer is the errdrop pass.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc:  "flag discarded error results: expression-statement drops, blank assignments, and errors never read on any path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, fn := range flow.Functions(f) {
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn flow.Function) {
	checkDrops(pass, fn)
	checkDeadDefs(pass, fn)
}

// ---- expression-statement and blank-assignment drops ----

func checkDrops(pass *analysis.Pass, fn flow.Function) {
	flow.LocalInspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && returnsError(pass, call) && !exempt(pass, call) {
				pass.Reportf(s.Pos(),
					"the error returned by %s is discarded: check it or suppress with //lint:allow errdrop",
					callLabel(call))
			}
		case *ast.DeferStmt:
			if returnsError(pass, s.Call) && !exempt(pass, s.Call) {
				pass.Reportf(s.Pos(),
					"the error returned by deferred %s is discarded: wrap the defer in a closure that checks it",
					callLabel(s.Call))
			}
		case *ast.GoStmt:
			return false // the goroutine body is its own function's problem
		case *ast.AssignStmt:
			checkBlankAssign(pass, s)
		}
		return true
	})
}

// checkBlankAssign flags `v, _ := f()` where the blank position is an
// error. Only call RHSs count: `_ = err` of an already-obtained value is
// the dead-def check's territory.
func checkBlankAssign(pass *analysis.Pass, s *ast.AssignStmt) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	tuple, ok := pass.Info.TypeOf(call).(*types.Tuple)
	if !ok || tuple.Len() != len(s.Lhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if ok && id.Name == "_" && isErrorType(tuple.At(i).Type()) {
			pass.Reportf(s.Pos(),
				"the error result of %s is assigned to _: check it instead of discarding it",
				callLabel(call))
			return
		}
	}
}

// ---- dead-on-every-path definitions ----

// checkDeadDefs finds assignments of an error-typed variable whose value
// is never read on any CFG path before being overwritten or going out of
// scope.
func checkDeadDefs(pass *analysis.Pass, fn flow.Function) {
	type errDef struct {
		obj  types.Object
		stmt *ast.AssignStmt
	}
	var defs []errDef
	flow.LocalInspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		if _, isCall := as.Rhs[0].(*ast.CallExpr); !isCall {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj != nil && isErrorType(obj.Type()) {
				defs = append(defs, errDef{obj: obj, stmt: as})
			}
		}
		return true
	})
	if len(defs) == 0 {
		return
	}

	resultObjs := namedResults(pass, fn)
	g := cfg.New(fn.Body, nil)
	loc := locate(g)

	for _, d := range defs {
		if usedInsideFuncLit(pass, fn.Body, d.obj) {
			continue // a closure may read it on its own schedule
		}
		where, ok := loc[d.stmt]
		if !ok {
			continue // not a top-level CFG node (e.g. inside an if-init we did not split)
		}
		classify := func(n ast.Node) dataflow.Effect {
			return effectOn(pass, n, d.obj, resultObjs)
		}
		if !dataflow.ReachesUse(g, where.block, where.idx, classify) {
			pass.Reportf(d.stmt.Pos(),
				"the error assigned to %s here is never read on any path: check it before it is overwritten or dropped",
				d.obj.Name())
		}
	}
}

type nodeLoc struct {
	block *cfg.Block
	idx   int
}

// locate indexes every CFG node by identity.
func locate(g *cfg.Graph) map[ast.Node]nodeLoc {
	m := make(map[ast.Node]nodeLoc)
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			m[n] = nodeLoc{block: b, idx: i}
		}
	}
	return m
}

// effectOn classifies node n with respect to obj: any read is a Use, a
// pure overwrite is a Kill. A naked return is a Use when obj is a named
// result — the return reads it implicitly.
func effectOn(pass *analysis.Pass, n ast.Node, obj types.Object, resultObjs map[types.Object]bool) dataflow.Effect {
	if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 0 && resultObjs[obj] {
		return dataflow.Use
	}
	// Identify idents that are pure write targets of an assignment.
	writes := make(map[*ast.Ident]bool)
	if as, ok := n.(*ast.AssignStmt); ok && as.Tok != token.ADD_ASSIGN {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				writes[id] = true
			}
		}
	}
	kills := false
	uses := false
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		o := pass.Info.Uses[id]
		if o == nil {
			o = pass.Info.Defs[id]
		}
		if o != obj {
			return true
		}
		if writes[id] {
			kills = true
		} else {
			uses = true
		}
		return true
	})
	switch {
	case uses:
		return dataflow.Use
	case kills:
		return dataflow.Kill
	}
	return dataflow.None
}

// usedInsideFuncLit reports whether obj is mentioned inside any function
// literal in body — a capture whose execution the CFG does not order.
func usedInsideFuncLit(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return false
	})
	return found
}

// namedResults collects the objects of fn's named result parameters.
func namedResults(pass *analysis.Pass, fn flow.Function) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	if fn.Type.Results == nil {
		return objs
	}
	for _, fld := range fn.Type.Results.List {
		for _, name := range fld.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				objs[obj] = true
			}
		}
	}
	return objs
}

// ---- classification helpers ----

// returnsError reports whether any result of call is an error.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch t := pass.Info.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
	default:
		return isErrorType(t)
	}
	return false
}

var errType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errType)
}

// exempt reports calls whose error is documented (or de-facto) always nil,
// or best-effort terminal output:
//
//   - fmt.Print/Printf/Println
//   - fmt.Fprint* to os.Stdout, os.Stderr, *bytes.Buffer, *strings.Builder
//   - any method on bytes.Buffer, strings.Builder, or a hash.Hash
func exempt(pass *analysis.Pass, call *ast.CallExpr) bool {
	if pkg, name, ok := analysis.PkgFunc(pass.Info, call); ok && pkg == "fmt" {
		switch name {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			return len(call.Args) > 0 && infallibleWriter(pass, call.Args[0])
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := pass.Info.Selections[sel]; ok && infallibleReceiver(s.Recv()) {
			return true
		}
	}
	return false
}

// infallibleReceiver matches receivers whose error-returning methods are
// documented never to fail: the in-memory sinks, and the hash.Hash family
// ("it never returns an error" — hash package docs).
func infallibleReceiver(t types.Type) bool {
	if isBufferLike(t) {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "hash"
}

// infallibleWriter recognizes the standard streams and the in-memory
// sinks whose Write never fails.
func infallibleWriter(pass *analysis.Pass, w ast.Expr) bool {
	if sel, ok := w.(*ast.SelectorExpr); ok {
		if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "os" && (obj.Name() == "Stdout" || obj.Name() == "Stderr") {
			return true
		}
	}
	return isBufferLike(pass.Info.TypeOf(w))
}

// isBufferLike matches bytes.Buffer and strings.Builder, by value or
// pointer.
func isBufferLike(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "bytes" && name == "Buffer") || (pkg == "strings" && name == "Builder")
}

// callLabel renders the called expression for diagnostics.
func callLabel(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}
