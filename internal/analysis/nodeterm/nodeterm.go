// Package nodeterm flags nondeterminism sources in QPIAD's mining and
// ranking packages.
//
// The paper's reproducibility guarantee — identical AFD/NBC knowledge and
// rewritten-query rankings from identical data — requires that mining never
// observes wall-clock time, the process-global math/rand source, or Go's
// randomized map iteration order. PR 2's parallel/sequential equivalence
// tests can only catch such bugs probabilistically; this pass catches them
// structurally:
//
//   - any call to time.Now or time.Since;
//   - any call through the package-global math/rand (or math/rand/v2)
//     source — rand.New(rand.NewSource(seed)) is fine, rand.Intn(n) is not;
//   - a `range` over a map whose elements are appended to a slice declared
//     outside the loop, with no later sort of that slice in the same
//     function ("sorted-after-range" is the sanctioned idiom).
package nodeterm

import (
	"go/ast"
	"go/token"
	"go/types"

	"qpiad/internal/analysis"
)

// MiningPackages are the import-path suffixes the pass applies to: the
// mining/ranking packages whose outputs must be byte-identical run to run,
// plus the serving/load-harness packages (httpapi, loadgen, latency) where
// injected clocks and seeded generators keep admission decisions and
// benchmark workloads reproducible.
var MiningPackages = []string{
	"internal/afd",
	"internal/nbc",
	"internal/assocrule",
	"internal/bayesnet",
	"internal/core",
	"internal/breaker",
	"internal/planner",
	"internal/httpapi",
	"internal/loadgen",
	"internal/latency",
}

// Analyzer is the nodeterm pass.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterm",
	Doc:  "flag wall-clock reads, global math/rand, and unsorted map-range accumulation in mining/ranking packages",
	Run:  run,
}

// seededConstructors are the math/rand entry points that do not touch the
// package-global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), MiningPackages...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name, ok := analysis.PkgFunc(pass.Info, call)
			if !ok {
				return true
			}
			switch {
			case pkg == "time" && (name == "Now" || name == "Since"):
				pass.Reportf(call.Pos(),
					"time.%s in deterministic mining/ranking code: results must not depend on wall clock", name)
			case (pkg == "math/rand" || pkg == "math/rand/v2") && !seededConstructors[name]:
				pass.Reportf(call.Pos(),
					"%s.%s uses the process-global random source: seed an explicit *rand.Rand instead", pkg, name)
			}
			return true
		})
		checkMapRangeAppends(pass, f)
	}
	return nil
}

// checkMapRangeAppends finds, per function, slices that accumulate
// map-iteration elements and are never subsequently sorted.
func checkMapRangeAppends(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body == nil {
			return true
		}
		checkFuncBody(pass, body)
		return true
	})
}

// accumulation is one `s = append(s, ...)` inside a map-range loop.
type accumulation struct {
	slice *types.Var
	pos   token.Pos
	loop  *ast.RangeStmt
}

func checkFuncBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var accs []accumulation
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, acc := range mapRangeAccumulations(pass, rs) {
			accs = append(accs, acc)
		}
		return true
	})
	for _, acc := range accs {
		if !sortedAfter(pass, body, acc) {
			pass.Reportf(acc.pos,
				"slice %q accumulates map-range elements without a subsequent sort: map iteration order is randomized",
				acc.slice.Name())
		}
	}
}

// mapRangeAccumulations collects appends inside rs's body that target a
// slice variable declared outside the loop.
func mapRangeAccumulations(pass *analysis.Pass, rs *ast.RangeStmt) []accumulation {
	var out []accumulation
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isAppend(pass.Info, call) || i >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj, ok := objOf(pass.Info, id).(*types.Var)
			if !ok {
				continue
			}
			// Only slices that outlive the loop can leak iteration order.
			if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
				continue
			}
			out = append(out, accumulation{slice: obj, pos: as.Pos(), loop: rs})
		}
		return true
	})
	return out
}

// sortedAfter reports whether, anywhere in the function body at or after
// the accumulating loop's start, the slice is passed (directly or inside a
// closure/conversion) to a sort.* or slices.Sort* call. Sorting restores a
// canonical order, which is exactly the sanctioned idiom:
//
//	for k := range m { out = append(out, k) }
//	sort.Strings(out)
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, acc accumulation) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < acc.loop.Pos() {
			return true
		}
		pkg, name, ok := analysis.PkgFunc(pass.Info, call)
		if !ok {
			return true
		}
		isSort := pkg == "sort" ||
			(pkg == "slices" && len(name) >= 4 && name[:4] == "Sort")
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if mentions(pass.Info, arg, acc.slice) {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// mentions reports whether expr references the variable v anywhere.
func mentions(info *types.Info, expr ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objOf(info, id) == types.Object(v) {
			found = true
			return false
		}
		return !found
	})
	return found
}

func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
