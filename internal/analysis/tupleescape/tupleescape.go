// Package tupleescape flags relation tuples retained past their yield in
// internal packages.
//
// The lazy relational pipeline (internal/relation.TupleSeq) hands consumers
// tuples that may alias the relation's backing store, valid only for the
// duration of the yield. A consumer that stores such a tuple into outer
// storage — a slice it appends to, a map, a struct field, a captured
// variable — keeps a live reference into the store, which a later insert or
// in-place mutation can corrupt. The rule enforced here is the ownership
// contract documented in internal/relation/seq.go and DESIGN.md: hold a
// tuple past the yield only via a copy (Tuple.Clone).
//
// The pass inspects the two iterator boundaries:
//
//   - function literals taking a relation.Tuple parameter (yield callbacks
//     and per-tuple hooks such as Filter/Map arguments);
//   - `for t := range seq` loops over a relation.TupleSeq.
//
// Inside those bodies, assigning the yielded tuple (bare, or resliced —
// both share the backing array) to storage declared OUTSIDE the callback or
// loop body is a diagnostic. Reading an element (t[i]), calling a method
// (t.Clone()), spreading values (append(vs, t...)) and passing the tuple
// onward as a call argument are all value-copies or continued pipeline flow
// and stay clean. Plain []Tuple loops are not flagged: batch slices carry
// their ownership in the producing API's contract, not per yield.
//
// Deliberately audited materialization points (TupleSeq.Collect, hash-join
// build tables) carry //lint:allow tupleescape suppressions with their
// ownership argument.
package tupleescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"qpiad/internal/analysis"
)

// Analyzer is the tupleescape pass.
var Analyzer = &analysis.Analyzer{
	Name: "tupleescape",
	Doc:  "flag iterator-yielded relation tuples stored past their yield without Clone",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !(strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncLit:
				if obj := tupleParam(pass, v); obj != nil {
					checkBody(pass, v.Body, obj, v.Pos(), v.End(), "callback")
				}
			case *ast.RangeStmt:
				if obj := tupleRangeVar(pass, v); obj != nil {
					checkBody(pass, v.Body, obj, v.Body.Pos(), v.Body.End(), "range")
				}
			}
			return true
		})
	}
	return nil
}

// isRelNamed reports whether t (after stripping one pointer) is the named
// type internal/relation.name, matching the real tree and analyzer
// fixtures alike.
func isRelNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && analysis.PathMatches(obj.Pkg().Path(), "internal/relation")
}

// tupleParam returns the object of lit's single relation.Tuple parameter,
// nil when lit is not a per-tuple callback.
func tupleParam(pass *analysis.Pass, lit *ast.FuncLit) types.Object {
	sig, ok := pass.Info.TypeOf(lit).(*types.Signature)
	if !ok || sig.Params().Len() != 1 || !isRelNamed(sig.Params().At(0).Type(), "Tuple") {
		return nil
	}
	params := lit.Type.Params.List
	if len(params) != 1 || len(params[0].Names) != 1 {
		return nil
	}
	return pass.Info.Defs[params[0].Names[0]]
}

// tupleRangeVar returns the object of the loop variable in a
// `for t := range seq` over a relation.TupleSeq, nil otherwise.
func tupleRangeVar(pass *analysis.Pass, rng *ast.RangeStmt) types.Object {
	if t := pass.Info.TypeOf(rng.X); t == nil || !isRelNamed(t, "TupleSeq") {
		return nil
	}
	id, ok := rng.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pass.Info.Defs[id]
}

// checkBody flags assignments inside body that store the yielded tuple into
// storage declared outside [from, to]. Targets declared inside the scope
// (fresh := variables, inner builders) die with the iteration and are fine.
func checkBody(pass *analysis.Pass, body ast.Node, tup types.Object, from, to token.Pos, kind string) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if !retains(pass.Info, rhs, tup) {
				continue
			}
			lhs := as.Lhs[0]
			if len(as.Lhs) == len(as.Rhs) {
				lhs = as.Lhs[i]
			}
			root := rootIdent(lhs)
			if root == nil {
				continue
			}
			obj := pass.Info.ObjectOf(root)
			if obj == nil || (obj.Pos() >= from && obj.Pos() <= to) {
				continue
			}
			pass.Reportf(as.Pos(),
				"tuple %s yielded to this %s is stored into %s, which outlives the yield; it may alias the relation store — hold a copy via Clone",
				tup.Name(), kind, root.Name)
		}
		return true
	})
}

// retains reports whether evaluating e stores a reference to tup's backing
// array: the bare identifier or a reslice of it. Element reads (t[i] copies
// a Value), method calls on t (Clone returns owned storage), and spreading
// t's values into another slice are value flows, not retention.
func retains(info *types.Info, e ast.Expr, tup types.Object) bool {
	switch v := e.(type) {
	case nil:
		return false
	case *ast.Ident:
		return info.ObjectOf(v) == tup
	case *ast.ParenExpr:
		return retains(info, v.X, tup)
	case *ast.IndexExpr:
		if isTup(info, v.X, tup) {
			return retains(info, v.Index, tup) // t[i]: element value copy
		}
		return retains(info, v.X, tup) || retains(info, v.Index, tup)
	case *ast.SliceExpr:
		// t[lo:hi] shares the backing array: retaining.
		return retains(info, v.X, tup) || retains(info, v.Low, tup) ||
			retains(info, v.High, tup) || retains(info, v.Max, tup)
	case *ast.SelectorExpr:
		if isTup(info, v.X, tup) {
			return false // t.Method value: resolved at the call below
		}
		return retains(info, v.X, tup)
	case *ast.CallExpr:
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok && isTup(info, sel.X, tup) {
			// A method call on t (t.Clone(), t.Key()) returns owned data.
			return false
		}
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "append" && len(v.Args) > 0 {
			if v.Ellipsis.IsValid() && isTup(info, v.Args[len(v.Args)-1], tup) {
				// append(vs, t...) copies t's values element-wise.
				v = &ast.CallExpr{Fun: v.Fun, Args: v.Args[:len(v.Args)-1]}
			}
		}
		for _, a := range v.Args {
			if retains(info, a, tup) {
				return true
			}
		}
		return retains(info, v.Fun, tup)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if retains(info, el, tup) {
				return true
			}
		}
		return false
	case *ast.KeyValueExpr:
		return retains(info, v.Key, tup) || retains(info, v.Value, tup)
	case *ast.UnaryExpr:
		return retains(info, v.X, tup)
	case *ast.BinaryExpr:
		return retains(info, v.X, tup) || retains(info, v.Y, tup)
	case *ast.StarExpr:
		return retains(info, v.X, tup)
	case *ast.TypeAssertExpr:
		return retains(info, v.X, tup)
	case *ast.FuncLit:
		return false // nested closures are analyzed as their own scope
	default:
		return false
	}
}

// isTup reports whether e is the bare tuple identifier.
func isTup(info *types.Info, e ast.Expr, tup types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && info.ObjectOf(id) == tup
}

// rootIdent walks an assignment target to its base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
