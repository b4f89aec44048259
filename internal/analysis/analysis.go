// Package analysis is a self-contained, stdlib-only analogue of the
// golang.org/x/tools/go/analysis framework, sized for this repository.
//
// The build environment pins a dependency-free go.mod (no network, no
// module cache), so the x/tools analysis/analysistest/unitchecker stack is
// not available. This package recreates the slice of it QPIAD needs: an
// Analyzer/Pass/Diagnostic vocabulary, a unit runner with
// //lint:allow suppression support, a `go list -export`-backed loader
// (subpackage load), a fixture harness (subpackage analysistest), and a
// `go vet -vettool` driver (cmd/qpiad-vet) speaking the same vet.cfg
// protocol as x/tools' unitchecker.
//
// The analyzers themselves live in subpackages (nodeterm, ctxflow,
// locksafe, nakedgoroutine) and enforce the invariants PRs 1–3 established
// in prose: deterministic mining/ranking, context propagation through every
// source round-trip, and disciplined lock/atomic usage.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow comments. It must be a single word.
	Name string
	// Doc is a one-paragraph description of what the pass enforces.
	Doc string
	// Run applies the pass to one package. Diagnostics are delivered
	// through pass.Report; the error return is for operational failures
	// (not findings).
	Run func(*Pass) error
}

// Pass carries one package's worth of syntax and type information to an
// analyzer, mirroring x/tools' analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Report   func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a human-readable message.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// PathMatches reports whether the package import path pkgPath matches one
// of the given path suffixes. A suffix matches when it equals the whole
// path or ends it at a path-segment boundary, so "internal/afd" matches
// both "internal/afd" (analyzer fixtures) and "qpiad/internal/afd" (the
// real tree) but not "notinternal/afd".
func PathMatches(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkgPath == s {
			return true
		}
		if n := len(pkgPath) - len(s); n > 0 && pkgPath[n-1] == '/' && pkgPath[n:] == s {
			return true
		}
	}
	return false
}

// IsNamed reports whether t (after stripping one pointer) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
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
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// IsContext reports whether t is context.Context.
func IsContext(t types.Type) bool { return IsNamed(t, "context", "Context") }

// PkgFunc resolves a call expression to a package-level function and
// returns (packagePath, funcName, true), e.g. ("time", "Now", true) for
// time.Now(). Methods and local calls return ok=false.
func PkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// ReceiverOf returns the receiver type of a method call expression, or nil
// when call is not a method call (or type info is incomplete).
func ReceiverOf(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	return s.Recv()
}
