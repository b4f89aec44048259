// Package flow holds the small helpers the flow-sensitive analyzers
// (errdrop, lockbalance, cancelleak) share: enumerating function bodies,
// and inspecting a node without descending into nested function literals
// (a closure's statements belong to the closure's own CFG, not its
// parent's).
package flow

import "go/ast"

// Function is one analyzable function: a declared function or a function
// literal. Each is analyzed independently; nested literals are separate
// entries.
type Function struct {
	// Body is the function's block (never nil for returned entries).
	Body *ast.BlockStmt
	// Type is the signature syntax, for result-type introspection.
	Type *ast.FuncType
}

// Functions lists every function with a body in the file, outermost first.
func Functions(f *ast.File) []Function {
	var fns []Function
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				fns = append(fns, Function{Body: fn.Body, Type: fn.Type})
			}
		case *ast.FuncLit:
			fns = append(fns, Function{Body: fn.Body, Type: fn.Type})
		}
		return true
	})
	return fns
}

// LocalInspect walks root like ast.Inspect but does not descend into
// nested *ast.FuncLit subtrees: their statements execute on the closure's
// own timeline, not on the path being analyzed. The root itself may be a
// FuncLit (when analyzing that closure's body, pass the body).
func LocalInspect(root ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n != root {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
		}
		return visit(n)
	})
}
