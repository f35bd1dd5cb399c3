package analysis

import (
	"go/ast"
)

// SelectorPath flattens a chain of identifiers and field selections into
// a dotted path ("g.state.mu"). It fails (ok=false) on anything with
// computed parts — index expressions, calls, parenthesized trees — whose
// aliasing a syntactic path cannot capture.
func SelectorPath(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := SelectorPath(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	}
	return "", false
}

// WalkShallow walks n in evaluation order like ast.Inspect but does not
// descend into function literals: their bodies execute on a different
// control path (or goroutine), so rules check them separately.
func WalkShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}
