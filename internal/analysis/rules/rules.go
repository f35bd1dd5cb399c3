// Package rules holds the kwslint rule set: engine-specific static
// checks for context plumbing (ctx-first, ctxdrop), ranking determinism
// (float comparisons), concurrency and error hygiene (atomic Set(Load()),
// sentinel comparisons) and API documentation. Each rule lives in its
// own file with a golden fixture under testdata/src/<rule>/.
package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"kwsearch/internal/analysis"
)

// Default is the rule set cmd/kwslint runs over the module. The
// float-equality rule is scoped to the ranking-sensitive packages the
// paper's reproduced numbers depend on; the doc-comment rule to the
// library packages under internal/.
func Default() []analysis.Rule {
	return []analysis.Rule{
		CtxFirst{Packages: []string{
			"internal/exec", "internal/cn", "internal/lca",
			"internal/banks", "internal/steiner", "internal/core",
			"internal/server", "cmd/kwsd",
			"internal/analysis", "cmd/kwslint",
			"internal/plan", "internal/obs",
			"internal/shard", "internal/spark",
		}},
		FloatEq{Packages: []string{"internal/rank", "internal/cn", "internal/banks"}},
		DocComment{Only: []string{"internal/"}},
		AtomicSetLoad{},
		CtxDrop{},
		ErrSentinel{},
	}
}

// pkgNameOf returns the import path of the package an identifier refers
// to, or "" if it is not a package name (or type info is missing).
func pkgNameOf(p *analysis.Pass, id *ast.Ident) string {
	if p.Info == nil {
		return ""
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// importsPath reports whether file imports the given path (syntactic
// fallback for when type checking could not resolve the import).
func importsPath(file *ast.File, path string) bool {
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == path {
			return true
		}
	}
	return false
}

// pathMatches reports whether the pass's package path contains any of
// the given substrings. An empty list matches everything, and an empty
// path (a fixture loaded by directory) always matches so scoped rules
// remain testable.
func pathMatches(path string, subs []string) bool {
	if len(subs) == 0 || path == "" {
		return true
	}
	for _, s := range subs {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}
