package analysis

import "context"

// DirResult is the outcome of analyzing one package directory.
type DirResult struct {
	// Dir is the absolute package directory.
	Dir string
	// Path is the module-relative import path ("" outside the module).
	Path string
	// Diags are the surviving diagnostics, sorted by position.
	Diags []Diagnostic
	// Err reports a load failure (parse error, no Go files); Diags is
	// empty when set.
	Err error
}

// AnalyzeDirs loads and lints the given package directories one after
// another through a single Loader rooted at root, so imports shared
// between packages are type-checked once, and returns one result per
// directory in input order. A load failure (the loader's included) is
// reported on the directory it hit and does not stop the others; a
// cancelled ctx stops the loop, and directories never analyzed report
// ctx.Err().
func AnalyzeDirs(ctx context.Context, root string, dirs []string, rules []Rule) []DirResult {
	results := make([]DirResult, len(dirs))
	ld, ldErr := NewLoader(root)
	for i, dir := range dirs {
		res := &results[i]
		res.Dir = dir
		if res.Err = ctx.Err(); res.Err != nil {
			continue
		}
		if res.Err = ldErr; res.Err != nil {
			continue
		}
		pkg, err := ld.LoadDir(dir)
		if err != nil {
			res.Err = err
			continue
		}
		res.Path = pkg.Path
		res.Diags = Run(pkg, rules)
	}
	return results
}
