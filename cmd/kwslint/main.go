// Command kwslint runs the module's static-analysis rules (see
// internal/analysis/rules) over package patterns and exits non-zero when
// it finds violations.
//
// Usage:
//
//	kwslint [-rules] [-fix] [packages...]
//
// Each package argument is a directory or a dir/... pattern; the default
// is ./... from the current directory. Diagnostics print one per
// line as path:line:col: message (rule). A finding is suppressed by a
// `//lint:ignore rule reason` comment on the same line or the line
// directly above it.
//
// -fix applies every suggested fix in place, then re-analyzes so the
// exit status and report reflect the repaired tree; a second -fix run is
// a no-op.
//
// Exit status: 0 clean, 1 diagnostics remain, 2 usage or load failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"kwsearch/internal/analysis"
	"kwsearch/internal/analysis/rules"
)

func main() {
	listRules := flag.Bool("rules", false, "list the rules and exit")
	applyFix := flag.Bool("fix", false, "apply suggested fixes in place, then re-analyze")
	flag.Parse()

	ruleSet := rules.Default()
	if *listRules {
		for _, r := range ruleSet {
			fmt.Printf("%-30s %s\n", r.Name(), r.Doc())
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	ld, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "kwslint:", err)
		os.Exit(2)
	}
	dirs, err := ld.MatchDirs(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kwslint:", err)
		os.Exit(2)
	}
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "kwslint: no packages match", patterns)
		os.Exit(2)
	}

	ctx := context.Background()
	results := analysis.AnalyzeDirs(ctx, ".", dirs, ruleSet)

	fixedEdits := 0
	if *applyFix {
		var all []analysis.Diagnostic
		for _, res := range results {
			all = append(all, res.Diags...)
		}
		fixes, err := analysis.ApplyFixes(all)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kwslint: fix:", err)
			os.Exit(2)
		}
		if err := analysis.WriteFixes(fixes); err != nil {
			fmt.Fprintln(os.Stderr, "kwslint: fix:", err)
			os.Exit(2)
		}
		for _, fr := range fixes {
			fixedEdits += fr.Edits
		}
		// Report against the repaired tree: fixed findings disappear,
		// anything a fix could not address (or newly exposed) remains.
		results = analysis.AnalyzeDirs(ctx, ".", dirs, ruleSet)
	}

	cwd, _ := os.Getwd()
	loadFailed := false
	found := 0
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "kwslint: %s: %v\n", res.Dir, res.Err)
			loadFailed = true
			continue
		}
		for _, d := range res.Diags {
			// Print paths relative to the working directory so the output
			// is stable and clickable regardless of checkout location.
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && len(rel) < len(d.Pos.Filename) {
				d.Pos.Filename = rel
			}
			fmt.Println(d)
			found++
		}
	}
	if *applyFix && fixedEdits > 0 {
		fmt.Printf("kwslint: applied %d fix edit(s)\n", fixedEdits)
	}

	switch {
	case loadFailed:
		os.Exit(2)
	case found > 0:
		os.Exit(1)
	}
}
