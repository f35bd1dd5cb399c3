// Command kwslint runs the module's static-analysis rules (see
// internal/analysis/rules) over package patterns and exits non-zero when
// it finds violations.
//
// Usage:
//
//	kwslint [-rules] [-json] [-fix] [packages...]
//
// Each package argument is a directory or a dir/... pattern; the default
// is ./... from the current directory. Diagnostics print one per
// line as path:line:col: message (rule). A finding is suppressed by a
// `//lint:ignore rule reason` comment on the same line or the line
// directly above it.
//
// -json writes a machine-readable report to stdout (human diagnostics
// move to stderr so both audiences can consume one run). -fix applies
// every suggested fix in place, then re-analyzes so the exit status and
// report reflect the repaired tree; a second -fix run is a no-op.
//
// Exit status: 0 clean, 1 diagnostics remain, 2 usage or load failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kwsearch/internal/analysis"
	"kwsearch/internal/analysis/rules"
)

// jsonReport is the -json output document. The schema is versioned so
// downstream tooling (CI annotators, the benchrunner) can detect drift.
type jsonReport struct {
	Version     int              `json:"version"`
	Packages    int              `json:"packages"`
	DurationMS  int64            `json:"duration_ms"`
	Fixed       int              `json:"fixed_edits,omitempty"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	Fixable bool   `json:"fixable"`
}

func main() {
	listRules := flag.Bool("rules", false, "list the rules and exit")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
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
	start := time.Now()
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
	humanOut := os.Stdout
	if *jsonOut {
		humanOut = os.Stderr
	}

	loadFailed := false
	report := jsonReport{Version: 1, Packages: len(dirs), Diagnostics: []jsonDiagnostic{}}
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
			fmt.Fprintln(humanOut, d)
			report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Rule:    d.Rule,
				Message: d.Message,
				Fixable: d.Fix != nil,
			})
		}
	}
	report.DurationMS = time.Since(start).Milliseconds()
	report.Fixed = fixedEdits

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "kwslint:", err)
			os.Exit(2)
		}
	}
	if *applyFix && fixedEdits > 0 {
		fmt.Fprintf(humanOut, "kwslint: applied %d fix edit(s)\n", fixedEdits)
	}

	switch {
	case loadFailed:
		os.Exit(2)
	case len(report.Diagnostics) > 0:
		os.Exit(1)
	}
}
