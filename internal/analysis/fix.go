package analysis

import (
	"fmt"
	"go/format"
	"go/token"
	"os"
	"sort"
)

// TextEdit is one byte-range replacement inside a single file: the
// source in [Pos, End) is replaced by NewText. Pos == End inserts.
// Rules build edits with token.Pos values; the framework resolves them
// to file offsets when the diagnostic is reported, so applying a fix
// needs no access to the FileSet of the Loader that produced it.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string

	// Resolved location, filled in by Pass.ReportfFix.
	filename  string
	offset    int
	endOffset int
}

// SuggestedFix is a machine-applicable remediation attached to a
// Diagnostic: a set of non-overlapping edits that remove the finding.
// kwslint -fix applies fixes and gofmt-formats the result; a second run
// applies nothing because the first run's output no longer reports the
// diagnostic.
type SuggestedFix struct {
	// Message describes the change ("replace == with errors.Is").
	Message string
	Edits   []TextEdit
}

// resolve pins every edit to a concrete (filename, offset) range using
// the reporting pass's FileSet. It returns false when a position does
// not resolve or spans files.
func (f *SuggestedFix) resolve(fset *token.FileSet) bool {
	for i := range f.Edits {
		e := &f.Edits[i]
		lo := fset.Position(e.Pos)
		hi := fset.Position(e.End)
		if lo.Filename == "" || lo.Filename != hi.Filename || hi.Offset < lo.Offset {
			return false
		}
		e.filename, e.offset, e.endOffset = lo.Filename, lo.Offset, hi.Offset
	}
	return true
}

// FixResult is the outcome of ApplyFixes for one file.
type FixResult struct {
	Filename string
	// Edits is the number of text edits applied.
	Edits int
	// Content is the gofmt-formatted post-edit file content.
	Content []byte
}

// ApplyFixes computes the post-fix content of every file named by a
// diagnostic carrying a suggested fix. Edits are deduplicated (several
// diagnostics may propose the same change) and applied right-to-left;
// overlapping edits abort with an error rather than guess. Results come
// back sorted by filename; nothing is written to disk — that is the
// caller's decision (see WriteFixes).
func ApplyFixes(diags []Diagnostic) ([]FixResult, error) {
	type edit struct {
		lo, hi int
		text   string
	}
	perFile := map[string][]edit{}
	seen := map[string]bool{}
	for _, d := range diags {
		if d.Fix == nil {
			continue
		}
		for _, e := range d.Fix.Edits {
			if e.filename == "" {
				return nil, fmt.Errorf("fix %q at %s: unresolved edit (not reported through ReportfFix?)", d.Fix.Message, d.Pos)
			}
			key := fmt.Sprintf("%s:%d:%d:%s", e.filename, e.offset, e.endOffset, e.NewText)
			if seen[key] {
				continue
			}
			seen[key] = true
			perFile[e.filename] = append(perFile[e.filename], edit{e.offset, e.endOffset, e.NewText})
		}
	}

	var out []FixResult
	for file, edits := range perFile {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		sort.Slice(edits, func(i, j int) bool {
			if edits[i].lo != edits[j].lo {
				return edits[i].lo > edits[j].lo
			}
			return edits[i].hi > edits[j].hi
		})
		for i := 1; i < len(edits); i++ {
			if edits[i].hi > edits[i-1].lo {
				return nil, fmt.Errorf("%s: overlapping fixes at offsets %d and %d; rerun after applying the first",
					file, edits[i].lo, edits[i-1].lo)
			}
		}
		for _, e := range edits {
			if e.hi > len(src) {
				return nil, fmt.Errorf("%s: edit range beyond EOF", file)
			}
			src = append(src[:e.lo], append([]byte(e.text), src[e.hi:]...)...)
		}
		formatted, err := format.Source(src)
		if err != nil {
			return nil, fmt.Errorf("%s: fixes produce unparsable code: %w", file, err)
		}
		out = append(out, FixResult{Filename: file, Edits: len(edits), Content: formatted})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Filename < out[j].Filename })
	return out, nil
}

// WriteFixes applies results to disk, preserving each file's mode.
func WriteFixes(results []FixResult) error {
	for _, r := range results {
		mode := os.FileMode(0o644)
		if st, err := os.Stat(r.Filename); err == nil {
			mode = st.Mode().Perm()
		}
		if err := os.WriteFile(r.Filename, r.Content, mode); err != nil {
			return err
		}
	}
	return nil
}
