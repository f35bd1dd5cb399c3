package analysis

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe extracts the quoted expectations of a `// want "..."` comment.
var wantRe = regexp.MustCompile(`"([^"]*)"`)

// RunFixtureTest loads the package in dir, runs the rules, and compares
// the diagnostics against `// want "substring"` expectation comments in
// the fixture files:
//
//	return a == b // want "epsilon"
//
// expects a diagnostic on that line whose message (or rule name)
// contains the quoted text; several quoted strings in one comment expect
// several diagnostics. The form `// want+N "substring"` anchors the
// expectation N lines below the comment — needed when the finding is on
// a declaration that a directly-preceding comment would document (leave
// a blank line between the want comment and the declaration). Unmatched
// expectations and unexpected diagnostics both fail the test, so a
// fixture with wants fails loudly if its rule is disabled.
func RunFixtureTest(t testing.TB, dir string, rules []Rule) {
	t.Helper()
	ld, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := ld.LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}

	type want struct {
		file string
		line int
		text string
		hit  bool
	}
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want")
				if !ok {
					continue
				}
				offset := 0
				if after, ok := strings.CutPrefix(rest, "+"); ok {
					numEnd := strings.IndexAny(after, " \t")
					if numEnd < 0 {
						numEnd = len(after)
					}
					n, err := strconv.Atoi(after[:numEnd])
					if err != nil {
						t.Errorf("%s: bad want offset in %q", pkg.Fset.Position(c.Pos()), c.Text)
						continue
					}
					offset, rest = n, after[numEnd:]
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
					wants = append(wants, &want{file: pos.Filename, line: pos.Line + offset, text: m[1]})
				}
			}
		}
	}

	for _, d := range Run(pkg, rules) {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
				(strings.Contains(d.Message, w.text) || w.text == d.Rule) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.text)
		}
	}
}
