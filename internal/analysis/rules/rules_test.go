package rules

import (
	"path/filepath"
	"testing"

	"kwsearch/internal/analysis"
)

func fixture(t *testing.T, dir string, rules ...analysis.Rule) {
	t.Helper()
	analysis.RunFixtureTest(t, filepath.Join("testdata", "src", dir), rules)
}

func TestFloatEqFixture(t *testing.T)       { fixture(t, "floateq", FloatEq{}) }
func TestDocCommentFixture(t *testing.T)    { fixture(t, "doccomment", DocComment{}) }
func TestCtxFirstFixture(t *testing.T)      { fixture(t, "ctxfirst", CtxFirst{}) }
func TestAtomicSetLoadFixture(t *testing.T) { fixture(t, "atomicsetload", AtomicSetLoad{}) }
func TestCtxDropFixture(t *testing.T)       { fixture(t, "ctxdrop", CtxDrop{}) }
func TestErrSentinelFixture(t *testing.T)   { fixture(t, "errsentinel", ErrSentinel{}) }

// TestSuppression runs the FULL default rule set over a fixture whose
// violations all carry //lint:ignore directives: the only expected
// diagnostics are the ones the fixture marks (a directive naming the
// wrong rule, and a malformed directive).
func TestSuppression(t *testing.T) { fixture(t, "suppress", Default()...) }

// recorder counts harness failures without failing the real test, so we
// can assert that a fixture DOES fail under the wrong rule set.
type recorder struct {
	testing.TB
	errors int
}

func (r *recorder) Helper()                                   {}
func (r *recorder) Errorf(format string, args ...interface{}) { r.errors++ }

// TestFixtureFailsWhenRuleDisabled is the guard the acceptance criteria
// ask for: every fixture carries want expectations, so running it with
// its rule disabled must produce failures, proving the fixtures actually
// pin rule behavior.
func TestFixtureFailsWhenRuleDisabled(t *testing.T) {
	for _, dir := range []string{
		"floateq", "doccomment", "ctxfirst", "atomicsetload", "ctxdrop", "errsentinel",
	} {
		rec := &recorder{TB: t}
		analysis.RunFixtureTest(rec, filepath.Join("testdata", "src", dir), nil)
		if rec.errors == 0 {
			t.Errorf("fixture %s passed with no rules enabled; its wants pin nothing", dir)
		}
	}
}

// TestRuleNamesStable pins the rule names: suppression directives across
// the tree reference them literally, so renaming one silently un-ignores
// every site.
func TestRuleNamesStable(t *testing.T) {
	want := map[string]bool{
		"ctx-first":           true,
		"float-equality":      true,
		"missing-doc-comment": true,
		"atomicsetload":       true,
		"ctxdrop":             true,
		"errsentinel":         true,
	}
	got := Default()
	if len(got) != len(want) {
		t.Fatalf("Default() has %d rules, want %d", len(got), len(want))
	}
	for _, r := range got {
		if !want[r.Name()] {
			t.Errorf("unexpected rule name %q", r.Name())
		}
		if r.Doc() == "" {
			t.Errorf("rule %q has no doc", r.Name())
		}
	}
}
