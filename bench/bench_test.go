package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// quickRun runs one workload through the command line's own entry point
// at -quick size and returns the metric lines and the parsed result.
func quickRun(t *testing.T, workload, trace, outDir string) ([]string, result) {
	t.Helper()
	var stdout bytes.Buffer
	code := run([]string{"-quick", "-workload", workload, "-trace", trace, "-out", outDir}, &stdout, io.Discard)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if code != 0 {
		t.Fatalf("%s trace=%s: exit code %d, output:\n%s", workload, trace, code, stdout.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line is not a result: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return lines[:len(lines)-1], res
}

func names(ms map[string]metric) []string {
	var out []string
	for name := range ms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func declaredNames(ms []declaredMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestQuickSuiteMatchesDeclaration runs every workload at -quick size,
// end to end and traced, and checks what it emits against BENCHMARK.json.
func TestQuickSuiteMatchesDeclaration(t *testing.T) {
	d, err := readDeclared()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(d.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(specs))
	}
	out := t.TempDir()
	for i, sp := range specs {
		if d.Workloads[i].Name != sp.name || !nameRE.MatchString(sp.name) {
			t.Errorf("workload %d: declared %q, benchmark runs %q", i, d.Workloads[i].Name, sp.name)
		}
		lines, e2e := quickRun(t, sp.name, "0", out)
		if got, want := names(e2e.Metrics), declaredNames(d.EndToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: end-to-end metrics %v, declared %v", sp.name, got, want)
		}
		for _, line := range lines {
			if f := strings.Fields(line); len(f) != 4 || f[0] != sp.name || !nameRE.MatchString(f[1]) {
				t.Errorf("%s: malformed metric line %q", sp.name, line)
			}
		}
		for _, dm := range d.EndToEnd {
			if m := e2e.Metrics[dm.Name]; m.Unit != dm.Unit || m.Value <= 0 {
				t.Errorf("%s %s: value %v unit %q, declared unit %q and never 0", sp.name, dm.Name, m.Value, m.Unit, dm.Unit)
			}
		}

		// Two traced runs: same names as declared, well-formed span
		// files, and the counts that must repeat exactly do.
		_, first := quickRun(t, sp.name, "1", out)
		_, second := quickRun(t, sp.name, "1", out)
		if got, want := names(first.Metrics), declaredNames(d.PerLayer); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: per-layer metrics %v, declared %v", sp.name, got, want)
		}
		for _, dm := range d.PerLayer {
			if m := first.Metrics[dm.Name]; m.Unit != dm.Unit || !nameRE.MatchString(dm.Name) {
				t.Errorf("%s %s: unit %q, declared %q", sp.name, dm.Name, m.Unit, dm.Unit)
			}
		}
		for _, name := range []string{"cn.bind_builds", "plan.builds", "cn.results_per_query", "invindex.postings_per_query"} {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s %s: %v then %v, want an exact repeat", sp.name, name, a, b)
			}
		}
		checkSpanFile(t, filepath.Join(out, "trace_"+sp.name+".json"), first.Attempted)
	}
}

// checkSpanFile reads a span file back and checks its trees: well formed,
// and every operation has at least one root.
func checkSpanFile(t *testing.T, path string, ops int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if err := wellFormed(file.Spans); err != nil {
		t.Errorf("%s: %v", path, err)
	}
	roots := map[int]bool{}
	for _, sp := range file.Spans {
		if sp.Parent < 0 {
			roots[sp.Req] = true
		}
	}
	if len(roots) != ops {
		t.Errorf("%s: %d operations have a root span, want %d", path, len(roots), ops)
	}
}

func TestWellFormedRejectsBrokenTrees(t *testing.T) {
	good := []span{{Name: "a", Start: 0, End: 10, Parent: -1, Req: 1}, {Name: "b", Start: 2, End: 8, Parent: 0, Req: 1}}
	if err := wellFormed(good); err != nil {
		t.Fatalf("good tree rejected: %v", err)
	}
	for name, bad := range map[string][]span{
		"child outside parent": {good[0], {Name: "b", Start: 2, End: 12, Parent: 0, Req: 1}},
		"two request ids":      {good[0], {Name: "b", Start: 2, End: 8, Parent: 0, Req: 2}},
		"negative self time":   {good[0], {Name: "b", Start: 1, End: 7, Parent: 0, Req: 1}, {Name: "c", Start: 3, End: 9, Parent: 0, Req: 1}},
	} {
		if wellFormed(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
