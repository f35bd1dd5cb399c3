package analysis

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

// driverModule builds a temp module with n packages, each containing a
// configurable number of renameRule violations, and returns the root and
// the package directories in input order.
func driverModule(t testing.TB, n int) (string, []string) {
	t.Helper()
	files := map[string]string{}
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("package p%d\n\nvar speling = %d\n", i, i)
		if i%2 == 1 {
			src += "\nfunc also() int { return speling }\n"
		}
		files[fmt.Sprintf("p%d/p.go", i)] = src
	}
	root := writeTestModule(t, files)
	dirs := make([]string, n)
	for i := 0; i < n; i++ {
		dirs[i] = filepath.Join(root, fmt.Sprintf("p%d", i))
	}
	return root, dirs
}

// TestAnalyzeDirsLoadErrorIsPerDirectory: one broken package must not
// poison its siblings, and results come back in input order.
func TestAnalyzeDirsLoadErrorIsPerDirectory(t *testing.T) {
	root, dirs := driverModule(t, 3)
	brokenRoot := writeTestModule(t, map[string]string{"broken/b.go": "package broken\n\nfunc { nope\n"})
	dirs = append(dirs, filepath.Join(brokenRoot, "broken"))

	results := AnalyzeDirs(context.Background(), root, dirs, []Rule{renameRule{from: "speling", to: "spelling"}})
	for i := 0; i < 3; i++ {
		if results[i].Err != nil {
			t.Errorf("healthy dir %s reported error: %v", dirs[i], results[i].Err)
		}
		if len(results[i].Diags) == 0 {
			t.Errorf("healthy dir %s reported no diagnostics", dirs[i])
		}
	}
	if results[3].Err == nil {
		t.Error("broken dir reported no error")
	}
	for i := range dirs {
		if results[i].Dir != dirs[i] {
			t.Errorf("result %d is for %s, want %s", i, results[i].Dir, dirs[i])
		}
	}
}

// TestAnalyzeDirsCancelledContext: a cancelled context stops scheduling;
// every unanalyzed directory reports the context's error instead of
// silently vanishing from the results.
func TestAnalyzeDirsCancelledContext(t *testing.T) {
	root, dirs := driverModule(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	results := AnalyzeDirs(ctx, root, dirs, []Rule{renameRule{from: "speling", to: "spelling"}})
	if len(results) != len(dirs) {
		t.Fatalf("got %d results, want %d", len(results), len(dirs))
	}
	for i, r := range results {
		if r.Err == nil && len(r.Diags) == 0 {
			t.Errorf("result %d: neither error nor diagnostics after cancellation", i)
		}
	}
	cancelled := 0
	for _, r := range results {
		if r.Err != nil {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no directory reported the cancellation")
	}
}
