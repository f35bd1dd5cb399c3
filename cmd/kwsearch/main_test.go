package main

// End-to-end tests for the CLI's typed exit codes and partial-results
// banner: they build the real binary and run it, because exit codes are
// a process-boundary contract no in-process test can pin.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var kwsearchBin string

func TestMain(m *testing.M) {
	if _, err := exec.LookPath("go"); err != nil {
		fmt.Fprintln(os.Stderr, "skipping kwsearch e2e tests: go tool not found")
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "kwsearch-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	kwsearchBin = filepath.Join(dir, "kwsearch")
	if out, err := exec.Command("go", "build", "-o", kwsearchBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build kwsearch: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI executes the built binary and returns exit code, stdout, stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(kwsearchBin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stdout.String(), stderr.String()
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("kwsearch %v: %v", args, err)
	}
	return exit.ExitCode(), stdout.String(), stderr.String()
}

func TestExitCodeBadQuery(t *testing.T) {
	// CN semantics against an XML dataset cannot execute: typed as
	// ErrBadQuery by the engine, exit 3 by the CLI.
	code, _, stderr := runCLI(t, "-data", "auctions", "-semantics", "cn", "seller", "Tom")
	if code != 3 {
		t.Fatalf("exit %d, want 3; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "bad query") {
		t.Errorf("stderr does not mention the typed cause:\n%s", stderr)
	}
}

func TestExitCodeShed(t *testing.T) {
	// 16 concurrent runs against a gate with one slot and no queue: the
	// burst must shed and the exit code must say so. The query asks for
	// k=10000 so each run's serial evaluation outlasts a scheduler
	// quantum even on one core — a fast query can serialize the whole
	// burst and nothing sheds (binding from posting lists made the
	// default query quick enough for exactly that). Scheduling could
	// still in principle serialize it, so allow a few attempts.
	for attempt := 0; attempt < 3; attempt++ {
		code, _, stderr := runCLI(t, "-n", "16", "-admit", "1", "-admit-queue", "0", "-k", "10000", "keyword", "search")
		if code == 4 {
			if !strings.Contains(stderr, "shed=") {
				t.Errorf("stderr missing the concurrent-runs summary:\n%s", stderr)
			}
			return
		}
		t.Logf("attempt %d: exit %d, retrying; stderr:\n%s", attempt, code, stderr)
	}
	t.Fatal("no run exited 4 (shed) across 3 attempts of a 16-way burst at capacity 1")
}

func TestExitCodeDeadlineWhileQueued(t *testing.T) {
	// A 1ns deadline is expired by the time admission control sees it
	// (two clock reads are >1ns apart), so the gate must refuse with the
	// typed deadline error — exit 5 — rather than admit a dead query.
	for attempt := 0; attempt < 3; attempt++ {
		code, _, stderr := runCLI(t, "-admit", "1", "-deadline", "1ns", "keyword", "search")
		if code == 5 {
			if !strings.Contains(stderr, "deadline") {
				t.Errorf("stderr does not mention the typed cause:\n%s", stderr)
			}
			return
		}
		t.Logf("attempt %d: exit %d, retrying; stderr:\n%s", attempt, code, stderr)
	}
	t.Fatal("no run exited 5 (deadline while queued) across 3 attempts with a 1ns deadline")
}

func TestPartialResultsBannerExitsZero(t *testing.T) {
	// Without a gate, an expiring deadline is a success: exit 0, with the
	// partial banner on stdout. The hub query's evaluation must outlast
	// the 100µs budget plus any lateness of the deadline's timer on a
	// loaded host; it runs ≈35 ms on one worker.
	code, stdout, stderr := runCLI(t, "-data", "dblp", "-k", "10000", "-deadline", "100us", "search", "www", "wang", "keyword")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "partial results") {
		t.Fatalf("stdout missing the partial-results banner:\n%s", stdout)
	}
}

func TestExitCodeUsage(t *testing.T) {
	code, _, _ := runCLI(t, "-data", "nope", "keyword")
	if code != 2 {
		t.Fatalf("unknown dataset: exit %d, want 2", code)
	}
	code, _, _ = runCLI(t, "-semantics", "nope", "keyword")
	if code != 2 {
		t.Fatalf("unknown semantics: exit %d, want 2", code)
	}
}
