package obs

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// startStreaming issues a GET for a pprof execution trace that streams
// for the given number of seconds, returning once response headers have
// arrived (the request is provably in flight) along with a reader for
// the still-streaming body.
func startStreaming(t *testing.T, addr string, seconds int) io.ReadCloser {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/pprof/trace?seconds=" + strconv.Itoa(seconds))
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	return resp.Body
}

// TestShutdownWaitsForInFlight is the regression test for the abortive
// close: a request mid-stream when Shutdown is called must run to
// completion with an intact body. The pre-fix Close-based teardown reset
// the connection and the body read failed.
func TestShutdownWaitsForInFlight(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	body := startStreaming(t, srv.Addr(), 1)
	defer body.Close()

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// The body must stream to its natural end even though the server is
	// draining: EOF, not a reset connection.
	n, err := io.Copy(io.Discard, body)
	if err != nil {
		t.Fatalf("in-flight body aborted during Shutdown: %v (read %d bytes)", err, n)
	}
	if n == 0 {
		t.Fatal("in-flight trace body empty")
	}
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("Shutdown = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned")
	}

	// Drained means drained: new connections are refused.
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("GET after Shutdown succeeded, want connection error")
	}
}

// TestShutdownFallsBackToHardClose bounds the drain: when the caller's
// ctx expires before in-flight requests finish, Shutdown hard-closes and
// returns the ctx error instead of hanging.
func TestShutdownFallsBackToHardClose(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	body := startStreaming(t, srv.Addr(), 5)
	defer body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("bounded fallback took %v", took)
	}
}
