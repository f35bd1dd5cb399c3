package exec

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentTopKStress hammers one executor from many goroutines with
// overlapping queries and worker counts — meaningful under -race, where it
// guards the shared caches, the pool's watermarks, and the binding's
// shared join table.
func TestConcurrentTopKStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	x := newTestExecutor(4)
	queries := []Query{
		{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 4},
		{Terms: []string{"wang", "search"}, K: 5, MaxCNSize: 4},
		{Terms: []string{"keyword"}, K: 3, MaxCNSize: 3},
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = renderResults(x.TopKSerial(q))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				qi := (g + i) % len(queries)
				q := queries[qi]
				q.Workers = 1 + (g+i)%4
				rs, _, err := x.TopK(context.Background(), q)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := renderResults(rs); got != want[qi] {
					t.Errorf("goroutine %d query %d: concurrent answer differs from serial", g, qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCancellationMidEvaluation races context cancellation against running
// worker pools: cancellation at an arbitrary point must yield either a
// clean ctx error or the complete (serial-identical) answer — never a
// panic, deadlock, or torn partial result.
func TestCancellationMidEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	x := newTestExecutor(4)
	q := Query{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5}
	want := renderResults(x.TopKSerial(q))

	for trial := 0; trial < 30; trial++ {
		x := fresh(x, nil, nil) // force real evaluation every trial
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			// Spread cancellation points from "immediately" to "after
			// completion" across trials.
			time.Sleep(time.Duration(trial) * 50 * time.Microsecond)
			cancel()
			close(done)
		}()
		rs, st, err := x.TopK(ctx, q)
		<-done
		switch err {
		case nil:
			if got := renderResults(rs); got != want {
				t.Fatalf("trial %d: uncancelled answer differs from serial", trial)
			}
		case context.Canceled:
			// The certified prefix travels with the error (possibly empty,
			// possibly the whole answer when cancellation raced completion);
			// whatever came back must be a byte-exact prefix of the serial
			// top-k — never a torn result.
			if got := renderResults(rs); !strings.HasPrefix(want, got) {
				t.Fatalf("trial %d: cancelled call returned a non-prefix answer (%d results)", trial, len(rs))
			}
			if len(rs) > 0 && !st.Partial {
				t.Fatalf("trial %d: cancelled call returned %d results without Stats.Partial", trial, len(rs))
			}
		default:
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
	}
}
