package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"kwsearch/internal/resilience"
)

// TestInjectedFaultYieldsCertifiedPrefix pins the partial-results
// contract: when a StageEval fault interrupts the pool after n job
// boundaries, TopK returns exactly a prefix of the serial top-k (rendered
// byte-for-byte), flags Stats.Partial, and surfaces the fault error. With
// one worker and one slice the job order is deterministic, so every cut
// point n is reproducible; at four slices the four goroutines race to
// the injection site, and the prefix must hold wherever the cut lands.
func TestInjectedFaultYieldsCertifiedPrefix(t *testing.T) {
	boom := errors.New("injected eval fault")
	// K is far above the result count so the internal certification never
	// cancels the pool first: every cut point reaches its injection site.
	q := Query{Terms: []string{"keyword", "search"}, K: 10000, MaxCNSize: 5, Workers: 1}
	x := newTestExecutor(1)
	serial := renderResults(x.TopKSerial(q))

	// The fixture query enumerates 5 CNs, so each slice crosses 5 job
	// boundaries: cut points 0 … 5·shards-1 interrupt after every number
	// of completed jobs the pool can reach.
	for _, shards := range []int{1, 4} {
		q.Shards = shards
		for after := 0; after < 5*shards; after++ {
			in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Err: boom, After: after})
			ctx := resilience.WithInjector(context.Background(), in)
			x.InvalidateCaches()
			rs, st, err := x.TopK(ctx, q)
			if !errors.Is(err, boom) {
				t.Fatalf("shards=%d after=%d: err = %v, want injected fault", shards, after, err)
			}
			if !st.Partial {
				t.Fatalf("shards=%d after=%d: Stats.Partial not set", shards, after)
			}
			if got := renderResults(rs); !strings.HasPrefix(serial, got) {
				t.Errorf("shards=%d after=%d: partial answer is not a prefix of serial top-k\ngot:\n%sserial:\n%s",
					shards, after, got, serial)
			}
		}
	}

	// The interrupted runs must not have polluted the result cache: a
	// clean query recomputes and matches serial exactly.
	rs, st, err := x.TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResultCacheHit {
		t.Fatal("partial answer was served from the result cache")
	}
	if got := renderResults(rs); got != serial {
		t.Errorf("clean query after faults differs from serial\ngot:\n%swant:\n%s", got, serial)
	}
}

// TestDeadlineMidEvaluationYieldsPartial drives a real deadline into the
// pool: injected per-job delays make evaluation slow enough that the
// deadline expires mid-run, and the certified prefix + typed error come
// back quickly.
func TestDeadlineMidEvaluationYieldsPartial(t *testing.T) {
	for _, shards := range []int{1, 4} {
		deadlineMidEvaluation(t, shards)
	}
}

func deadlineMidEvaluation(t *testing.T, shards int) {
	q := Query{Terms: []string{"keyword", "search"}, K: 10000, MaxCNSize: 5, Workers: 2, Shards: shards}
	x := newTestExecutor(2)
	serial := renderResults(x.TopKSerial(q))

	// The first two evaluations per stage-hit run free, then every job
	// boundary sleeps far past the deadline: the 250ms budget is generous
	// for enumerate+prewarm (so the deadline provably lands mid-pool) and
	// hopeless against the 2s sleeps.
	in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Delay: 2 * time.Second, After: 2})
	ctx, cancel := context.WithTimeout(resilience.WithInjector(context.Background(), in), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	rs, st, err := x.TopK(ctx, q)
	returned := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shards=%d: err = %v, want DeadlineExceeded", shards, err)
	}
	if returned > 1500*time.Millisecond {
		t.Errorf("shards=%d: TopK took %v to honor a 250ms deadline", shards, returned)
	}
	if !st.Partial {
		t.Errorf("shards=%d: Stats.Partial not set on deadline", shards)
	}
	if got := renderResults(rs); !strings.HasPrefix(serial, got) {
		t.Errorf("shards=%d: deadline partial answer is not a prefix of serial top-k\ngot:\n%sserial:\n%s", shards, got, serial)
	}
}

// TestEnumerationCancellationReturnsNothing: interrupting CN enumeration
// (before any evaluation) must yield no results at all — a truncated CN
// set would silently change which answers exist.
func TestEnumerationCancellationReturnsNothing(t *testing.T) {
	boom := errors.New("injected enumerate fault")
	in := resilience.NewInjector(1).Arm(resilience.StageEnumerate, resilience.Fault{Err: boom})
	ctx := resilience.WithInjector(context.Background(), in)
	x := newTestExecutor(2)
	rs, st, err := x.TopK(ctx, Query{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if len(rs) != 0 || st.Partial {
		t.Fatalf("cancelled enumeration returned %d results (partial=%v)", len(rs), st.Partial)
	}
}
