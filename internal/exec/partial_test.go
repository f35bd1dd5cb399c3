package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/resilience"
)

// TestInjectedFaultYieldsCertifiedPrefix pins the partial-results
// contract: when a StageEval fault interrupts the pool at its n-th job
// claim, TopK returns exactly a prefix of the serial top-k (rendered
// byte-for-byte), flags Stats.Partial, and surfaces the fault error.
// With one goroutine the claim order is the queue order, so every cut
// point n is reproducible; at four the goroutines race to the injection
// site, and the prefix must hold wherever the cut lands. At 64 roots per
// job the fixture's 5 CNs make 60 jobs, so cuts fall between the ranges
// of one CN as well as between CNs.
func TestInjectedFaultYieldsCertifiedPrefix(t *testing.T) {
	boom := errors.New("injected eval fault")
	// K is far above the result count so the internal certification never
	// cancels the pool first: every cut point reaches its injection site.
	q := Query{Terms: []string{"keyword", "search"}, K: 10000, MaxCNSize: 5}
	x := newTestExecutor()
	x.jobRoots = 64
	serial := renderResults(x.TopKSerial(q))
	_, full, err := x.TopK(context.Background(), q)
	if err != nil || full.Jobs <= full.CNs {
		t.Fatalf("fixture: %d jobs for %d CNs, err = %v", full.Jobs, full.CNs, err)
	}
	x = fresh(x, x.plans) // the interrupted runs below must leave the cache empty

	for _, workers := range []int{1, 4} {
		q.Workers = workers
		for after := 0; after < full.Jobs; after++ {
			in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Err: boom, After: after})
			ctx := resilience.WithInjector(context.Background(), in)
			rs, st, err := x.TopK(ctx, q)
			if !errors.Is(err, boom) {
				t.Fatalf("workers=%d after=%d: err = %v, want injected fault", workers, after, err)
			}
			if !st.Partial || st.Evaluated+st.Skipped != st.Jobs || st.Skipped == 0 {
				t.Fatalf("workers=%d after=%d: partial=%v, evaluated %d + skipped %d of %d jobs",
					workers, after, st.Partial, st.Evaluated, st.Skipped, st.Jobs)
			}
			if workers == 1 && st.Evaluated != after {
				t.Fatalf("after=%d: one goroutine evaluated %d jobs before the fault", after, st.Evaluated)
			}
			if got := renderResults(rs); !strings.HasPrefix(serial, got) {
				t.Errorf("workers=%d after=%d: partial answer is not a prefix of serial top-k\ngot:\n%sserial:\n%s",
					workers, after, got, serial)
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
// pool at every job index: the first n claims run free, then every claim
// sleeps far past the deadline, which therefore expires with n to n+pool
// jobs done, and the certified prefix + typed error come back quickly.
func TestDeadlineMidEvaluationYieldsPartial(t *testing.T) {
	q := Query{Terms: []string{"keyword", "search"}, K: 10000, MaxCNSize: 5}
	x := newTestExecutor()
	x.jobRoots = 512
	serial := renderResults(x.TopKSerial(q))
	_, full, err := x.TopK(context.Background(), q) // also warms plan and binder
	if err != nil || full.Jobs <= full.CNs {
		t.Fatalf("fixture: %d jobs for %d CNs, err = %v", full.Jobs, full.CNs, err)
	}
	x = fresh(x, x.plans)
	for _, workers := range []int{1, 4} {
		q.Workers = workers
		for after := 0; after < full.Jobs; after++ {
			// The 150ms budget is generous for the warm bind + plan + prewarm
			// and the free jobs (so the deadline provably lands mid-pool)
			// and hopeless against the 2s sleeps.
			in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Delay: 2 * time.Second, After: after})
			ctx, cancel := context.WithTimeout(resilience.WithInjector(context.Background(), in), 150*time.Millisecond)
			start := time.Now()
			rs, st, err := x.TopK(ctx, q)
			returned := time.Since(start)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("workers=%d after=%d: err = %v, want DeadlineExceeded", workers, after, err)
			}
			if returned > 1500*time.Millisecond {
				t.Errorf("workers=%d after=%d: TopK took %v to honor a 150ms deadline", workers, after, returned)
			}
			if !st.Partial || st.Evaluated < after || st.Evaluated+st.Skipped != st.Jobs {
				t.Errorf("workers=%d after=%d: partial=%v, evaluated %d + skipped %d of %d jobs",
					workers, after, st.Partial, st.Evaluated, st.Skipped, st.Jobs)
			}
			if got := renderResults(rs); !strings.HasPrefix(serial, got) {
				t.Errorf("workers=%d after=%d: deadline partial answer is not a prefix of serial top-k\ngot:\n%sserial:\n%s", workers, after, got, serial)
			}
		}
	}
}

// TestDeadlineLandsInsideJoinLevel drives a deadline into one job, not
// between two: "search www wang keyword" joins through the conference
// hub, so at ×2 over four fifths of its time is one job, the star
// conference^Q with three paper^Q leaves, on one worker — with ctx
// checked only between jobs the pool returned when that job was done,
// deadline or not. The search polls ctx, so the query comes back on
// time with the certified prefix, the abandoned job's bound charged to
// the certificate. (Two terms make no star a minimal CN, so a two-term
// hub query plans none.)
func TestDeadlineLandsInsideJoinLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hub query to completion first")
	}
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Papers, cfg.Conferences = 2*cfg.Authors, 2*cfg.Papers, 2*cfg.Conferences
	db := dataset.DBLP(cfg)
	x := New(db, invindex.FromDB(db), Options{FreeTables: []string{"write", "cite"}})
	q := Query{Terms: []string{"search", "www", "wang", "keyword"}, K: 10, MaxCNSize: 5, Workers: 2}

	start := time.Now()
	rs, _, err := x.TopK(context.Background(), q)
	full := time.Since(start)
	if err != nil || len(rs) == 0 {
		t.Fatalf("undeadlined run: %d results, err = %v", len(rs), err)
	}
	want := renderResults(rs)
	x = fresh(x, x.plans)

	// Everything but the joins is warm now, so a twentieth of the full
	// time is far more than bind + plan need and far less than the hub
	// job takes.
	deadline := full / 20
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start = time.Now()
	rs, st, err := x.TopK(ctx, q)
	returned := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after %v, want DeadlineExceeded (full run %v)", err, returned, full)
	}
	if returned > deadline+100*time.Millisecond {
		t.Errorf("TopK took %v to honor a %v deadline (full run %v)", returned, deadline, full)
	}
	if !st.Partial {
		t.Error("Stats.Partial not set on deadline")
	}
	if got := renderResults(rs); !strings.HasPrefix(want, got) {
		t.Errorf("partial answer is not a prefix of the full one\ngot:\n%sfull:\n%s", got, want)
	}
}

// TestEnumerationCancellationReturnsNothing: interrupting CN enumeration
// (before any evaluation) must yield no results at all — a truncated CN
// set would silently change which answers exist.
func TestEnumerationCancellationReturnsNothing(t *testing.T) {
	boom := errors.New("injected enumerate fault")
	in := resilience.NewInjector(1).Arm(resilience.StageEnumerate, resilience.Fault{Err: boom})
	ctx := resilience.WithInjector(context.Background(), in)
	x := newTestExecutor()
	rs, st, err := x.TopK(ctx, Query{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if len(rs) != 0 || st.Partial {
		t.Fatalf("cancelled enumeration returned %d results (partial=%v)", len(rs), st.Partial)
	}
}
