package core

import (
	"context"
	"strconv"
	"testing"
	"time"

	"kwsearch/internal/dataset"
)

func TestQueryStats(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	resp, err := e.Query(context.Background(), Request{Query: "Widom XML", TopK: 5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results")
	}
	st := resp.Stats
	if st.Semantics != CandidateNetworks {
		t.Errorf("semantics = %v", st.Semantics)
	}
	if len(st.Terms) != 2 || st.Results != len(resp.Results) || st.Elapsed <= 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Metrics.Counters["invindex.lookups"] == 0 {
		t.Errorf("metrics delta missing index lookups: %v", st.Metrics.Counters)
	}
	if resp.Trace == nil {
		t.Fatal("trace requested but nil")
	}
	if err := resp.Trace.WellFormed(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestQueryWithoutTraceHasNoTrace(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	resp, err := e.Query(context.Background(), Request{Query: "Widom XML", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Fatal("trace present without Request.Trace")
	}
}

// TestTraceShapeGoldenParallel pins the exact span-tree shape of a seeded CN
// query at each pool size: the pipeline stages and their attribute keys
// must not drift silently, Workers 0 and 1 are the same pool of one, and
// every goroutine launched gets one worker-<g> span (the fixture query
// has 5 jobs, so Workers 4 launches 4). Timings are excluded (Shape
// drops them) and the goroutine count depends only on the pool size and
// the job count, so the test is deterministic.
func TestTraceShapeGoldenParallel(t *testing.T) {
	const head = "" +
		"query(keywords,result_cache_hit,results,semantics)\n" +
		"  clean(cleaned,terms)\n" +
		"  lookup(postings,terms)\n"
	const stages = "" +
		"  bind(keyword_tables)\n" +
		"    postings(built_terms,cached_terms,terms)\n" +
		"    materialize(keyword_tables,matched_tuples)\n" +
		"  enumerate(cns,plan_cached)\n" +
		"  evaluate(evaluated,prefix_reuses,skipped,workers)\n"
	const worker = "(busy,evaluated,idle,jobs,prefix_reuses,skipped)\n"
	const tail = "  rank(results)\n"
	for _, tc := range []struct{ workers, goroutines int }{
		{0, 1},
		{1, 1},
		{2, 2},
		{4, 4},
	} {
		spans := ""
		for g := 0; g < tc.goroutines; g++ {
			spans += "    worker-" + strconv.Itoa(g) + worker
		}
		e := NewRelational(dataset.WidomBib())
		req := Request{Query: "Widom XML", TopK: 5, Workers: tc.workers, Trace: true}
		resp, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resp.Trace.Shape(), head+stages+spans+tail; got != want {
			t.Errorf("workers=%d: trace shape drifted:\n got:\n%s want:\n%s", tc.workers, got, want)
		}
		if st := resp.Stats.Exec; st == nil {
			t.Fatalf("workers=%d: exec stats missing", tc.workers)
		} else if st.Workers != tc.goroutines || len(st.JobsPerWorker) != tc.goroutines ||
			len(st.WorkerBusy) != tc.goroutines || len(st.WorkerIdle) != tc.goroutines {
			t.Fatalf("workers=%d: want %d goroutines in every per-worker stat: %+v", tc.workers, tc.goroutines, st)
		}

		// A repeat of the same query hits the result cache: the trace
		// shrinks to the stages that actually ran, and no pool did.
		resp2, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resp2.Trace.Shape(), head+tail; got != want {
			t.Errorf("workers=%d: cached trace shape drifted:\n got:\n%s want:\n%s", tc.workers, got, want)
		}
		if st := resp2.Stats.Exec; st == nil || !st.ResultCacheHit || st.Workers != 0 {
			t.Errorf("workers=%d: result-cache hit reports %+v, want no goroutines", tc.workers, st)
		}
	}
}

// TestTraceShapeXML covers the SLCA path: the evaluate span must carry
// the lca attributes (list sizes, anchors, candidates).
func TestTraceShapeXML(t *testing.T) {
	e := NewXML(dataset.ConfXML())
	resp, err := e.Query(context.Background(), Request{Query: "keyword Mark", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	want := "" +
		"query(keywords,results,semantics)\n" +
		"  clean(cleaned,terms)\n" +
		"  evaluate(algorithm,anchors,candidates,list_sizes)\n" +
		"  rank(results)\n"
	if got := resp.Trace.Shape(); got != want {
		t.Errorf("xml trace shape drifted:\n got:\n%s want:\n%s", got, want)
	}
	if err := resp.Trace.WellFormed(time.Second); err != nil {
		t.Fatal(err)
	}
}
