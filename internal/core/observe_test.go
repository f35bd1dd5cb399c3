package core

import (
	"context"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"kwsearch/internal/dataset"
	"kwsearch/internal/obs"
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
	// Stats carries no registry delta (an engine-wide registry differenced
	// around one query would count every concurrent query's events too);
	// the work lands in the engine's registry, and only the query's: one
	// lookup per term, none from building the engine.
	counters := e.Metrics.Snapshot().Counters
	postings := 0
	for _, term := range st.Terms {
		postings += len(e.Index.Postings(term))
	}
	if got, want := counters["invindex.lookups"], uint64(len(st.Terms)); got != want {
		t.Errorf("invindex.lookups = %d, want %d", got, want)
	}
	if got, want := counters["invindex.postings_scanned"], uint64(postings); got != want || want == 0 {
		t.Errorf("invindex.postings_scanned = %d, want %d (> 0)", got, want)
	}
	if b, err := json.Marshal(st); err != nil || strings.Contains(string(b), `"metrics"`) {
		t.Errorf("stats JSON = %s (err %v), want no metrics key", b, err)
	}
	if resp.Trace == nil {
		t.Fatal("trace requested but nil")
	}
	if err := resp.Trace.WellFormed(time.Second); err != nil {
		t.Fatal(err)
	}

	// SPARK scores every joined tuple with TF and IDF, which read posting
	// lists without counting a lookup: the counters stay within one
	// posting-list read per term.
	sp := NewRelational(dataset.WidomBib())
	resp, err = sp.Query(context.Background(), Request{Query: "Widom XML", TopK: 5, Semantics: SparkNetworks})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("spark: no results")
	}
	counters = sp.Metrics.Snapshot().Counters
	postings = 0
	for _, term := range resp.Stats.Terms {
		postings += len(sp.Index.Postings(term))
	}
	if got, max := counters["invindex.lookups"], uint64(len(resp.Stats.Terms)); got > max {
		t.Errorf("spark: invindex.lookups = %d, want <= %d", got, max)
	}
	if got, max := counters["invindex.postings_scanned"], uint64(postings); got > max {
		t.Errorf("spark: invindex.postings_scanned = %d, want <= %d", got, max)
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
// has 5 jobs, so Workers 4 launches 4: with three terms the two
// five-node paths of slide 28 can be minimal, and with two they are not
// planned). Timings are excluded (Shape
// drops them) and the goroutine count depends only on the pool size and
// the job count, so the test is deterministic.
func TestTraceShapeGoldenParallel(t *testing.T) {
	const head = "" +
		"query(keywords,result_cache_hit,results,semantics)\n" +
		"  clean(cleaned,terms)\n"
	const stages = "" +
		"  bind(keyword_tables,matched_tuples)\n" +
		"  enumerate(cns,plan_cached)\n" +
		"  evaluate(evaluated,skipped,workers)\n"
	const worker = "(busy,evaluated,idle,jobs,skipped)\n"
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
		req := Request{Query: "Widom XML Ullman", TopK: 5, Workers: tc.workers, Trace: true}
		resp, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if st := resp.Stats.Exec; st == nil || st.Jobs != 5 {
			t.Fatalf("workers=%d: fixture query has exec stats %+v, want 5 jobs", tc.workers, st)
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

// TestResultCacheHitAllocs pins the cost of the hit path by a count: a
// repeated CN query answered from the result cache makes no registry
// snapshot and allocates little besides its response.
func TestResultCacheHitAllocs(t *testing.T) {
	e := NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	req := Request{Query: "keyword search", Workers: 2}
	if _, err := e.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		resp, err := e.Query(context.Background(), req)
		if err != nil || !resp.Stats.Exec.ResultCacheHit {
			t.Fatalf("repeat missed the result cache (err %v)", err)
		}
	})
	if allocs > 40 {
		t.Errorf("result-cache hit allocates %.0f times, want <= 40", allocs)
	}
	t.Logf("result-cache hit: %.0f allocs", allocs)
}

// TestResultCacheMissAllocs pins the cost of the miss path by a count:
// distinct logged CN queries on one worker, each a result-cache miss
// whose plan is warm, because a second executor sharing the engine's
// plan cache ran them first. The set runs twice under one bound: on the
// binder that bound it during the warm-up, and on the binder of a fresh
// engine that has bound none of it (only the plan cache is shared). A
// binder compiles every term binding and join index in its constructor,
// so a first use builds nothing. The bound is about 1.1× the measured
// mean of 160; like every pin it only tightens.
func TestResultCacheMissAllocs(t *testing.T) {
	e := NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	log := dataset.QueryLog(e.DB, 100, 1)
	reqs := make([]Request, len(log))
	for i, le := range log {
		reqs[i] = Request{Query: strings.Join(le.Terms, " "), Semantics: CandidateNetworks, Workers: 1}
	}
	miss := e.Exec
	freshExec(e, e.Binder, e.Plans)
	for _, req := range reqs {
		if _, err := e.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	e.Exec = miss
	cold := NewRelational(e.DB)
	freshExec(cold, cold.Binder, e.Plans)

	for _, arm := range []struct {
		name string
		e    *Engine
	}{{"seen binder", e}, {"cold binder", cold}} {
		i := 0
		allocs := testing.AllocsPerRun(len(reqs)-1, func() {
			req := reqs[i]
			i++
			resp, err := arm.e.Query(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: %q: %v", arm.name, req.Query, err)
			}
			if st := resp.Stats.Exec; st.ResultCacheHit || !st.PlanCacheHit {
				t.Fatalf("%s: %q: result hit %v, plan hit %v; want a miss with a warm plan",
					arm.name, req.Query, st.ResultCacheHit, st.PlanCacheHit)
			}
		})
		if allocs > 176 {
			t.Errorf("%s: result-cache miss allocates %.0f times, want <= 176", arm.name, allocs)
		}
		t.Logf("%s: result-cache miss: %.0f allocs", arm.name, allocs)
	}
}

// TestObsSuiteMissAllocs prices the observability suite by a count, the
// deterministic partner of the timing gate (benchrunner -obs-overhead):
// the mallocs per warm-plan result-cache miss with the full suite on —
// the registry, an installed slow-query log (so every query builds a
// sampled span tree) and a logger in the context — minus the same
// queries with all three off. The slow-query threshold is an hour, so
// no timing decides a capture. The bound is about 1.1× the measured
// difference; like every pin it only tightens.
func TestObsSuiteMissAllocs(t *testing.T) {
	full := NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	log := dataset.QueryLog(full.DB, 100, 1)
	reqs := make([]Request, len(log))
	for i, le := range log {
		reqs[i] = Request{Query: strings.Join(le.Terms, " "), Semantics: CandidateNetworks, Workers: 1}
	}
	for _, req := range reqs { // warms the shared plan cache
		if _, err := full.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	off := *full
	off.Metrics = nil
	freshExec(&off, full.Binder, full.Plans)
	freshExec(full, full.Binder, full.Plans)
	full.SetSlowLog(obs.NewSlowLog(64, time.Hour))
	fullCtx := obs.WithLogger(context.Background(), obs.NewLogger(io.Discard, obs.LevelInfo))
	fullCtx = obs.WithRequestID(fullCtx, "req-1")

	perQuery := func(e *Engine, ctx context.Context) float64 {
		i := 0
		return testing.AllocsPerRun(len(reqs)-1, func() {
			req := reqs[i]
			i++
			resp, err := e.Query(ctx, req)
			if err != nil {
				t.Fatalf("%q: %v", req.Query, err)
			}
			if st := resp.Stats.Exec; st.ResultCacheHit || !st.PlanCacheHit {
				t.Fatalf("%q: result hit %v, plan hit %v; want a miss with a warm plan", req.Query, st.ResultCacheHit, st.PlanCacheHit)
			}
		})
	}
	offAllocs := perQuery(&off, context.Background())
	fullAllocs := perQuery(full, fullCtx)
	t.Logf("result-cache miss: %.0f allocs with the suite off, %.0f with it on", offAllocs, fullAllocs)
	if d := fullAllocs - offAllocs; d > 14 {
		t.Errorf("the observability suite adds %.0f allocs per miss, want <= 14", d)
	}
}
