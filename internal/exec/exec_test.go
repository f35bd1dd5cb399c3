package exec

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kwsearch/internal/cache"
	"kwsearch/internal/cn"
	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/plan"
	"kwsearch/internal/relstore"
)

var (
	fixOnce sync.Once
	fixDB   *relstore.DB
	fixIx   *invindex.Index
)

// dblp returns the shared DBLP fixture (built once per test binary).
func dblp() (*relstore.DB, *invindex.Index) {
	fixOnce.Do(func() {
		fixDB = dataset.DBLP(dataset.DefaultDBLPConfig())
		fixIx = invindex.FromDB(fixDB)
	})
	return fixDB, fixIx
}

func newTestExecutor() *Executor {
	db, ix := dblp()
	return New(db, ix, Options{FreeTables: []string{"write", "cite"}})
}

// fresh returns a copy of x — its snapshot, options, binder (which
// caches nothing) and job size — with an empty result cache, so its next
// TopK evaluates, and the plan cache given (nil gives it a private, empty
// one).
func fresh(x *Executor, plans *plan.Cache) *Executor {
	y := *x
	y.results = cache.New[[]cn.Result](resultCacheSize, cacheShards)
	if plans == nil {
		plans = plan.New(plan.Options{})
	}
	y.plans = plans
	return &y
}

// renderResults serializes results bit-exactly: canonical CN, tuple IDs in
// CN node order, and the raw float64 bits of the score. Two result lists
// render equal iff they are byte-identical answers.
func renderResults(rs []cn.Result) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.CN.Canonical())
		for _, tp := range r.Tuples {
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(int(tp.ID)))
		}
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.Score), 16))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTopKMatchesSerialByteIdentical is the acceptance-criteria check: the
// worker pool's answer must be byte-identical to full serial evaluation,
// for every worker count, including the result-cache replay.
func TestTopKMatchesSerialByteIdentical(t *testing.T) {
	queries := []Query{
		{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5},
		{Terms: []string{"wang", "search"}, K: 5, MaxCNSize: 5},
		{Terms: []string{"keyword", "search", "database"}, K: 10, MaxCNSize: 4},
		{Terms: []string{"keyword"}, K: 3, MaxCNSize: 3},
	}
	for _, q := range queries {
		x := newTestExecutor()
		want := renderResults(x.TopKSerial(q))
		for _, workers := range []int{1, 2, 4, 8} {
			qq := q
			qq.Workers = workers
			rs, st, err := x.TopK(context.Background(), qq)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", q.Terms, workers, err)
			}
			if got := renderResults(rs); got != want {
				t.Errorf("%v workers=%d: parallel answer differs from serial\ngot:\n%swant:\n%s",
					q.Terms, workers, got, want)
			}
			if st.Evaluated+st.Skipped != st.Jobs || (!st.ResultCacheHit && st.Jobs < st.CNs) {
				t.Errorf("%v workers=%d: evaluated %d + skipped %d, %d jobs, %d CNs",
					q.Terms, workers, st.Evaluated, st.Skipped, st.Jobs, st.CNs)
			}
		}
	}
}

// TestParallelBeatsSerial is the acceptance-criteria perf check: at 4
// workers, the executor (bound pruning + prefix reuse + pool) must answer
// the DBLP fixture query faster than full serial evaluation. Best-of-3 on
// both sides to damp scheduler noise; the win is algorithmic (the serial
// reference evaluates every CN), so it holds even on one core.
func TestParallelBeatsSerial(t *testing.T) {
	q := Query{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5, Workers: 4}

	best := func(prep, f func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			prep()
			start := time.Now()
			f()
			if e := time.Since(start); e < d {
				d = e
			}
		}
		return d
	}

	x := newTestExecutor()
	// Warm once outside timing so both sides measure steady-state work.
	x.TopKSerial(q)

	serial := best(func() {}, func() { x.TopKSerial(q) })
	var y *Executor
	parallel := best(func() {
		y = fresh(x, nil) // no cache replays in the timed region
	}, func() {
		if _, _, err := y.TopK(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("serial=%v parallel=%v (%.2fx)", serial, parallel, float64(serial)/float64(parallel))
	if parallel >= serial {
		t.Errorf("parallel executor (%v) not faster than serial (%v) at 4 workers", parallel, serial)
	}
}

// TestResultCache checks the whole-query cache: a repeated query is served
// from cache with the identical answer, caller mutation cannot corrupt the
// cached copy, and an executor sharing the binder and plans but not the
// result cache re-executes to the same answer.
func TestResultCache(t *testing.T) {
	x := newTestExecutor()
	q := Query{Terms: []string{"keyword", "search"}, K: 5, MaxCNSize: 4, Workers: 2}

	rs1, st1, err := x.TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ResultCacheHit {
		t.Fatal("first query claims a result-cache hit")
	}
	want := renderResults(rs1)
	if len(rs1) > 0 {
		rs1[0].Score = -1 // caller mutation must not reach the cache
	}

	rs2, st2, err := x.TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.ResultCacheHit {
		t.Error("second identical query missed the result cache")
	}
	if st2.Workers != 0 || st2.Jobs != 0 || len(st2.JobsPerWorker) != 0 {
		t.Errorf("result-cache hit reports a pool that never ran: %+v", st2)
	}
	if got := renderResults(rs2); got != want {
		t.Errorf("cached answer differs:\ngot:\n%swant:\n%s", got, want)
	}

	rs3, st3, err := fresh(x, x.plans).TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if st3.ResultCacheHit || !st3.PlanCacheHit {
		t.Errorf("executor sharing only binder and plans: result hit %v, plan hit %v; want a miss and a hit",
			st3.ResultCacheHit, st3.PlanCacheHit)
	}
	if got := renderResults(rs3); got != want {
		t.Errorf("re-executed answer differs:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestNoPostingsFastPath: a term absent from the index short-circuits the
// query (AND semantics) without binding or planning, and the nil answer
// is itself cached.
func TestNoPostingsFastPath(t *testing.T) {
	x := newTestExecutor()
	q := Query{Terms: []string{"keyword", "zzzznosuchterm"}, K: 5, MaxCNSize: 4}
	rs, st, err := x.TopK(context.Background(), q)
	if err != nil || rs != nil {
		t.Fatalf("want nil results, got %v (err %v)", rs, err)
	}
	if st.CNs != 0 || st.Workers != 0 {
		t.Errorf("fast path enumerated %d CNs on %d workers", st.CNs, st.Workers)
	}
	if _, st2, _ := x.TopK(context.Background(), q); !st2.ResultCacheHit {
		t.Error("empty answer was not cached")
	}
	if rs := x.TopKSerial(q); len(rs) != 0 {
		t.Errorf("serial reference disagrees: %d results for impossible query", len(rs))
	}
}

// TestEmptyTerms: queries that normalize to nothing return nothing.
func TestEmptyTerms(t *testing.T) {
	x := newTestExecutor()
	for _, terms := range [][]string{nil, {}, {""}, {"  ", "\t"}} {
		rs, _, err := x.TopK(context.Background(), Query{Terms: terms})
		if err != nil || len(rs) != 0 {
			t.Errorf("terms %q: got %d results, err %v", terms, len(rs), err)
		}
	}
}

// TestContextCancelled: a cancelled context aborts TopK with ctx.Err() and
// no partial results.
func TestContextCancelled(t *testing.T) {
	x := newTestExecutor()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, _, err := x.TopK(ctx, Query{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5, Workers: 4})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rs != nil {
		t.Fatalf("cancelled query returned %d results", len(rs))
	}
}

// TestStatsShape: the stats report the goroutines launched, every job
// is evaluated or skipped, no goroutine claims a job twice, and the
// lifetime counters advance. At one root per job the queue is far longer
// than the CN list and a dominated bound ends it early, so some jobs are
// claimed by nobody.
func TestStatsShape(t *testing.T) {
	x := newTestExecutor()
	x.jobRoots = 1
	_, st, err := x.TopK(context.Background(), Query{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 || len(st.JobsPerWorker) != 4 || len(st.WorkerBusy) != 4 || len(st.WorkerIdle) != 4 {
		t.Fatalf("want 4 workers in every per-worker stat: %+v", st)
	}
	claimed := 0
	for _, n := range st.JobsPerWorker {
		claimed += n
	}
	if st.Jobs <= st.CNs || st.Evaluated+st.Skipped != st.Jobs || claimed < st.Evaluated || claimed > st.Jobs {
		t.Errorf("%d CNs, %d jobs, %d claimed, %d evaluated, %d skipped", st.CNs, st.Jobs, claimed, st.Evaluated, st.Skipped)
	}
	if st.Skipped == 0 || claimed == st.Jobs {
		t.Errorf("k=10 over %d one-root jobs should end the queue early: %d claimed, %d skipped", st.Jobs, claimed, st.Skipped)
	}
	if ev, sk := x.evaluated.Value(), x.skipped.Value(); int(ev) != st.Evaluated || int(sk) != st.Skipped {
		t.Errorf("lifetime counters (%d,%d) disagree with per-call stats (%d,%d)", ev, sk, st.Evaluated, st.Skipped)
	}
	// No posting cache exists: the postings half of CacheStats reads zero.
	if postings, _ := x.CacheStats(); postings != (cache.Stats{}) {
		t.Errorf("postings half of CacheStats = %+v, want zero", postings)
	}
}

// TestWorkersClampedToJobs: Query.Workers arrives unvalidated from
// outside (POST /query "workers"), and runPool sizes per-goroutine state
// by it, so TopK never launches more goroutines than the queue has jobs
// — the rest would find it drained. An absurd pool size must return the
// byte-identical answer for about the memory of a small pool. K exceeds
// the result count so every job is evaluated at every pool size (with
// pruning live, how many jobs a wide pool evaluates before the k-th
// score exists depends on scheduling, and the bytes with it). The sizes
// run in ascending order and the first failure stops the test, so a
// regression fails at 1<<20 and never reaches 1<<30.
func TestWorkersClampedToJobs(t *testing.T) {
	x := newTestExecutor()
	q := Query{Terms: []string{"wang", "search"}, K: 1 << 20, MaxCNSize: 5}
	want := renderResults(x.TopKSerial(q))
	run := func(workers int) uint64 {
		t.Helper()
		y := fresh(x, x.plans) // evaluate, don't replay the result cache
		q.Workers = workers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rs, st, err := y.TopK(context.Background(), q)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := renderResults(rs); got != want {
			t.Fatalf("workers=%d: answer differs from serial\ngot:\n%swant:\n%s", workers, got, want)
		}
		if st.Workers != min(workers, st.Jobs) || len(st.JobsPerWorker) != st.Workers {
			t.Fatalf("workers=%d: pool of %d (%d job buckets) for %d jobs", workers, st.Workers, len(st.JobsPerWorker), st.Jobs)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run(2) // warm the binder and plan cache out of the measurement
	base := run(2)
	for _, workers := range []int{1 << 20, 1 << 30} {
		if got := run(workers); got > 2*base {
			t.Fatalf("workers=%d allocated %d bytes, more than 2x the %d of workers=2", workers, got, base)
		}
	}
}

// TestHubQueryAllocBytes pins what the pool allocates on a hub query,
// one that joins through the conference hub and walks millions of
// partial bindings to return its results. "www www www search wang" has
// five mask bits, so at MaxCNSize 5 the minimality rule removes nothing
// and its plan holds every conference star, up to four paper leaves: the
// pool scans 8.6 M join rows for it (asserted, so the fixture cannot turn
// light). The repeated term adds mask bits without adding postings, so
// the binding, which TopK merges per query from its terms' postings,
// stays as small as that of "search www wang". Binder and plan are warm
// and the executor fresh, so the measurement is the pool's: the
// depth-first search holds one row per goroutine, and the query
// allocates about 26 kB at Workers 1 and 2, where a level-wise pool that
// materialized every level allocated 315 MB. The ceiling is about 1.5×
// the measurement; like every pin it only tightens.
func TestHubQueryAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates the hub query")
	}
	x := newTestExecutor()
	q := Query{Terms: []string{"www", "www", "www", "search", "wang"}, K: 10, MaxCNSize: 5}
	if _, _, err := x.TopK(context.Background(), q); err != nil { // warm binder and plan
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		y := fresh(x, x.plans)
		q.Workers = workers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rs, st, err := y.TopK(context.Background(), q)
		runtime.ReadMemStats(&after)
		if err != nil || len(rs) == 0 || st.ResultCacheHit || !st.PlanCacheHit {
			t.Fatalf("workers=%d: %d results, err %v, stats %+v; want a warm evaluated answer", workers, len(rs), err, st)
		}
		if st.JoinRows < 8_000_000 {
			t.Errorf("workers=%d: %d join rows, want at least 8 M: the fixture no longer walks the hub", workers, st.JoinRows)
		}
		got := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(40 << 10); got > limit {
			t.Errorf("workers=%d: the hub query allocated %d bytes, want <= %d", workers, got, limit)
		}
		t.Logf("workers=%d: %d bytes, %d join rows", workers, got, st.JoinRows)
	}
}

// unprunedRun runs q through TopK's stages on one worker — bind, plan,
// bound-ordered queue, pool — but over the plan enumerated without the
// minimality rule (Terms 0), and returns the answer and its work.
func unprunedRun(t *testing.T, x *Executor, q Query) ([]cn.Result, Stats) {
	t.Helper()
	b := x.binder.BindTraced(q.Terms, nil)
	cns := cn.Enumerate(x.sg, cn.EnumerateOptions{
		MaxSize:       q.MaxCNSize,
		KeywordTables: b.KeywordTables(),
		FreeTables:    x.opts.FreeTables,
	})
	jobs := buildQueue(b, cns, x.jobRoots)
	top, perWorker, err := x.runPool(context.Background(), b, jobs, 1, q.K, nil)
	if err != nil {
		t.Fatalf("%v: unpruned pool: %v", q.Terms, err)
	}
	st := Stats{CNs: len(cns), Jobs: len(jobs)}
	for _, ws := range perWorker {
		st.Evaluated += ws.Evaluated
		st.JoinRows += ws.Work.JoinRows
		st.RowsFinished += ws.Work.RowsFinished
	}
	return top, st
}

// TestMinimalityCutsWork counts what planning only the CNs that can be
// minimal saves on ×1 DBLP at Workers 1, whose claim order is the queue
// order: per query, the answer equals TopKSerial's (which plans every
// CN) byte for byte, the CN, job, evaluated-job, join-row and
// finished-row counts are pinned exactly, and none exceeds the same
// pool's count over the unpruned plan. "search www" is the hub query:
// over the unpruned plan the pool scans 8.55 M join rows for it, nearly
// all in conference stars that yield no result, and 118 over the
// pruned one.
func TestMinimalityCutsWork(t *testing.T) {
	x := newTestExecutor()
	for _, tc := range []struct {
		terms                                        []string
		cns, jobs, evaluated, joinRows, rowsFinished int
	}{
		{[]string{"keyword", "search"}, 2, 2, 1, 0, 745},
		{[]string{"wang", "search"}, 4, 4, 4, 2881, 704},
		{[]string{"search", "www"}, 4, 4, 2, 118, 43},
		{[]string{"wang", "search", "www"}, 21, 21, 21, 70483, 5992},
	} {
		q := Query{Terms: tc.terms, K: 10, MaxCNSize: 5}
		want := renderResults(x.TopKSerial(q))
		rs, st, err := fresh(x, nil).TopK(context.Background(), q)
		if err != nil {
			t.Fatalf("%v: %v", tc.terms, err)
		}
		if got := renderResults(rs); got != want {
			t.Errorf("%v: answer differs from TopKSerial\ngot:\n%swant:\n%s", tc.terms, got, want)
		}
		unRs, un := unprunedRun(t, x, q)
		if got := renderResults(unRs); got != want {
			t.Errorf("%v: unpruned pool's answer differs from TopKSerial\ngot:\n%swant:\n%s", tc.terms, got, want)
		}
		got := []int{st.CNs, st.Jobs, st.Evaluated, st.JoinRows, st.RowsFinished}
		pin := []int{tc.cns, tc.jobs, tc.evaluated, tc.joinRows, tc.rowsFinished}
		unpruned := []int{un.CNs, un.Jobs, un.Evaluated, un.JoinRows, un.RowsFinished}
		t.Logf("%v: CNs, jobs, evaluated, join rows, rows finished = %v (unpruned %v)", tc.terms, got, unpruned)
		for i, name := range []string{"CNs", "jobs", "evaluated", "join rows", "rows finished"} {
			if got[i] != pin[i] {
				t.Errorf("%v: %s = %d, pinned at %d", tc.terms, name, got[i], pin[i])
			}
			if got[i] > unpruned[i] {
				t.Errorf("%v: %s = %d, more than the %d over the unpruned plan", tc.terms, name, got[i], unpruned[i])
			}
		}
	}
}
