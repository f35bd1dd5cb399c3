package main

// This file is the traced run: it records spans around the calls into
// each layer and turns them, with the layers' own counters, into the
// per-layer metrics. README.md, "Traced run", explains the passes.

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"kwsearch/internal/cache"
	"kwsearch/internal/cn"
	"kwsearch/internal/core"
	"kwsearch/internal/exec"
	"kwsearch/internal/obs"
	"kwsearch/internal/plan"
)

// layerMetrics names every per-layer metric with its unit, in the order
// they are printed. Every workload reports all of them; a layer the
// workload does not reach reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"wire.transport_us_p50", "us"}, {"server.self_us_p50", "us"}, {"server.resp_bytes_p50", "B"}, {"resilience.shed", "count"},
	{"core.query_us_p50", "us"}, {"core.query_us_p99", "us"}, {"core.overhead_us_p50", "us"}, {"core.attributed_share", "share"},
	{"dataset.gen_ms", "ms"}, {"core.new_engine_ms", "ms"},
	{"text.terms_us_p50", "us"}, {"invindex.postings_us_p50", "us"}, {"invindex.postings_per_query", "count"},
	{"cn.bind_us_p50", "us"}, {"cn.bind_us_p99", "us"}, {"cn.bind_term_hit_rate", "share"}, {"cn.bind_query_hit_rate", "share"},
	{"cn.bind_builds", "count"}, {"cn.kw_tuples_per_query", "count"},
	{"plan.get_us_p50", "us"}, {"plan.hit_rate", "share"}, {"plan.builds", "count"}, {"plan.cns_per_query", "count"},
	{"exec.topk_us_p50", "us"}, {"exec.topk_us_p99", "us"}, {"exec.result_hit_rate", "share"}, {"exec.postings_hit_rate", "share"},
	{"exec.evaluated_per_query", "count"}, {"exec.skipped_per_query", "count"}, {"exec.skip_ratio", "share"},
	{"exec.prefix_reuses_per_query", "count"}, {"exec.worker_busy_share", "share"}, {"exec.worker_imbalance", "ratio"},
	{"cn.pipeline_us_p50", "us"}, {"cn.pipeline_us_p99", "us"}, {"cn.results_per_query", "count"},
	{"shard.query_us_p50", "us"}, {"shard.merge_us_p50", "us"}, {"shard.vs_pool_ratio", "ratio"},
	{"runtime.alloc_kb_per_query", "kB"}, {"runtime.mallocs_per_query", "count"}, {"runtime.gc_pause_ms_total", "ms"}, {"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_share", "share"},
}

// opSeen is what the traced whole-query pass learns about one operation
// from the engine's own response.
type opSeen struct {
	ok      bool
	bits    []uint64
	results int
	exec    *exec.Stats
	merge   time.Duration
}

// passTrace is the recorder of one traced pass: the spans plus, per
// request, what the searcher wrapper saw.
type passTrace struct {
	*tracer
	mu   sync.Mutex
	seen []opSeen
}

func newPassTrace(n int) *passTrace {
	return &passTrace{tracer: newTracer(), seen: make([]opSeen, n)}
}

// requestIndex reads the operation index a request carries as its
// request id; warm-up requests carry none.
func requestIndex(id string, n int) (int, bool) {
	i, err := strconv.Atoi(id)
	return i, err == nil && i >= 0 && i < n
}

// tracedSearcher times Query as the span core.query (shard.query over a
// coordinator) and keeps what the response says about the operation.
type tracedSearcher struct {
	core.Searcher
	tr   *passTrace
	name string
}

func (s tracedSearcher) Query(ctx context.Context, req core.Request) (*core.Response, error) {
	i, ok := requestIndex(obs.RequestIDFrom(ctx), len(s.tr.seen))
	if !ok {
		return s.Searcher.Query(ctx, req)
	}
	id := s.tr.begin(s.name, i)
	resp, err := s.Searcher.Query(ctx, req)
	s.tr.end(id)
	if err == nil {
		seen := opSeen{
			ok:      !resp.Partial && ordered(resp.Results),
			bits:    scoreBits(resp.Results),
			results: len(resp.Results),
			exec:    resp.Stats.Exec,
			merge:   resp.Stats.Merge,
		}
		s.tr.mu.Lock()
		s.tr.seen[i] = seen
		s.tr.mu.Unlock()
	}
	return resp, err
}

// tracedHandler times the server's handler as the span server.handler.
func tracedHandler(h http.Handler, tr *passTrace) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, ok := requestIndex(r.Header.Get("X-Request-Id"), len(tr.seen))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin("server.handler", i)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// cacheCounts are the cumulative counters of the engine's caches, read
// through their typed accessors so that a rename breaks the build.
type cacheCounts struct {
	terms, merged, plans, postings, results cache.Stats
	bindBuilds, planBuilds                  uint64
}

func countsOf(e *core.Engine) cacheCounts {
	c := cacheCounts{
		terms:      e.Binder.Stats(),
		merged:     e.Binder.MergedStats(),
		bindBuilds: e.Binder.Builds(),
		plans:      e.Plans.Stats(),
		planBuilds: e.Plans.Builds(),
	}
	c.postings, c.results = e.Exec.CacheStats()
	return c
}

func hitRate(before, after cache.Stats) float64 {
	return cache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}.HitRate()
}

// replayed are the counts one replayed operation returns.
type replayed struct {
	postings, kwTuples, cns int
	bits                    []uint64
}

// replay runs the layers below core for one query in the engine's own
// order, one span per layer under the root span replay. resultHit says
// the whole-query pass answered this operation from the result cache,
// which the engine consults before it binds or plans.
func replay(ctx context.Context, tr *tracer, e *core.Engine, sp spec, query string, i int, resultHit bool) (replayed, error) {
	var out replayed
	root := tr.begin("replay", i)
	defer tr.end(root)

	id := tr.begin("text.terms", i)
	terms := e.Terms(query, false)
	tr.end(id)

	pool := sp.workers > 1
	id = tr.begin("invindex.postings", i)
	for _, t := range terms {
		if pool {
			out.postings += len(e.Exec.Postings(t))
		} else {
			out.postings += len(e.Index.Postings(t))
		}
	}
	tr.end(id)

	var binding *cn.Binding
	var plans *plan.PlanSet
	if !resultHit {
		id = tr.begin("cn.bind", i)
		binding = e.Binder.BindTraced(terms, nil)
		tables := binding.KeywordTables()
		tr.end(id)
		for _, t := range tables {
			out.kwTuples += len(binding.KeywordSet(t))
		}

		id = tr.begin("plan.get", i)
		var err error
		plans, _, err = e.Plans.Get(ctx, e.Schema, cn.EnumerateOptions{
			MaxSize: maxCNSize, KeywordTables: tables, FreeTables: e.FreeTables,
		})
		tr.end(id)
		if err != nil {
			return out, err
		}
		out.cns = plans.Len()
	}

	var rs []cn.Result
	var err error
	if pool {
		// The bind and plan lookups inside TopK now hit what the two
		// spans above built, so the parts add up to the whole.
		id = tr.begin("exec.topk", i)
		rs, _, err = e.Exec.TopK(ctx, exec.Query{Terms: terms, K: topK, MaxCNSize: maxCNSize, Workers: sp.workers})
		tr.end(id)
	} else {
		id = tr.begin("cn.pipeline", i)
		ev := cn.NewEvaluatorFrom(e.DB, e.Index, binding)
		rs, err = cn.TopKGlobalPipelineCtx(ctx, ev, plans.CNs(), topK, nil)
		tr.end(id)
	}
	out.bits = scoreBits(fromCN(rs))
	return out, err
}

// setupMillis are the set-up parts the traced run reports, one sample
// per pass.
type setupMillis struct{ gen, engine []float64 }

func (s *setupMillis) add(t setupTimes) {
	s.gen = append(s.gen, float64(t.gen)/float64(time.Millisecond))
	s.engine = append(s.engine, float64(t.engine)/float64(time.Millisecond))
}

// runTraced measures one workload's layers. It makes the same leading
// operations four times, each on a fresh engine in the same state:
// untraced (the baseline for trace.overhead_share and the runtime
// counts), traced as whole queries, replayed layer by layer, and, on
// cn_pool, through a two-shard coordinator.
func runTraced(ctx context.Context, sp spec, o options, prog *progress) (result, error) {
	passes := 3
	if sp.shards > 1 {
		passes++
	}
	var setups setupMillis
	m := map[string]float64{}

	// Pass 1, untraced. Its time budget decides how many operations the
	// other passes repeat.
	e, st, err := setUp(ctx, sp, o.seed, variant{})
	if err != nil {
		return result{}, err
	}
	setups.add(st)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	lat, wallPlain := timedLoop(min(sp.traced, len(e.w.ops)), o.seconds/time.Duration(passes), prog, nil, func(i int) bool {
		_, ok := e.do(ctx, e.w.ops[i], -1)
		return ok
	})
	runtime.ReadMemStats(&m1)
	e.close()
	n := len(lat)
	if n == 0 {
		return result{}, fmt.Errorf("%s: no operation fitted the traced run's time budget", sp.name)
	}
	bad := make([]bool, n)
	m["runtime.alloc_kb_per_query"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / float64(n)
	m["runtime.mallocs_per_query"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	m["runtime.gc_pause_ms_total"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	// Pass 2, traced whole queries: wire.rtt > server.handler >
	// core.query per request over HTTP, core.query alone in process.
	tr := newPassTrace(n)
	if e, st, err = setUp(ctx, sp, o.seed, variant{tr: tr}); err != nil {
		return result{}, err
	}
	setups.add(st)
	before := countsOf(e.eng)
	respBytes := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		if e.http == nil {
			e.do(ctx, e.w.ops[i], i)
			continue
		}
		id := tr.begin("wire.rtt", i)
		status, body, err := e.http.post(e.w.ops[i], i)
		tr.end(id)
		respBytes = append(respBytes, float64(len(body)))
		if status == http.StatusTooManyRequests {
			m["resilience.shed"]++
		}
		if err != nil || status != http.StatusOK {
			bad[i] = true
		}
	}
	wallTraced := time.Since(start)
	after := countsOf(e.eng)
	e.close()
	for i, s := range tr.seen {
		if !s.ok {
			bad[i] = true
		}
	}
	m["trace.overhead_share"] = (wallTraced - wallPlain).Seconds() / wallPlain.Seconds()
	m["server.resp_bytes_p50"] = quantile(respBytes, 0.5)
	m["cn.bind_term_hit_rate"] = hitRate(before.terms, after.terms)
	m["cn.bind_query_hit_rate"] = hitRate(before.merged, after.merged)
	m["cn.bind_builds"] = float64(after.bindBuilds - before.bindBuilds)
	m["plan.hit_rate"] = hitRate(before.plans, after.plans)
	m["plan.builds"] = float64(after.planBuilds - before.planBuilds)
	m["exec.postings_hit_rate"] = hitRate(before.postings, after.postings)
	m["exec.result_hit_rate"] = hitRate(before.results, after.results)
	execMetrics(m, tr.seen)

	// Pass 3, the layers below core replayed in process on the tracer of
	// pass 2, so operation i's replay pairs with its whole query.
	inProcess := sp
	inProcess.http = false
	if e, st, err = setUp(ctx, inProcess, o.seed, variant{}); err != nil {
		return result{}, err
	}
	setups.add(st)
	var postings, kwTuples, cns float64
	for i := 0; i < n; i++ {
		hit := tr.seen[i].exec != nil && tr.seen[i].exec.ResultCacheHit
		r, err := replay(ctx, tr.tracer, e.eng, sp, e.w.queries[e.w.ops[i]], i, hit)
		if err != nil || !slices.Equal(r.bits, tr.seen[i].bits) {
			bad[i] = true
		}
		postings += float64(r.postings)
		kwTuples += float64(r.kwTuples)
		cns += float64(r.cns)
	}
	m["invindex.postings_per_query"] = postings / float64(n)
	m["cn.kw_tuples_per_query"] = kwTuples / float64(n)
	m["plan.cns_per_query"] = cns / float64(n)

	// Pass 4, the same operations through a shard coordinator.
	if sp.shards > 1 {
		sharded := sp
		sharded.workers = 0 // one worker per shard: as many goroutines as the pool uses
		if e, st, err = setUp(ctx, sharded, o.seed, variant{tr: tr, shards: sp.shards}); err != nil {
			return result{}, err
		}
		setups.add(st)
		merges := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			pool := tr.seen[i].bits
			if _, ok := e.do(ctx, e.w.ops[i], i); !ok || !slices.Equal(tr.seen[i].bits, pool) {
				bad[i] = true
			}
			merges = append(merges, float64(tr.seen[i].merge)/float64(time.Microsecond))
		}
		m["shard.merge_us_p50"] = quantile(merges, 0.5)
	}

	if err := wellFormed(tr.spans); err != nil {
		return result{}, fmt.Errorf("%s: %w", sp.name, err)
	}
	if err := writeSpans(filepath.Join(o.outDir, "trace_"+sp.name+".json"), sp.name, tr.spans); err != nil {
		return result{}, err
	}
	spanMetrics(m, tr.spans, n)
	m["dataset.gen_ms"] = quantile(setups.gen, 0.5)
	m["core.new_engine_ms"] = quantile(setups.engine, 0.5)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["runtime.peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
	}

	res := result{Attempted: n, Metrics: map[string]metric{}}
	for _, b := range bad {
		if b {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{m[lm.name], lm.unit}
	}
	return res, nil
}

// execMetrics derives the exec.* and cn.results_per_query metrics from
// the stats the engine returned with each response.
func execMetrics(m map[string]float64, seen []opSeen) {
	var evaluated, skipped, reuses, results, busy, idle, imbalance, pooled float64
	for _, s := range seen {
		results += float64(s.results)
		if s.exec == nil {
			continue
		}
		evaluated += float64(s.exec.Evaluated)
		skipped += float64(s.exec.Skipped)
		reuses += float64(s.exec.PrefixReuses)
		var sum, peak time.Duration
		for w, b := range s.exec.WorkerBusy {
			sum += b
			peak = max(peak, b)
			busy += b.Seconds()
			idle += s.exec.WorkerIdle[w].Seconds()
		}
		if sum > 0 {
			imbalance += float64(peak) * float64(len(s.exec.WorkerBusy)) / float64(sum)
			pooled++
		}
	}
	n := float64(len(seen))
	m["cn.results_per_query"] = results / n
	m["exec.evaluated_per_query"] = evaluated / n
	m["exec.skipped_per_query"] = skipped / n
	m["exec.prefix_reuses_per_query"] = reuses / n
	if evaluated+skipped > 0 {
		m["exec.skip_ratio"] = skipped / (evaluated + skipped)
	}
	if busy+idle > 0 {
		m["exec.worker_busy_share"] = busy / (busy + idle)
	}
	if pooled > 0 {
		m["exec.worker_imbalance"] = imbalance / pooled
	}
}

// spanMetrics derives the timing metrics from the recorded spans.
func spanMetrics(m map[string]float64, spans []span, n int) {
	dur, self := durations(spans), selfTimes(spans)
	us := func(xs []float64, q float64) float64 { return quantile(xs, q) / 1e3 }
	of := func(name string) []float64 { return perRequest(spans, dur, name, n) }

	m["wire.transport_us_p50"] = us(perRequest(spans, self, "wire.rtt", n), 0.5)
	m["server.self_us_p50"] = us(perRequest(spans, self, "server.handler", n), 0.5)
	query := of("core.query")
	m["core.query_us_p50"], m["core.query_us_p99"] = us(query, 0.5), us(query, 0.99)
	m["text.terms_us_p50"] = us(of("text.terms"), 0.5)
	m["invindex.postings_us_p50"] = us(of("invindex.postings"), 0.5)
	bind := of("cn.bind")
	m["cn.bind_us_p50"], m["cn.bind_us_p99"] = us(bind, 0.5), us(bind, 0.99)
	m["plan.get_us_p50"] = us(of("plan.get"), 0.5)
	topk := of("exec.topk")
	m["exec.topk_us_p50"], m["exec.topk_us_p99"] = us(topk, 0.5), us(topk, 0.99)
	pipeline := of("cn.pipeline")
	m["cn.pipeline_us_p50"], m["cn.pipeline_us_p99"] = us(pipeline, 0.5), us(pipeline, 0.99)

	// The replay root's children are the attributed layers: what the
	// root spent outside them is the benchmark's own bookkeeping.
	layers := perRequest(spans, dur, "replay", n)
	for i, s := range perRequest(spans, self, "replay", n) {
		layers[i] -= s
	}
	overhead := make([]float64, n)
	var sumLayers, sumQuery float64
	for i := range layers {
		overhead[i] = query[i] - layers[i]
		sumLayers += layers[i]
		sumQuery += query[i]
	}
	m["core.overhead_us_p50"] = us(overhead, 0.5)
	if sumQuery > 0 {
		m["core.attributed_share"] = sumLayers / sumQuery
	}

	sharded := of("shard.query")
	m["shard.query_us_p50"] = us(sharded, 0.5)
	var sumSharded float64
	for _, d := range sharded {
		sumSharded += d
	}
	if sumSharded > 0 && sumQuery > 0 {
		m["shard.vs_pool_ratio"] = sumSharded / sumQuery
	}
}
