// Package exec is the concurrent, cache-backed query-execution layer in
// front of the candidate-network machinery: the piece EMBANKS (Gupta &
// Sudarshan) and Mragyati (Sarda & Jain) argue a keyword-search engine
// needs before it can serve real traffic. It combines
//
//   - a sharded LRU cache (internal/cache) of whole-query top-k result
//     sets;
//   - a worker pool over one queue of jobs — each candidate network cut
//     into ranges of 1 024 node-0 tuples, in descending score-bound
//     order — from which up to Query.Workers goroutines claim the next
//     job and search it depth-first (cn.Binding.EvaluateRoots): the
//     tutorial's CN-level and data-level parallelism as one schedule,
//     with one search row per goroutine however many partial bindings a
//     job's joins produce;
//   - sound top-k early termination over one bounded cn.Top shared by
//     the goroutines: the first claimed job whose bound cannot reach its
//     k-th score ends the queue, and a context cancellation path stops
//     in-flight goroutines the moment every remaining bound is
//     dominated. The returned top-k is byte-identical to full serial
//     evaluation.
//
// An Executor serves one snapshot: its database and index must not
// change after New, since nothing it caches is ever recomputed. Serving
// new data takes a new Executor (and a new Binder and plan cache, if
// they are shared).
package exec

import (
	"context"
	"strconv"
	"strings"
	"time"

	"kwsearch/internal/cache"
	"kwsearch/internal/cn"
	"kwsearch/internal/invindex"
	"kwsearch/internal/obs"
	"kwsearch/internal/plan"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
)

// The executor's result cache holds resultCacheSize whole-query answers
// over cacheShards lock stripes.
const (
	resultCacheSize = 256
	cacheShards     = 16
)

// Options configures an Executor.
type Options struct {
	// FreeTables are the relations allowed as free tuple sets in CNs.
	FreeTables []string
	// Plans is the candidate-network plan cache consulted before
	// enumeration. Leave nil to have the executor build a private one;
	// core.NewRelational passes the engine's cache, which its SPARK path
	// shares.
	Plans *plan.Cache
	// Binder is the shared keyword-binding layer that turns query terms
	// into R^Q tuple sets from its compiled per-term bindings and join
	// indexes. Leave nil to have the executor build a private one;
	// core.NewRelational passes the engine's binder, which its SPARK
	// path shares.
	Binder *cn.Binder
	// Metrics, when non-nil, receives the executor's lifetime counters
	// ("exec.evaluated", "exec.skipped") and the result cache's counters
	// ("cache.results.*"), plus those of the plan cache it builds
	// itself. Leaving it nil costs one branch per counter event.
	Metrics *obs.Registry
}

// Query is one top-k request.
type Query struct {
	// Terms are the raw keywords (normalized internally).
	Terms []string
	// K bounds the result count (<=0 means 10).
	K int
	// MaxCNSize bounds candidate-network size (<=0 means 5).
	MaxCNSize int
	// Workers is the pool size (<=0 means 1). TopK never runs more
	// goroutines than the query has jobs; the answer is the same at
	// every size.
	Workers int
	// Trace, when non-nil, receives child spans for the execution stages
	// (enumerate, evaluate with one child per pool worker) plus attributes
	// such as the result-cache outcome. Nil disables tracing at the cost
	// of one branch per span site.
	Trace *obs.Span
}

func (q Query) withDefaults() Query {
	if q.K <= 0 {
		q.K = 10
	}
	if q.MaxCNSize <= 0 {
		q.MaxCNSize = 5
	}
	if q.Workers <= 0 {
		q.Workers = 1
	}
	return q
}

// Stats describes how one TopK call was executed.
type Stats struct {
	// Workers is the number of pool goroutines launched: 0 when the
	// pool never ran (result-cache hit, a term without postings, an
	// empty plan).
	Workers int
	// JobsPerWorker counts the CN jobs each pool goroutine claimed from
	// the queue; jobs left on it when a dominated bound ended the queue
	// or the run was interrupted were claimed by none.
	JobsPerWorker []int
	// CNs is the number of candidate networks enumerated.
	CNs int
	// Jobs is the length of the queue: every CN cut into root ranges.
	Jobs int
	// Evaluated and Skipped partition the CN jobs into those actually
	// joined and those pruned by the shared top-k bound (or abandoned
	// after cancellation): Evaluated + Skipped == Jobs.
	Evaluated int
	Skipped   int
	// JoinRows and RowsFinished sum the cn.Work of the jobs evaluated
	// to the end.
	JoinRows, RowsFinished int
	// PrefixReuses always reads 0: the pool searches each job
	// depth-first and keeps no table of evaluated prefixes. The field
	// stays because the repository benchmark (bench/) reads it.
	PrefixReuses int
	// ResultCacheHit reports that the whole answer came from the result
	// cache and nothing below it ran.
	ResultCacheHit bool
	// PlanCacheHit reports that the candidate-network set came from the
	// plan cache and enumeration was skipped entirely.
	PlanCacheHit bool
	// PlanKey is the plan-cache key the query compiled under (schema
	// fingerprint + membership signature + size bounds) — the join
	// key between a query exemplar and plan-cache churn. Empty when the
	// query never reached the enumerate stage.
	PlanKey string
	// Partial reports that the run was interrupted (deadline, cancellation
	// or an injected fault) and the returned results are the certified
	// prefix of the full top-k rather than the whole answer. Partial
	// answers are never cached.
	Partial bool
	// WorkerBusy is, per pool worker, the time spent inside CN evaluation;
	// WorkerIdle is the rest of that worker's wall time in the pool
	// (waiting on the shared top-k lock, bound checks, scheduling). Both
	// are indexed like JobsPerWorker.
	WorkerBusy []time.Duration
	WorkerIdle []time.Duration
}

// Executor is a reusable, concurrency-safe execution layer over one
// database + index pair. Construct with New; methods may be called from
// multiple goroutines.
type Executor struct {
	ix   *invindex.Index
	sg   *schemagraph.Graph
	opts Options

	results *cache.Cache[[]cn.Result]
	plans   *plan.Cache
	binder  *cn.Binder
	// jobRoots is the queue's job size, rootsPerJob outside the package
	// tests (which sweep it to show the answer does not depend on it).
	jobRoots int

	evaluated *obs.Counter
	skipped   *obs.Counter
}

// New builds an executor over db and ix, which must not change
// afterwards (see the package doc). FreeTables defaults to the text-free
// link relations when left nil (matching core.NewRelational's policy is
// the caller's concern).
func New(db *relstore.DB, ix *invindex.Index, opts Options) *Executor {
	x := &Executor{
		ix:        ix,
		sg:        schemagraph.FromDB(db),
		opts:      opts,
		jobRoots:  rootsPerJob,
		results:   cache.New[[]cn.Result](resultCacheSize, cacheShards),
		evaluated: &obs.Counter{},
		skipped:   &obs.Counter{},
	}
	x.plans = opts.Plans
	if x.plans == nil {
		x.plans = plan.New(plan.Options{Metrics: opts.Metrics})
	}
	x.binder = opts.Binder
	if x.binder == nil {
		x.binder = cn.NewBinder(db, ix)
	}
	if reg := opts.Metrics; reg != nil {
		x.evaluated = reg.Attach("exec.evaluated", x.evaluated)
		x.skipped = reg.Attach("exec.skipped", x.skipped)
		x.results.Instrument(reg, "cache.results")
	}
	return x
}

// Postings returns term's posting list straight from the index, which
// needs no cache in front of it: Index.Postings is a read-only map
// lookup. The method stays, with its signature, because the repository
// benchmark (bench/) reads it.
func (x *Executor) Postings(term string) []invindex.Posting { return x.ix.Postings(term) }

// CacheStats returns the result cache's counters as results; postings
// is always the zero cache.Stats, since no posting cache exists. The
// two-value signature stays because the repository benchmark (bench/)
// reads it.
func (x *Executor) CacheStats() (postings, results cache.Stats) {
	return cache.Stats{}, x.results.Stats()
}

// resultCacheKey identifies a query in the result cache. The pool size
// is excluded deliberately: the answer does not depend on the schedule.
func resultCacheKey(terms []string, k, maxCN int) string {
	return strings.Join(terms, " ") + "|k=" + strconv.Itoa(k) + "|cn=" + strconv.Itoa(maxCN)
}

// copyResults guards cached slices against caller mutation.
func copyResults(rs []cn.Result) []cn.Result {
	return append([]cn.Result(nil), rs...)
}

// TopK answers q with the worker pool, consulting the result cache
// first. The returned slice is the caller's to keep. Cancelling ctx (or
// an armed resilience.Injector stage firing) aborts the evaluation and
// returns the interrupting error; once the plan exists the pool runs, and
// the certified prefix of the top-k (empty when ctx had already ended)
// comes back with the error (Stats.Partial set) so callers can serve a
// sound partial answer. Interrupted runs are never cached.
func (x *Executor) TopK(ctx context.Context, q Query) ([]cn.Result, Stats, error) {
	q = q.withDefaults()
	sp := q.Trace
	var st Stats
	terms := cn.NormalizeTerms(q.Terms)
	if len(terms) == 0 {
		return nil, st, nil
	}

	key := resultCacheKey(terms, q.K, q.MaxCNSize)
	if rs, ok := x.results.Get(key); ok {
		st.ResultCacheHit = true
		sp.SetAttr("result_cache_hit", true)
		return copyResults(rs), st, nil
	}
	sp.SetAttr("result_cache_hit", false)

	binding, ps, planHit, err := x.Plan(ctx, terms, q.MaxCNSize, sp)
	if err != nil {
		// No partial answer is possible before the CN set exists.
		return nil, st, err
	}
	if ps == nil {
		x.results.Put(key, nil)
		return nil, st, nil
	}
	cns := ps.CNs() // immutable, share-safe: evaluation is read-only
	st.CNs = len(cns)
	st.PlanCacheHit = planHit
	st.PlanKey = ps.Key()
	if len(cns) == 0 {
		x.results.Put(key, nil)
		return nil, st, nil
	}

	jobs := buildQueue(binding, cns, x.jobRoots)
	st.Jobs = len(jobs)
	// Goroutines beyond the job count would find the queue drained, and
	// the value arrives unvalidated from outside (POST /query "workers"):
	// runPool sizes per-goroutine state by it.
	st.Workers = min(q.Workers, len(jobs))

	vsp := sp.Child("evaluate")
	vsp.SetAttr("workers", st.Workers)
	top, perWorker, err := x.runPool(ctx, binding, jobs, st.Workers, q.K, vsp)
	for _, ws := range perWorker {
		st.JobsPerWorker = append(st.JobsPerWorker, ws.Claimed)
		st.Evaluated += ws.Evaluated
		st.JoinRows += ws.Work.JoinRows
		st.RowsFinished += ws.Work.RowsFinished
		st.WorkerBusy = append(st.WorkerBusy, ws.Busy)
		st.WorkerIdle = append(st.WorkerIdle, ws.Idle())
	}
	st.Skipped = st.Jobs - st.Evaluated
	vsp.SetAttr("evaluated", st.Evaluated)
	vsp.SetAttr("skipped", st.Skipped)
	x.evaluated.Add(uint64(st.Evaluated))
	x.skipped.Add(uint64(st.Skipped))
	if err != nil {
		st.Partial = true
		vsp.SetAttr("partial", true)
		vsp.SetAttr("certified", len(top))
		vsp.End()
		return top, st, err // certified prefix; never cached
	}
	vsp.End()

	x.results.Put(key, copyResults(top))
	return top, st, nil
}

// Plan runs the two stages every candidate-network query starts with,
// each under its own child span of sp (nil disables tracing), after an
// AND-semantics fast path: a term with no postings at all makes total
// coverage impossible, so Plan records it as sp's "empty_term" and
// returns a nil binding and plan without binding or planning. "bind"
// merges the shared binder's compiled term bindings into the query's
// Binding (terms are normalized internally; O(matched tuples)), and
// "enumerate" fetches the CN set for its keyword tables from the plan
// cache (hit reports a warm plan; a cold one is enumerated, with the
// minimality rule cn.EnumerateOptions.Terms, and cached for every later
// query with the same schema, signature and term count). TopK and
// core's SPARK path both call it. A ctx that ends during enumeration
// returns its error and no plan.
func (x *Executor) Plan(ctx context.Context, terms []string, maxCN int, sp *obs.Span) (*cn.Binding, *plan.PlanSet, bool, error) {
	for _, t := range terms {
		if len(x.ix.Postings(t)) == 0 {
			sp.SetAttr("empty_term", t)
			return nil, nil, false, nil
		}
	}
	bsp := sp.Child("bind")
	b := x.binder.BindTraced(terms, bsp)
	kwTables := b.KeywordTables()
	bsp.SetAttr("keyword_tables", len(kwTables))
	bsp.End()

	esp := sp.Child("enumerate")
	defer esp.End()
	ps, hit, err := x.plans.Get(ctx, x.sg, cn.EnumerateOptions{
		MaxSize:       maxCN,
		KeywordTables: kwTables,
		FreeTables:    x.opts.FreeTables,
		Terms:         len(b.Terms()),
	})
	if err != nil {
		esp.SetAttr("cancelled", true)
		return nil, nil, false, err
	}
	esp.SetAttr("cns", ps.Len())
	esp.SetAttr("plan_cached", hit)
	return b, ps, hit, nil
}

// TopKSerial is the reference path: full evaluation of every CN of the
// plan without TopK's minimality rule (cn.EnumerateOptions.Terms) on
// the calling goroutine, no bound pruning, no caches — binding included,
// which comes from the full-scan reference binding rather than the
// binder's term bindings (only its join indexes are shared) — with the
// level-wise cn.EvaluateLevels rather than the pool's depth-first
// search, then SortResults and truncation rather than cn.Top. The
// worker pool's answer is asserted byte-identical to this in the
// package tests, making every such test a continuous binder-vs-scan,
// search-vs-levels and pruned-vs-unpruned equivalence check as well.
//
//lint:ignore ctx-first serial reference oracle, kept signature-stable for the repository benchmark (bench/)
func (x *Executor) TopKSerial(q Query) []cn.Result {
	q = q.withDefaults()
	terms := cn.NormalizeTerms(q.Terms)
	if len(terms) == 0 {
		return nil
	}
	b := cn.NewScanBinding(x.binder, terms)
	cns := cn.Enumerate(x.sg, cn.EnumerateOptions{
		MaxSize:       q.MaxCNSize,
		KeywordTables: b.KeywordTables(),
		FreeTables:    x.opts.FreeTables,
	})
	var all []cn.Result
	for _, c := range cns {
		rs, _ := b.EvaluateLevels(context.Background(), c) // Background never ends: no error
		all = append(all, rs...)
	}
	cn.SortResults(all)
	return all[:min(q.K, len(all))]
}
