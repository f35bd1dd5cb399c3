package exec

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kwsearch/internal/cn"
	"kwsearch/internal/fmath"
	"kwsearch/internal/obs"
	"kwsearch/internal/parallel"
	"kwsearch/internal/resilience"
)

// runStats holds one pool worker's execution counters for one TopK call.
type runStats struct {
	Evaluated    int
	Skipped      int
	PrefixReuses int
	// Busy is the time spent inside evalJob; Wall is the worker's total
	// time in the pool (launch to exit).
	Busy time.Duration
	Wall time.Duration
}

// Idle returns the worker's non-evaluating time: Wall - Busy, clamped at
// zero (the two are sampled with separate clock reads).
func (s runStats) Idle() time.Duration {
	if s.Wall <= s.Busy {
		return 0
	}
	return s.Wall - s.Busy
}

// sharedTopK is the workers' common accumulator: adds re-sort with the
// deterministic cn.SortResults order and truncate to k, so the k-th score
// is monotone non-decreasing over the run — the property the pruning and
// cancellation logic rely on.
type sharedTopK struct {
	mu sync.Mutex
	k  int
	rs []cn.Result
}

func (t *sharedTopK) add(rs []cn.Result) {
	if len(rs) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rs = append(t.rs, rs...)
	cn.SortResults(t.rs)
	if len(t.rs) > t.k {
		t.rs = t.rs[:t.k]
	}
}

// kth returns the current k-th best score, or -Inf while the top-k is
// not yet full (nothing may be pruned before that).
func (t *sharedTopK) kth() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rs) < t.k {
		return math.Inf(-1)
	}
	return t.rs[t.k-1].Score
}

func (t *sharedTopK) snapshot() []cn.Result {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]cn.Result(nil), t.rs...)
}

// runPool executes the assigned jobs across len(a.Jobs) × shards
// goroutines: goroutine g = s·workers + w walks worker w's jobs through
// the evaluator restricted to owner slice s of shards (cn.OwnerSlice),
// so one slice (shards == 1) is the plain worker pool. Each goroutine
// processes its jobs in descending score-bound order, maintains a
// materialized-prefix table keyed by cn.PrefixKey for join reuse within
// its slice, skips jobs whose bound is dominated by the shared k-th
// score, and publishes a bound watermark; when every watermark is
// dominated the pool context is cancelled, stopping in-flight
// goroutines between prefix levels or, through the row loops' context
// polls, inside one. The owner slices tile the result
// space and all feed one top-k under the total order cn.Less, so the
// final top-k equals full serial evaluation byte for byte at every
// worker and slice count (see package tests).
//
// When sp is non-nil every goroutine with jobs gets a child span
// ("worker-<g>"), created in the launch loop before any goroutine starts
// so the span tree's shape depends only on the (deterministic) job
// assignment. The returned slice holds one runStats per goroutine slot,
// including empty ones.
//
// When parent ends (or a resilience.StageEval fault fires) mid-run the
// pool drains its goroutines and returns the certified prefix of the
// top-k together with the interrupting error: each goroutine records the
// highest bound it walked away from, and only results strictly
// dominating the maximum abandoned bound survive — a provable prefix of
// the serial top-k, since a slice's abandoned bound caps every result
// that slice could still have produced.
func (x *Executor) runPool(parent context.Context, ev *cn.Evaluator, a parallel.Assignment, shards, k int, sp *obs.Span) ([]cn.Result, []runStats, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	inj := resilience.From(parent)
	workers := len(a.Jobs)
	top := &sharedTopK{k: k}
	marks := make([]atomic.Uint64, workers*shards)
	perWorker := make([]runStats, workers*shards)
	// abandoned[g] is the highest job bound goroutine g gave up on without
	// a finished evaluation; written only by g, read after wg.Wait.
	abandoned := make([]float64, workers*shards)
	for g := range abandoned {
		abandoned[g] = math.Inf(-1)
	}
	// injected holds the first StageEval fault error; it also fires the
	// internal cancellation so the other goroutines stop at a job boundary.
	var injMu sync.Mutex
	var injErr error

	// Per-worker job order, shared by the worker's slices: descending
	// bound (deterministic tie-break by canonical CN string) so the skip
	// check fires as early as possible.
	ordered := make([][]parallel.Job, workers)
	bounds := make([][]float64, workers)
	for w, js := range a.Jobs {
		ordered[w] = append([]parallel.Job(nil), js...)
		sort.SliceStable(ordered[w], func(i, j int) bool {
			bi, bj := ev.Bound(ordered[w][i].CN), ev.Bound(ordered[w][j].CN)
			if !fmath.Eq(bi, bj) {
				return bi > bj
			}
			return ordered[w][i].CN.Canonical() < ordered[w][j].CN.Canonical()
		})
		bounds[w] = make([]float64, len(ordered[w]))
		for i, j := range ordered[w] {
			bounds[w][i] = ev.Bound(j.CN)
		}
		first := math.Inf(-1)
		if len(bounds[w]) > 0 {
			first = bounds[w][0]
		}
		for s := 0; s < shards; s++ {
			marks[s*workers+w].Store(math.Float64bits(first))
		}
	}

	// tryCancel fires the internal cancellation when the shared k-th
	// score dominates every goroutine's watermark: no unevaluated or
	// in-flight CN slice can contribute a top-k result anymore.
	// Watermarks are monotone non-increasing and kth is monotone
	// non-decreasing, so a stale read can only delay cancellation, never
	// make it unsound.
	tryCancel := func() {
		kth := top.kth()
		if math.IsInf(kth, -1) {
			return
		}
		for g := range marks {
			if !cn.Dominates(kth, math.Float64frombits(marks[g].Load())) {
				return
			}
		}
		cancel()
	}

	var wg sync.WaitGroup
	for g := 0; g < workers*shards; g++ {
		s, w := g/workers, g%workers
		if len(ordered[w]) == 0 {
			continue
		}
		sev := ev.Restrict(cn.OwnerSlice(s, shards))
		wsp := sp.Child("worker-" + strconv.Itoa(g))
		wsp.SetAttr("jobs", len(ordered[w]))
		wg.Add(1)
		go func(w, g int, wsp *obs.Span) {
			defer wg.Done()
			launched := time.Now()
			st := &perWorker[g]
			prefixes := map[string]cn.Rows{}
			for ji, job := range ordered[w] {
				stop := ctx.Err()
				if stop == nil {
					if err := inj.At(ctx, resilience.StageEval); err != nil {
						injMu.Lock()
						if injErr == nil {
							injErr = err
						}
						injMu.Unlock()
						cancel()
						stop = err
					}
				}
				if stop != nil {
					st.Skipped += len(ordered[w]) - ji
					// Jobs run in descending bound order, so the first
					// unprocessed bound caps everything this goroutine
					// leaves behind.
					if bounds[w][ji] > abandoned[g] {
						abandoned[g] = bounds[w][ji]
					}
					break
				}
				if cn.Dominates(top.kth(), bounds[w][ji]) {
					st.Skipped++
				} else {
					t0 := time.Now()
					done := x.evalJob(ctx, sev, job.CN, prefixes, top, st)
					st.Busy += time.Since(t0)
					if done {
						tryCancel()
					} else {
						st.Skipped++ // abandoned mid-evaluation by cancellation
						if bounds[w][ji] > abandoned[g] {
							abandoned[g] = bounds[w][ji]
						}
					}
				}
				next := math.Inf(-1)
				if ji+1 < len(bounds[w]) {
					next = bounds[w][ji+1]
				}
				marks[g].Store(math.Float64bits(next))
				tryCancel()
			}
			marks[g].Store(math.Float64bits(math.Inf(-1)))
			st.Wall = time.Since(launched)
			wsp.SetAttr("evaluated", st.Evaluated)
			wsp.SetAttr("skipped", st.Skipped)
			wsp.SetAttr("prefix_reuses", st.PrefixReuses)
			wsp.SetAttr("busy", st.Busy.Round(time.Microsecond))
			wsp.SetAttr("idle", st.Idle().Round(time.Microsecond))
			wsp.End()
		}(w, g, wsp)
	}
	wg.Wait()

	err := parent.Err()
	if err == nil {
		err = injErr
	}
	if err != nil {
		bound := math.Inf(-1)
		for _, b := range abandoned {
			if b > bound {
				bound = b
			}
		}
		return cn.CertifiedPrefix(top.snapshot(), bound), perWorker, err
	}
	return top.snapshot(), perWorker, nil
}

// evalJob evaluates one CN with materialized-prefix reuse. It returns
// false when cancellation interrupted the evaluation — between levels
// or inside one, the row loops poll ctx — with the results discarded
// (they are provably below the k-th score whenever the internal
// cancellation fired; otherwise runPool charges the job's bound to the
// certificate). Only completed levels enter the prefix table.
func (x *Executor) evalJob(ctx context.Context, ev *cn.Evaluator, c *cn.CN, prefixes map[string]cn.Rows, top *sharedTopK, st *runStats) bool {
	n := len(c.Nodes)
	var rows cn.Rows
	for d := n - 1; d >= 1; d-- {
		if r, ok := prefixes[c.PrefixKey(d)]; ok {
			rows = r
			st.PrefixReuses++
			break
		}
	}
	// A cached-but-empty prefix proves the CN joins to nothing.
	dead := rows.Width > 0 && rows.Len() == 0
	for d := rows.Width + 1; d <= n && !dead; d++ {
		var err error
		if rows, err = ev.EvaluatePrefix(ctx, c, rows, d); err != nil {
			return false
		}
		if d < n {
			prefixes[c.PrefixKey(d)] = rows
		}
		dead = rows.Len() == 0
	}
	if !dead {
		rs, err := ev.BindingResults(ctx, c, rows)
		if err != nil {
			return false
		}
		top.add(rs)
	}
	st.Evaluated++
	return true
}
