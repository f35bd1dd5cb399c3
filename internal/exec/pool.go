package exec

import (
	"cmp"
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kwsearch/internal/cn"
	"kwsearch/internal/obs"
	"kwsearch/internal/resilience"
)

// runStats holds one pool goroutine's execution counters for one TopK
// call. Claimed counts the jobs it took off the queue; those it did not
// evaluate to the end it found dominated or gave up on when the run was
// interrupted.
type runStats struct {
	Claimed      int
	Evaluated    int
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

// rootsPerJob is how many node-0 tuples one job covers. Jobs of 64 roots
// cost cn_pool throughput against 1 024 (more queue traffic and shorter
// prefix levels per allocation) and nothing measured gains from larger
// ones: only keyword sets beyond this size are split at all.
const rootsPerJob = 1024

// job is one unit of pool work: the results of CN c whose node-0 tuple
// is one of rows [lo, hi) of c's root set (cn.Evaluator.Roots). The
// ranges of one CN tile its root set, so its jobs' results are pairwise
// disjoint and together exactly the CN's.
type job struct {
	c      *cn.CN
	lo, hi int
	bound  float64 // ev.Bound(c): caps every score the job can produce
}

// prefixKey names a materialized level in a goroutine's prefix table:
// the construction-order prefix and the root range it was grown from.
// CNs sharing a PrefixKey share node 0, hence the root set and its
// ranges, so equal keys mean equal rows.
type prefixKey struct {
	prefix string
	lo     int
}

// buildQueue orders the plan's CNs by descending score bound
// (deterministic tie-break by canonical CN string) and cuts each into
// jobs of per roots. The bound is exact-compared: the queue's early end
// needs the bounds non-increasing, not merely so within an epsilon.
func buildQueue(ev *cn.Evaluator, cns []*cn.CN, per int) []job {
	order := make([]job, len(cns))
	for i, c := range cns {
		order[i] = job{c: c, bound: ev.Bound(c)}
	}
	slices.SortFunc(order, func(a, b job) int {
		return cmp.Or(cmp.Compare(b.bound, a.bound), strings.Compare(a.c.Canonical(), b.c.Canonical()))
	})
	jobs := make([]job, 0, len(order))
	for _, j := range order {
		for n := ev.RootCount(j.c); j.lo < n; j.lo = j.hi {
			j.hi = j.lo + min(per, n-j.lo)
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// runPool drains one queue of jobs, in descending bound order, with
// workers goroutines (the caller passes min(Query.Workers, len(jobs)):
// more would find the queue drained). A goroutine claims the next job
// from an atomic cursor, grows it level by level from its root range —
// reusing the levels it already materialized for the same prefix and
// range — and adds the results to the one shared cn.Top. The first
// claimed job whose bound the shared k-th score dominates ends the queue
// for everyone, since every later bound is no higher; and when the k-th
// score dominates every goroutine's current bound plus the queue head,
// the pool context is cancelled, stopping in-flight goroutines between
// prefix levels or, through the row loops' context polls, inside one.
// The jobs tile the result space and all feed that one bounded list
// under the total order cn.Less, so the final top-k equals full serial
// evaluation byte for byte at every pool and job size (package tests).
//
// When sp is non-nil every goroutine gets a child span ("worker-<g>"),
// created in the launch loop before any goroutine starts so the span
// tree's shape depends only on the goroutine count. The returned slice
// holds one runStats per goroutine.
//
// When parent ends (or a resilience.StageEval fault fires) mid-run the
// pool drains its goroutines and returns the certified prefix of the
// top-k together with the interrupting error: only results strictly
// dominating the bound of the first job neither finished nor dominated
// survive — a provable prefix of the serial top-k, since that bound caps
// every result the unfinished jobs could still have produced.
func (x *Executor) runPool(parent context.Context, ev *cn.Evaluator, jobs []job, workers, k int, sp *obs.Span) ([]cn.Result, []runStats, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	inj := resilience.From(parent)
	top := &cn.Top{K: k}
	stats := make([]runStats, workers)
	// next is the queue's cursor: the index of the first unclaimed job
	// (at or past len(jobs) once the queue is drained or ended).
	var next atomic.Int64
	head := func() float64 {
		if i := next.Load(); i < int64(len(jobs)) {
			return jobs[i].bound
		}
		return math.Inf(-1)
	}
	// marks[g] caps the bound of whatever goroutine g holds or will
	// claim next. It only ever falls — a claim lowers it to the job's
	// bound, a finished job to the queue head — so a job is never
	// unaccounted for between its claim and its mark.
	marks := make([]atomic.Uint64, workers)
	for g := range marks {
		marks[g].Store(math.Float64bits(head()))
	}
	// lost (under mu) is the highest bound of a job given up on
	// unfinished and undominated — the queue runs in descending bound
	// order, so that is the first such job's; fault holds the first
	// StageEval fault error, which also fires the internal cancellation
	// so the other goroutines stop at their next claim.
	var mu sync.Mutex
	lost := math.Inf(-1)
	var faulted sync.Once
	var fault error

	// tryCancel fires the internal cancellation when the shared k-th
	// score dominates every goroutine's mark and the queue head: no
	// unclaimed or in-flight job can contribute a top-k result anymore.
	// Marks and head are monotone non-increasing and kth is monotone
	// non-decreasing, so a stale read can only delay cancellation, never
	// make it unsound.
	tryCancel := func() {
		kth := top.Kth()
		if math.IsInf(kth, -1) || !cn.Dominates(kth, head()) {
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
	for g := 0; g < workers; g++ {
		wsp := sp.Child("worker-" + strconv.Itoa(g))
		wg.Add(1)
		go func(g int, wsp *obs.Span) {
			defer wg.Done()
			launched := time.Now()
			st := &stats[g]
			prefixes := map[prefixKey]cn.Rows{}
			for {
				ji := next.Add(1) - 1
				if ji >= int64(len(jobs)) {
					break
				}
				j := jobs[ji]
				st.Claimed++
				marks[g].Store(math.Float64bits(j.bound))
				stop := ctx.Err()
				if stop == nil {
					// A delayed fault whose sleep the pool's own
					// cancellation cut short is that cancellation, not
					// a fault.
					if stop = inj.At(ctx, resilience.StageEval); stop != nil && ctx.Err() == nil {
						faulted.Do(func() { fault = stop })
						cancel()
					}
				}
				if stop == nil {
					if cn.Dominates(top.Kth(), j.bound) {
						next.Store(int64(len(jobs))) // every later bound is no higher
						break
					}
					t0 := time.Now()
					done := x.evalJob(ctx, ev, j, prefixes, top, st)
					st.Busy += time.Since(t0)
					if done {
						marks[g].Store(math.Float64bits(head()))
						tryCancel()
						continue
					}
				}
				// Interrupted at the claim or inside the evaluation.
				mu.Lock()
				lost = max(lost, j.bound)
				mu.Unlock()
				break
			}
			marks[g].Store(math.Float64bits(math.Inf(-1)))
			tryCancel()
			st.Wall = time.Since(launched)
			wsp.SetAttr("jobs", st.Claimed)
			wsp.SetAttr("evaluated", st.Evaluated)
			wsp.SetAttr("skipped", st.Claimed-st.Evaluated)
			wsp.SetAttr("prefix_reuses", st.PrefixReuses)
			wsp.SetAttr("busy", st.Busy.Round(time.Microsecond))
			wsp.SetAttr("idle", st.Idle().Round(time.Microsecond))
			wsp.End()
		}(g, wsp)
	}
	wg.Wait()

	err := parent.Err()
	if err == nil {
		err = fault
	}
	if err != nil {
		return cn.CertifiedPrefix(top.Results(), lost), stats, err
	}
	return top.Results(), stats, nil
}

// evalJob evaluates one job with materialized-prefix reuse. It returns
// false when cancellation interrupted the evaluation — between levels
// or inside one, the row loops poll ctx — with the results discarded
// (they are provably below the k-th score whenever the internal
// cancellation fired; otherwise runPool charges the job's bound to the
// certificate). Only completed levels enter the prefix table.
func (x *Executor) evalJob(ctx context.Context, ev *cn.Evaluator, j job, prefixes map[prefixKey]cn.Rows, top *cn.Top, st *runStats) bool {
	c, n := j.c, len(j.c.Nodes)
	var rows cn.Rows
	for d := n - 1; d >= 1; d-- {
		if r, ok := prefixes[prefixKey{c.PrefixKey(d), j.lo}]; ok {
			rows = r
			st.PrefixReuses++
			break
		}
	}
	// A cached-but-empty prefix proves the job joins to nothing.
	dead := rows.Width > 0 && rows.Len() == 0
	for d := rows.Width + 1; d <= n && !dead; d++ {
		if d == 1 {
			rows = ev.Roots(c, j.lo, j.hi)
		} else {
			var err error
			if rows, err = ev.EvaluatePrefix(ctx, c, rows, d); err != nil {
				return false
			}
		}
		if d < n {
			prefixes[prefixKey{c.PrefixKey(d), j.lo}] = rows
		}
		dead = rows.Len() == 0
	}
	if !dead {
		rs, err := ev.BindingResults(ctx, c, rows)
		if err != nil {
			return false
		}
		top.Add(rs...)
	}
	st.Evaluated++
	return true
}
