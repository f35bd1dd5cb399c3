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
	Claimed   int
	Evaluated int
	Work      cn.Work // summed over the jobs evaluated to the end
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
// cost cn_pool throughput against 1 024 (more queue traffic) and nothing
// measured gains from larger ones: only keyword sets beyond this size
// are split at all.
const rootsPerJob = 1024

// job is one unit of pool work: the results of CN c whose node-0 tuple
// is one of [lo, hi) of c's root set (cn.Binding.EvaluateRoots). The
// ranges of one CN tile its root set, so its jobs' results are pairwise
// disjoint and together exactly the CN's.
type job struct {
	c      *cn.CN
	lo, hi int
	bound  float64 // b.Bound(c): caps every score the job can produce
}

// buildQueue orders the plan's CNs by descending score bound
// (deterministic tie-break by canonical CN string) and cuts each into
// jobs of per roots. The bound is exact-compared: the queue's early end
// needs the bounds non-increasing, not merely so within an epsilon.
func buildQueue(b *cn.Binding, cns []*cn.CN, per int) []job {
	order := make([]job, len(cns))
	for i, c := range cns {
		order[i] = job{c: c, bound: b.Bound(c)}
	}
	slices.SortFunc(order, func(a, b job) int {
		return cmp.Or(cmp.Compare(b.bound, a.bound), strings.Compare(a.c.Canonical(), b.c.Canonical()))
	})
	jobs := make([]job, 0, len(order))
	for _, j := range order {
		for n := b.RootCount(j.c); j.lo < n; j.lo = j.hi {
			j.hi = j.lo + min(per, n-j.lo)
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// runPool drains one queue of jobs, in descending bound order, with
// workers goroutines (the caller passes min(Query.Workers, len(jobs)):
// more would find the queue drained). A goroutine claims the next job
// from an atomic cursor, searches it depth-first over its root range
// and adds the results to the one shared cn.Top. The first
// claimed job whose bound the shared k-th score dominates ends the queue
// for everyone, since every later bound is no higher; and when the k-th
// score dominates every goroutine's current bound plus the queue head,
// the pool context is cancelled, stopping in-flight goroutines at their
// next claim or, through the search's context polls, inside a job.
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
func (x *Executor) runPool(parent context.Context, b *cn.Binding, jobs []job, workers, k int, sp *obs.Span) ([]cn.Result, []runStats, error) {
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
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			launched := time.Now()
			st := &stats[g]
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
					done := evalJob(ctx, b, j, top, st)
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
		}(g)
	}
	wg.Wait()
	if sp != nil {
		// One span per goroutine, recorded from its stats once the pool
		// is done, so the workers touch no span.
		for g, st := range stats {
			sp.Record("worker-"+strconv.Itoa(g), st.Wall,
				obs.Attr{Key: "jobs", Value: st.Claimed},
				obs.Attr{Key: "evaluated", Value: st.Evaluated},
				obs.Attr{Key: "skipped", Value: st.Claimed - st.Evaluated},
				obs.Attr{Key: "busy", Value: st.Busy.Round(time.Microsecond)},
				obs.Attr{Key: "idle", Value: st.Idle().Round(time.Microsecond)})
		}
	}

	err := parent.Err()
	if err == nil {
		err = fault
	}
	if err != nil {
		return cn.CertifiedPrefix(top.Results(), lost), stats, err
	}
	return top.Results(), stats, nil
}

// evalJob evaluates one job with the depth-first search over its root
// range. It returns false when cancellation interrupted the search, with
// the results discarded (they are provably below the k-th score
// whenever the internal cancellation fired; otherwise runPool charges
// the job's bound to the certificate).
func evalJob(ctx context.Context, b *cn.Binding, j job, top *cn.Top, st *runStats) bool {
	rs, w, err := b.EvaluateRoots(ctx, j.c, j.lo, j.hi)
	if err != nil {
		return false
	}
	top.Add(rs...)
	st.Evaluated++
	st.Work.JoinRows += w.JoinRows
	st.Work.RowsFinished += w.RowsFinished
	return true
}
