package cn

import (
	"container/heap"
	"context"
	"sort"
	"strconv"

	"kwsearch/internal/fmath"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
	"kwsearch/internal/resilience"
)

// SortResults orders by descending score, breaking ties by CN size, then
// sorted tuple IDs, then the CN's canonical string, then tuple IDs in CN
// node order. The last tie-break makes the order total even for symmetric
// CNs, where two distinct bindings can use the same tuple multiset in
// swapped positions — without it, which twin survives a top-k truncation
// would depend on production order, and the serial vs parallel execution
// paths in internal/exec could not be byte-compared.
func SortResults(rs []Result) {
	sort.SliceStable(rs, func(i, j int) bool { return Less(rs[i], rs[j]) })
}

// Less is SortResults' comparator as a standalone strict weak order —
// the total order every top-k list in the system follows.
func Less(a, b Result) bool {
	if !fmath.Eq(a.Score, b.Score) {
		return a.Score > b.Score
	}
	if len(a.Tuples) != len(b.Tuples) {
		return len(a.Tuples) < len(b.Tuples)
	}
	if ka, kb := resultKey(a), resultKey(b); ka != kb {
		return ka < kb
	}
	if ca, cb := a.CN.Canonical(), b.CN.Canonical(); ca != cb {
		return ca < cb
	}
	for n := range a.Tuples {
		if ta, tb := a.Tuples[n].ID, b.Tuples[n].ID; ta != tb {
			return ta < tb
		}
	}
	return false
}

func resultKey(r Result) string {
	ids := make([]int, len(r.Tuples))
	for i, tp := range r.Tuples {
		ids[i] = int(tp.ID)
	}
	sort.Ints(ids)
	key := ""
	for _, id := range ids {
		key += strconv.Itoa(id) + ","
	}
	return key
}

// TopKNaive evaluates every CN fully, then sorts — the baseline of
// slide 116's Discover2 comparison.
//
//lint:ignore ctx-first serial reference baseline, kept signature-stable for the E17 comparison
func TopKNaive(ev *Evaluator, cns []*CN, k int) []Result {
	var all []Result
	for _, c := range cns {
		rs, _ := ev.EvaluateCN(context.Background(), c) // Background never ends: no error
		all = append(all, rs...)
	}
	SortResults(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Bound returns an upper bound on the score any result of c can reach:
// each keyword node is bounded by the best tuple score of its R^Q, free
// nodes contribute 0, and the sum is normalized by CN size (the score is
// monotone, so the bound is sound). The Sparse strategy and the
// internal/exec worker pool both prune with it.
func (ev *Evaluator) Bound(c *CN) float64 {
	s := 0.0
	for _, n := range c.Nodes {
		if !n.Free {
			s += ev.MaxNodeScore(n.Table)
		}
	}
	return s / float64(c.Size())
}

// TopKSparse evaluates CNs in descending upper-bound order and stops as
// soon as the current k-th score dominates every unevaluated CN's bound
// (the Sparse strategy of Hristidis et al. VLDB'03).
//
//lint:ignore ctx-first serial reference baseline, kept signature-stable for the E17 comparison
func TopKSparse(ev *Evaluator, cns []*CN, k int) []Result {
	order := append([]*CN(nil), cns...)
	sort.SliceStable(order, func(i, j int) bool {
		return ev.Bound(order[i]) > ev.Bound(order[j])
	})
	var top []Result
	for _, c := range order {
		if len(top) >= k && top[k-1].Score >= ev.Bound(c) {
			break
		}
		rs, _ := ev.EvaluateCN(context.Background(), c) // Background never ends: no error
		top = append(top, rs...)
		SortResults(top)
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

// gpState is the per-CN cursor of the global pipeline: the driver node's
// tuples sorted by descending score and a position into them.
type gpState struct {
	cn      *CN
	driver  int
	tuples  []*relstore.Tuple
	pos     int
	restMax float64 // sum of max scores of the other keyword nodes
}

func (s *gpState) bound(ev *Evaluator) float64 {
	if s.pos >= len(s.tuples) {
		return -1
	}
	return (ev.TupleScore(s.tuples[s.pos]) + s.restMax) / float64(s.cn.Size())
}

type gpHeap struct {
	ev     *Evaluator
	states []*gpState
}

func (h gpHeap) Len() int { return len(h.states) }
func (h gpHeap) Less(i, j int) bool {
	return h.states[i].bound(h.ev) > h.states[j].bound(h.ev)
}
func (h gpHeap) Swap(i, j int)       { h.states[i], h.states[j] = h.states[j], h.states[i] }
func (h *gpHeap) Push(x interface{}) { h.states = append(h.states, x.(*gpState)) }
func (h *gpHeap) Pop() interface{} {
	old := h.states
	n := len(old)
	it := old[n-1]
	h.states = old[:n-1]
	return it
}

// Dominates reports score > bound by a genuine margin (epsilon-safe):
// only then is dropping work bounded by bound provably harmless, ties
// included.
func Dominates(score, bound float64) bool {
	return score > bound && !fmath.Eq(score, bound)
}

// CertifiedPrefix returns the leading results whose scores strictly
// dominate bound: exactly the prefix of the full top-k an interrupted
// evaluation can still prove correct when bound caps every score the
// unevaluated work could reach. Results tied with bound are dropped — a
// remaining CN could produce an equal-score twin that the deterministic
// total order would rank ahead of them.
func CertifiedPrefix(rs []Result, bound float64) []Result {
	i := 0
	for i < len(rs) && Dominates(rs[i].Score, bound) {
		i++
	}
	return rs[:i]
}

// TopKGlobalPipelineCtx interleaves the evaluation of all CNs: it
// repeatedly advances the CN whose next driver tuple has the highest
// score upper bound, producing only the joins needed to certify the top k
// (the Global Pipeline of Hristidis et al. VLDB'03; slide 116 compares it
// with TopKNaive and TopKSparse). Requires the monotone score.
//
// Cancellation and the fault injector (resilience.StagePipeline) are
// checked at every driver-tuple advance. When ctx ends mid-evaluation it
// returns the certified prefix of the top-k — the leading results whose
// scores strictly dominate every remaining bound — together with ctx's
// error, so callers can surface a sound partial answer. sp (nil disables
// tracing) records how many CNs entered the pipeline vs were pruned
// outright (zero bound), how many driver tuples were advanced, how many
// candidate rows the probes produced, and whether the k-th score
// certified the answer before the heap drained.
func TopKGlobalPipelineCtx(ctx context.Context, ev *Evaluator, cns []*CN, k int, sp *obs.Span) ([]Result, error) {
	inj := resilience.From(ctx)
	h := &gpHeap{ev: ev}
	for _, c := range cns {
		kwNodes := c.KeywordNodes()
		if len(kwNodes) == 0 {
			continue
		}
		// Drive from the keyword node with the fewest tuples.
		driver := kwNodes[0]
		for _, n := range kwNodes[1:] {
			if len(ev.KeywordSet(c.Nodes[n].Table)) < len(ev.KeywordSet(c.Nodes[driver].Table)) {
				driver = n
			}
		}
		tuples := append([]*relstore.Tuple(nil), ev.KeywordSet(c.Nodes[driver].Table)...)
		sort.SliceStable(tuples, func(i, j int) bool {
			return ev.TupleScore(tuples[i]) > ev.TupleScore(tuples[j])
		})
		rest := 0.0
		for _, n := range kwNodes {
			if n != driver {
				rest += ev.MaxNodeScore(c.Nodes[n].Table)
			}
		}
		st := &gpState{cn: c, driver: driver, tuples: tuples, restMax: rest}
		if st.bound(ev) > 0 {
			h.states = append(h.states, st)
		}
	}
	heap.Init(h)
	sp.SetAttr("cns", len(cns))
	sp.SetAttr("pipelined", h.Len())
	sp.SetAttr("pruned", len(cns)-h.Len())

	advances, produced, certified := 0, 0, false
	var top []Result
	for h.Len() > 0 {
		st := h.states[0]
		b := st.bound(ev)
		if b < 0 {
			heap.Pop(h)
			continue
		}
		if len(top) >= k && top[k-1].Score >= b {
			certified = true
			break
		}
		err := ctx.Err()
		if err == nil {
			err = inj.At(ctx, resilience.StagePipeline)
		}
		if err != nil {
			// b is the max score any remaining work can reach, so the
			// results strictly above it are final.
			top = CertifiedPrefix(top, b)
			sp.SetAttr("driver_advances", advances)
			sp.SetAttr("produced", produced)
			sp.SetAttr("certified_early", false)
			sp.SetAttr("partial", true)
			return top, err
		}
		tp := st.tuples[st.pos]
		st.pos++
		advances++
		heap.Fix(h, 0)
		// Every state advances its own CN (plan CNs are canonically
		// distinct) through each driver tuple once, and every result binds
		// tp at the driver, so no result is produced twice.
		rs := ev.EvaluateCNWith(st.cn, st.driver, tp)
		produced += len(rs)
		top = append(top, rs...)
		SortResults(top)
		if len(top) > k {
			top = top[:k]
		}
	}
	sp.SetAttr("driver_advances", advances)
	sp.SetAttr("produced", produced)
	sp.SetAttr("certified_early", certified)
	return top, nil
}
