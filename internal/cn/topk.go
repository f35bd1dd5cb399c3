package cn

import (
	"bytes"
	"container/heap"
	"context"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

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
// the total order every top-k list in the system follows. Sorted tuple
// IDs compare bytewise as decimals each followed by a comma ("10," sorts
// before "9,"), rendered into stack buffers: Less allocates nothing.
func Less(a, b Result) bool {
	if !fmath.Eq(a.Score, b.Score) {
		return a.Score > b.Score
	}
	if len(a.Tuples) != len(b.Tuples) {
		return len(a.Tuples) < len(b.Tuples)
	}
	var ba, bb [64]byte
	if c := bytes.Compare(appendIDKey(ba[:0], a), appendIDKey(bb[:0], b)); c != 0 {
		return c < 0
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

// appendIDKey appends r's tuple IDs, sorted, each in decimal followed
// by a comma.
func appendIDKey(dst []byte, r Result) []byte {
	var buf [8]relstore.TupleID
	ids := buf[:0]
	for _, tp := range r.Tuples {
		ids = append(ids, tp.ID)
	}
	slices.Sort(ids)
	for _, id := range ids {
		dst = strconv.AppendInt(dst, int64(id), 10)
		dst = append(dst, ',')
	}
	return dst
}

// Top is a bounded top-k list under Less, safe for concurrent use: Add
// keeps exactly the K results that SortResults followed by truncation to
// K would keep, in the same order, so the K-th score never falls. The
// Sparse and Global Pipeline strategies, SPARK and the internal/exec
// worker pool all accumulate their answers in one.
type Top struct {
	K  int
	mu sync.Mutex
	rs []Result
}

// Add inserts each result at its place under Less, after any it ties
// with (as the stable SortResults would), and drops whatever falls past
// the K-th place.
func (t *Top) Add(rs ...Result) {
	if t.K <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rs {
		n := len(t.rs)
		if n == t.K && !Less(r, t.rs[n-1]) {
			continue
		}
		t.rs = slices.Insert(t.rs, sort.Search(n, func(i int) bool { return Less(r, t.rs[i]) }), r)
		t.rs = t.rs[:min(n+1, t.K)]
	}
}

// Kth returns the current K-th best score, or -Inf while fewer than K
// results are held (nothing may be pruned before that).
func (t *Top) Kth() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.K <= 0 || len(t.rs) < t.K {
		return math.Inf(-1)
	}
	return t.rs[t.K-1].Score
}

// Results returns a copy of the held results, best first.
func (t *Top) Results() []Result {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Result(nil), t.rs...)
}

// TopKNaive evaluates every CN fully, then sorts — the baseline of
// slide 116's Discover2 comparison.
//
//lint:ignore ctx-first serial reference baseline, kept signature-stable for the E17 comparison
func TopKNaive(b *Binding, cns []*CN, k int) []Result {
	var all []Result
	for _, c := range cns {
		rs, _ := b.EvaluateCN(context.Background(), c) // Background never ends: no error
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
func (b *Binding) Bound(c *CN) float64 {
	s := 0.0
	for _, n := range c.Nodes {
		if !n.Free {
			s += b.maxScores[n.Table]
		}
	}
	return s / float64(c.Size())
}

// TopKSparse evaluates CNs in descending upper-bound order and stops as
// soon as the current k-th score dominates every unevaluated CN's bound
// (the Sparse strategy of Hristidis et al. VLDB'03).
//
//lint:ignore ctx-first serial reference baseline, kept signature-stable for the E17 comparison
func TopKSparse(b *Binding, cns []*CN, k int) []Result {
	order := append([]*CN(nil), cns...)
	sort.SliceStable(order, func(i, j int) bool {
		return b.Bound(order[i]) > b.Bound(order[j])
	})
	top := &Top{K: k}
	for _, c := range order {
		if Dominates(top.Kth(), b.Bound(c)) {
			break
		}
		rs, _ := b.EvaluateCN(context.Background(), c) // Background never ends: no error
		top.Add(rs...)
	}
	return top.Results()
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

func (s *gpState) bound(b *Binding) float64 {
	if s.pos >= len(s.tuples) {
		return -1
	}
	return (b.TupleScore(s.tuples[s.pos]) + s.restMax) / float64(s.cn.Size())
}

type gpHeap struct {
	b      *Binding
	states []*gpState
}

func (h gpHeap) Len() int { return len(h.states) }
func (h gpHeap) Less(i, j int) bool {
	return h.states[i].bound(h.b) > h.states[j].bound(h.b)
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
func TopKGlobalPipelineCtx(ctx context.Context, b *Binding, cns []*CN, k int, sp *obs.Span) ([]Result, error) {
	inj := resilience.From(ctx)
	h := &gpHeap{b: b}
	for _, c := range cns {
		kwNodes := c.KeywordNodes()
		if len(kwNodes) == 0 {
			continue
		}
		// Drive from the keyword node with the fewest tuples.
		driver := kwNodes[0]
		for _, n := range kwNodes[1:] {
			if len(b.KeywordSet(c.Nodes[n].Table)) < len(b.KeywordSet(c.Nodes[driver].Table)) {
				driver = n
			}
		}
		tuples := append([]*relstore.Tuple(nil), b.KeywordSet(c.Nodes[driver].Table)...)
		sort.SliceStable(tuples, func(i, j int) bool {
			return b.TupleScore(tuples[i]) > b.TupleScore(tuples[j])
		})
		rest := 0.0
		for _, n := range kwNodes {
			if n != driver {
				rest += b.MaxNodeScore(c.Nodes[n].Table)
			}
		}
		st := &gpState{cn: c, driver: driver, tuples: tuples, restMax: rest}
		if st.bound(b) > 0 {
			h.states = append(h.states, st)
		}
	}
	heap.Init(h)
	sp.SetAttr("cns", len(cns))
	sp.SetAttr("pipelined", h.Len())
	sp.SetAttr("pruned", len(cns)-h.Len())

	advances, produced, certified := 0, 0, false
	top := &Top{K: k}
	for h.Len() > 0 {
		st := h.states[0]
		bound := st.bound(b)
		if bound < 0 {
			heap.Pop(h)
			continue
		}
		if Dominates(top.Kth(), bound) {
			certified = true
			break
		}
		err := ctx.Err()
		if err == nil {
			err = inj.At(ctx, resilience.StagePipeline)
		}
		if err != nil {
			// bound is the max score any remaining work can reach, so
			// the results strictly above it are final.
			sp.SetAttr("driver_advances", advances)
			sp.SetAttr("produced", produced)
			sp.SetAttr("certified_early", false)
			sp.SetAttr("partial", true)
			return CertifiedPrefix(top.Results(), bound), err
		}
		tp := st.tuples[st.pos]
		st.pos++
		advances++
		heap.Fix(h, 0)
		// Every state advances its own CN (plan CNs are canonically
		// distinct) through each driver tuple once, and every result binds
		// tp at the driver, so no result is produced twice.
		rs := b.EvaluateCNWith(st.cn, st.driver, tp)
		produced += len(rs)
		top.Add(rs...)
	}
	sp.SetAttr("driver_advances", advances)
	sp.SetAttr("produced", produced)
	sp.SetAttr("certified_early", certified)
	return top.Results(), nil
}
