package cn

import (
	"context"
	"math"

	"kwsearch/internal/relstore"
)

// Result is one joining tree of tuples produced by a CN: Tuples[i] is bound
// to CN node i. Score is the monotone IR-style score of Hristidis et al.
// VLDB'03 (sum of tuple scores normalized by CN size).
type Result struct {
	CN     *CN
	Tuples []*relstore.Tuple
	Score  float64
}

// rootSet returns R^Q of node 0, which enumeration always makes a
// keyword node (see prefix.go): the root set of an unanchored search.
func (b *Binding) rootSet(c *CN) []*relstore.Tuple { return b.kwSets[c.Nodes[0].Table] }

// allTermsMask is the bitmask with one bit per query term.
func (b *Binding) allTermsMask() uint32 {
	return (uint32(1) << uint(len(b.terms))) - 1
}

// anchor returns the term a search of c starts from (-1: none) and the
// size of its root set. Every result holds every term t, so the root
// set may be R^t at each keyword node: for two or more terms anchor
// picks the t with the fewest, if fewer than |R^Q(node 0)|. A scan
// binding has no postings, so it never anchors: an independent oracle.
func (b *Binding) anchor(c *CN) (int, int) {
	t, size := -1, len(b.rootSet(c))
	for ti := 0; ti < len(b.postings) && len(b.postings) > 1; ti++ {
		n := 0
		for _, nd := range c.Nodes {
			if !nd.Free {
				n += len(b.postings[ti].ids(nd.Table))
			}
		}
		if n < size {
			t, size = ti, n
		}
	}
	return t, size
}

// EvaluateCN produces every total and minimal joining tree of tuples for c:
// total = the bound tuples jointly contain every query term; minimal =
// removing any leaf tuple breaks coverage (the MTJNT semantics of
// DISCOVER). A context that ends mid-search abandons it: the error is
// ctx's and no results are returned.
func (b *Binding) EvaluateCN(ctx context.Context, c *CN) ([]Result, error) {
	rs, _, err := b.EvaluateRoots(ctx, c, 0, math.MaxInt)
	return rs, err
}

// EvaluateRoots produces the results of c found from roots [lo, hi) of
// its root set (hi is clamped to RootCount(c)) — the exec pool's job.
// Anchored on t, segment j is searched from node j and bars t at keyword
// nodes below j, so each result is found once. No state is kept between
// roots, so ranges that tile [0, RootCount(c)) produce, laid end to end,
// exactly EvaluateCN's results in its order. The pool sums the Work.
func (b *Binding) EvaluateRoots(ctx context.Context, c *CN, lo, hi int) ([]Result, Work, error) {
	if err := ctx.Err(); err != nil {
		return nil, Work{}, err
	}
	s := b.newSearch(ctx, c)
	if t, _ := b.anchor(c); t < 0 {
		set := b.rootSet(c)
		s.start(0, 0)
		for _, tp := range set[min(lo, len(set)):min(hi, len(set))] {
			s.root(tp.ID)
		}
	} else {
		for j, nd := range c.Nodes {
			if nd.Free {
				continue
			}
			seg := b.postings[t].ids(nd.Table)
			a, z := min(max(lo, 0), len(seg)), min(max(hi, 0), len(seg))
			if lo, hi = lo-len(seg), hi-len(seg); a < z {
				s.start(j, 1<<uint(t))
			}
			for _, id := range seg[a:z] {
				s.root(id)
			}
		}
	}
	if s.err != nil {
		return nil, s.work, s.err
	}
	return s.out, s.work, nil
}

// EvaluateCNWith produces the results of c in which CN node driverIdx is
// bound to the given tuple — the global pipeline's primitive.
func (b *Binding) EvaluateCNWith(c *CN, driverIdx int, tp *relstore.Tuple) []Result {
	s := b.newSearch(context.Background(), c) // Background never ends: no error
	s.start(driverIdx, 0)
	s.root(tp.ID)
	return s.out
}

// Work counts one search's effort: JoinRows is the join work its ctx
// polls are paced by (each extension's parent row plus the candidates
// it scans), RowsFinished the complete rows it tests for minimality.
type Work struct{ JoinRows, RowsFinished int }

// unbound marks a CN node without a tuple in a search row.
const unbound relstore.TupleID = -1

// search is one depth-first evaluation of a CN: the compiled search
// order from its start node with its join indexes resolved, the row
// being grown with its tuples' term masks, and the context it polls.
type search struct {
	b      *Binding
	c      *CN
	all    uint32 // the cover every result reaches
	order  []step
	joins  []*JoinIndex       // joins[oi] attaches order[oi].node; nil at 0
	last   int                // order's last keyword step: only free nodes follow
	avoid  uint32             // the anchor term's bit, barred below the start node
	row    []relstore.TupleID // indexed by CN node; unbound where open
	masks  []uint32           // indexed by CN node
	out    []Result
	ctx    context.Context
	work   Work
	pollAt int   // work.JoinRows past which ctx is polled next
	err    error // ctx's error once a poll saw it end
}

// newSearch prepares a search of c, following the same compiled steps
// and join indexes as the level-wise EvaluateLevels with the partition
// test inline — a different traversal of the same join graph, which is
// what lets each check the other. It holds one row, however many
// partial bindings the CN has.
func (b *Binding) newSearch(ctx context.Context, c *CN) *search {
	n := len(c.Nodes)
	row := make([]relstore.TupleID, n)
	for i := range row {
		row[i] = unbound
	}
	return &search{
		b: b, c: c, all: b.allTermsMask(), joins: make([]*JoinIndex, n),
		row: row, masks: make([]uint32, n), ctx: ctx, pollAt: pollEvery,
	}
}

// start makes node the start node of the roots that follow.
func (s *search) start(node int, avoid uint32) {
	s.order, s.avoid, s.last = s.c.program().search[node], avoid, 0
	for oi, st := range s.order {
		if oi > 0 {
			s.joins[oi] = s.b.join(st.join)
		}
		if !st.free {
			s.last = oi
		}
	}
}

// root searches from id at the start node, unless ctx ended the search.
func (s *search) root(id relstore.TupleID) {
	if m := s.b.mask(id); s.err == nil && s.admits(0, m, 0) {
		s.bind(0, id, m, m)
	}
}

// admits reports whether a keyword tuple of mask m may join a row
// covering cover at order[oi]. It cuts rows that cannot finish: in a
// CN of two or more nodes a tuple holding every term makes the other
// leaves redundant, and the last keyword step must complete the cover.
func (s *search) admits(oi int, m, cover uint32) bool {
	if m == s.all && len(s.row) > 1 || m&s.avoid != 0 && s.order[oi].node < s.order[0].node {
		return false
	}
	return oi != s.last || cover|m == s.all
}

// bind puts id, of mask m, at the node of order[oi] and searches on.
func (s *search) bind(oi int, id relstore.TupleID, m, cover uint32) {
	node := s.order[oi].node
	s.row[node], s.masks[node] = id, m
	s.extend(oi+1, cover)
	s.row[node] = unbound
}

func (s *search) extend(oi int, cover uint32) {
	if oi == len(s.order) { // admits made the row total
		if s.work.RowsFinished++; minimal(s.c, s.masks, s.all) {
			s.out = append(s.out, s.b.result(s.c, s.row))
		}
		return
	}
	st := s.order[oi]
	cands := s.joins[oi].Targets(s.row[st.parent])
	if s.work.JoinRows += len(cands) + 1; s.work.JoinRows > s.pollAt {
		if s.err = s.ctx.Err(); s.err != nil {
			return
		}
		s.pollAt = s.work.JoinRows + pollEvery
	}
	for _, cand := range cands {
		// Keyword nodes take matching tuples, free nodes the complement
		// (the DISCOVER partition keeps CN result sets disjoint); a
		// tuple may appear once per result tree.
		k, ok := s.b.rank(cand)
		var m uint32
		if ok {
			m = s.b.masks[k]
		}
		if ok == st.free || ok && !s.admits(oi, m, cover) || containsID(s.row, cand) {
			continue
		}
		if s.bind(oi, cand, m, cover|m); s.err != nil {
			return
		}
	}
}

func containsID(row []relstore.TupleID, id relstore.TupleID) bool {
	for _, b := range row {
		if b == id {
			return true
		}
	}
	return false
}

// finishRow checks totality (all terms covered) and minimality (every
// leaf contributes a needed term) on the tuple IDs of one complete row,
// and only for a row that passes both resolves the tuples and scores
// them. masks is a scratch slice of len(row), hoisted out of the
// callers' row loops.
func (b *Binding) finishRow(c *CN, row []relstore.TupleID, masks []uint32) (Result, bool) {
	all := b.allTermsMask()
	var cover uint32
	for i, id := range row {
		masks[i] = b.mask(id)
		cover |= masks[i]
	}
	if cover != all || !minimal(c, masks, all) {
		return Result{}, false
	}
	return b.result(c, row), true
}

// minimal reports whether dropping any leaf of a row of c loses a term.
func minimal(c *CN, masks []uint32, all uint32) bool {
	for _, li := range c.program().leaves {
		var rest uint32
		for i, m := range masks {
			if i != li {
				rest |= m
			}
		}
		if rest == all && len(masks) > 1 {
			return false
		}
	}
	return true
}

// result resolves and scores a complete row that is total and minimal.
func (b *Binding) result(c *CN, row []relstore.TupleID) Result {
	tuples := make([]*relstore.Tuple, len(row))
	score := 0.0
	for i, id := range row {
		tuples[i] = b.db.TupleByID(id)
		// A free tuple scores an exact 0.0, and x+0.0 == x bit for bit
		// for these non-negative sums, so skipping it changes nothing.
		if k, ok := b.rank(id); ok {
			score += b.scores[k]
		}
	}
	score /= float64(len(c.Nodes))
	return Result{CN: c, Tuples: tuples, Score: score}
}
