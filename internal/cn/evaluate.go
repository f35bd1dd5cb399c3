package cn

import (
	"context"

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

// rootSet returns the tuples a search of c starts from: R^Q of node 0,
// which enumeration always makes a keyword node (see prefix.go).
func (b *Binding) rootSet(c *CN) []*relstore.Tuple { return b.kwSets[c.Nodes[0].Table] }

// allTermsMask is the bitmask with one bit per query term.
func (b *Binding) allTermsMask() uint32 {
	return (uint32(1) << uint(len(b.terms))) - 1
}

// EvaluateCN produces every total and minimal joining tree of tuples for c:
// total = the bound tuples jointly contain every query term; minimal =
// removing any leaf tuple breaks coverage (the MTJNT semantics of
// DISCOVER). A context that ends mid-search abandons it: the error is
// ctx's and no results are returned.
func (b *Binding) EvaluateCN(ctx context.Context, c *CN) ([]Result, error) {
	rs, _, err := b.evaluate(ctx, c, 0, b.rootSet(c))
	return rs, err
}

// EvaluateRoots produces the results of c whose node-0 tuple is one of
// [lo, hi) of c's root set (hi is clamped to RootCount(c)) — the
// exec pool's unit of work. The search visits roots in set order and
// keeps no state between them, so ranges that tile [0, RootCount(c))
// produce, laid end to end in range order, exactly EvaluateCN's results
// in EvaluateCN's order. The pool sums the returned Work per job.
func (b *Binding) EvaluateRoots(ctx context.Context, c *CN, lo, hi int) ([]Result, Work, error) {
	set := b.rootSet(c)
	return b.evaluate(ctx, c, 0, set[min(lo, len(set)):min(hi, len(set))])
}

// EvaluateCNWith produces the results of c in which CN node driverIdx is
// bound to the given tuple — the global pipeline's primitive.
func (b *Binding) EvaluateCNWith(c *CN, driverIdx int, tp *relstore.Tuple) []Result {
	rs, _, _ := b.evaluate(context.Background(), c, driverIdx, []*relstore.Tuple{tp}) // Background never ends: no error
	return rs
}

// Work counts one search's effort: JoinRows is the join work its ctx
// polls are paced by (each extension's parent row plus the candidates
// it scans), RowsFinished the complete rows it tests in finishRow.
type Work struct{ JoinRows, RowsFinished int }

// unbound marks a CN node without a tuple in a search row.
const unbound relstore.TupleID = -1

// search is one depth-first evaluation of a CN: the compiled search
// order with its join indexes resolved, the row being grown, and the
// context it polls.
type search struct {
	b      *Binding
	c      *CN
	order  []step
	joins  []*JoinIndex       // joins[oi] attaches order[oi].node; nil at 0
	kw     TupleSet           // the keyword/free partition
	row    []relstore.TupleID // indexed by CN node; unbound where open
	masks  []uint32           // finish's scratch
	out    []Result
	ctx    context.Context
	work   Work
	pollAt int   // work.JoinRows past which ctx is polled next
	err    error // ctx's error once a poll saw it end
}

// evaluate searches c depth-first with node start bound to each of roots
// in turn, following the same compiled steps and join indexes as the
// level-wise EvaluateLevels with the partition test inline — a different
// traversal of the same join graph, which is what lets each check the
// other. It holds one row, however many partial bindings the CN has.
func (b *Binding) evaluate(ctx context.Context, c *CN, start int, roots []*relstore.Tuple) ([]Result, Work, error) {
	if err := ctx.Err(); err != nil {
		return nil, Work{}, err
	}
	n := len(c.Nodes)
	s := search{
		b: b, c: c, kw: b.kw,
		row: openRow(n), masks: make([]uint32, n),
		ctx: ctx, pollAt: pollEvery,
	}
	s.order = c.program().search[start]
	s.joins = make([]*JoinIndex, len(s.order))
	for oi := 1; oi < len(s.order); oi++ {
		s.joins[oi] = b.join(s.order[oi].join)
	}
	for _, tp := range roots {
		if s.bind(0, tp.ID); s.err != nil {
			return nil, s.work, s.err
		}
	}
	return s.out, s.work, nil
}

// openRow returns a search row of n nodes, none bound.
func openRow(n int) []relstore.TupleID {
	row := make([]relstore.TupleID, n)
	for i := range row {
		row[i] = unbound
	}
	return row
}

// bind puts id at the node of order[oi] and searches on from there.
func (s *search) bind(oi int, id relstore.TupleID) {
	node := s.order[oi].node
	s.row[node] = id
	s.extend(oi + 1)
	s.row[node] = unbound
}

func (s *search) extend(oi int) {
	if oi == len(s.order) {
		s.work.RowsFinished++
		if r, ok := s.b.finishRow(s.c, s.row, s.masks); ok {
			s.out = append(s.out, r)
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
		if s.kw.Has(cand) == st.free || containsID(s.row, cand) {
			continue
		}
		if s.bind(oi, cand); s.err != nil {
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
		masks[i] = 0
		if b.kw.Has(id) { // free tuples have mask 0 without a probe
			masks[i] = b.masks[id]
		}
		cover |= masks[i]
	}
	if cover != all {
		return Result{}, false
	}
	// Minimality: dropping any keyword leaf must lose some term.
	if len(row) > 1 {
		for _, li := range c.program().leaves {
			var rest uint32
			for i, m := range masks {
				if i != li {
					rest |= m
				}
			}
			if rest == all {
				return Result{}, false
			}
		}
	}
	tuples := make([]*relstore.Tuple, len(row))
	score := 0.0
	for i, id := range row {
		tuples[i] = b.db.TupleByID(id)
		// A free tuple scores an exact 0.0, and x+0.0 == x bit for bit
		// for these non-negative sums, so skipping it changes nothing.
		if b.kw.Has(id) {
			score += b.scores[id]
		}
	}
	score /= float64(len(c.Nodes))
	return Result{CN: c, Tuples: tuples, Score: score}, true
}
