package cn

import (
	"context"

	"kwsearch/internal/invindex"
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

// Evaluator executes candidate networks against a database. All binding
// state — the per-relation keyword sets R^Q, the keyword/free partition,
// term masks, tuple scores and join indexes — comes from its Binding,
// so the same evaluation machinery runs over an index-driven binding
// (NewEvaluator, or NewEvaluatorFrom over a shared Binder's) or the
// full-scan reference binding (NewScanEvaluator). A Binding is
// immutable, so one evaluator may be used from any number of goroutines
// at once.
type Evaluator struct {
	DB    *relstore.DB
	Index *invindex.Index
	Terms []string

	src *Binding
}

// NewEvaluator prepares an evaluator for the given query terms
// (normalized through the shared tokenizer) over a binder compiled for
// this call alone; callers with more than one query share a Binder and
// use NewEvaluatorFrom.
func NewEvaluator(db *relstore.DB, ix *invindex.Index, terms []string) *Evaluator {
	return NewEvaluatorFrom(db, ix, NewBinder(db, ix).BindTraced(terms, nil))
}

// NewScanEvaluator prepares an evaluator over the full-scan reference
// binding (NewScanBinding) — the oracle the index-driven paths are
// asserted byte-identical against.
func NewScanEvaluator(bd *Binder, terms []string) *Evaluator {
	return NewEvaluatorFrom(bd.db, bd.ix, NewScanBinding(bd, terms))
}

// NewEvaluatorFrom wraps an existing binding — the constructor
// exec.TopK and core.Engine use to consume the shared Binder.
func NewEvaluatorFrom(db *relstore.DB, ix *invindex.Index, src *Binding) *Evaluator {
	return &Evaluator{DB: db, Index: ix, Terms: src.Terms(), src: src}
}

// KeywordTables returns the tables with a non-empty R^Q, sorted — the input
// Enumerate needs.
func (ev *Evaluator) KeywordTables() []string { return ev.src.KeywordTables() }

// KeywordSet returns R^Q for a table.
func (ev *Evaluator) KeywordSet(table string) []*relstore.Tuple { return ev.src.KeywordSet(table) }

// TupleScore is the IR score of one tuple for the query (exactly 0 for
// tuples matching no term; see Binding.TupleScore).
func (ev *Evaluator) TupleScore(tp *relstore.Tuple) float64 { return ev.src.TupleScore(tp) }

// MaxNodeScore returns the best tuple score available in table's R^Q.
func (ev *Evaluator) MaxNodeScore(table string) float64 { return ev.src.MaxNodeScore(table) }

// rootSet returns the tuples a search of c starts from: R^Q of node 0,
// which enumeration always makes a keyword node (see prefix.go).
func (ev *Evaluator) rootSet(c *CN) []*relstore.Tuple {
	return ev.src.KeywordSet(c.Nodes[0].Table)
}

// allTermsMask is the bitmask with one bit per query term.
func (ev *Evaluator) allTermsMask() uint32 {
	return (uint32(1) << uint(len(ev.Terms))) - 1
}

// EvaluateCN produces every total and minimal joining tree of tuples for c:
// total = the bound tuples jointly contain every query term; minimal =
// removing any leaf tuple breaks coverage (the MTJNT semantics of
// DISCOVER). A context that ends mid-search abandons it: the error is
// ctx's and no results are returned.
func (ev *Evaluator) EvaluateCN(ctx context.Context, c *CN) ([]Result, error) {
	rs, _, err := ev.evaluate(ctx, c, 0, ev.rootSet(c))
	return rs, err
}

// EvaluateRoots produces the results of c whose node-0 tuple is one of
// [lo, hi) of c's root set (hi is clamped to RootCount(c)) — the
// exec pool's unit of work. The search visits roots in set order and
// keeps no state between them, so ranges that tile [0, RootCount(c))
// produce, laid end to end in range order, exactly EvaluateCN's results
// in EvaluateCN's order. The pool sums the returned Work per job.
func (ev *Evaluator) EvaluateRoots(ctx context.Context, c *CN, lo, hi int) ([]Result, Work, error) {
	set := ev.rootSet(c)
	return ev.evaluate(ctx, c, 0, set[min(lo, len(set)):min(hi, len(set))])
}

// EvaluateCNWith produces the results of c in which CN node driverIdx is
// bound to the given tuple — the global pipeline's primitive.
func (ev *Evaluator) EvaluateCNWith(c *CN, driverIdx int, tp *relstore.Tuple) []Result {
	rs, _, _ := ev.evaluate(context.Background(), c, driverIdx, []*relstore.Tuple{tp}) // Background never ends: no error
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
	ev     *Evaluator
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
func (ev *Evaluator) evaluate(ctx context.Context, c *CN, start int, roots []*relstore.Tuple) ([]Result, Work, error) {
	if err := ctx.Err(); err != nil {
		return nil, Work{}, err
	}
	n := len(c.Nodes)
	s := search{
		ev: ev, c: c, kw: ev.src.KeywordBits(),
		row: openRow(n), masks: make([]uint32, n),
		ctx: ctx, pollAt: pollEvery,
	}
	s.order = c.program().search[start]
	s.joins = make([]*JoinIndex, len(s.order))
	for oi := 1; oi < len(s.order); oi++ {
		s.joins[oi] = ev.src.Join(s.order[oi].join)
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
		if r, ok := s.ev.finishRow(s.c, s.row, s.kw, s.masks); ok {
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
// them. kw is the source's keyword bitset and masks a scratch slice of
// len(row), both hoisted out of the callers' row loops.
func (ev *Evaluator) finishRow(c *CN, row []relstore.TupleID, kw TupleSet, masks []uint32) (Result, bool) {
	all := ev.allTermsMask()
	var cover uint32
	for i, id := range row {
		masks[i] = 0
		if kw.Has(id) { // free tuples have mask 0 without a probe
			masks[i] = ev.src.TermMask(id)
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
		tuples[i] = ev.DB.TupleByID(id)
		// A free tuple scores an exact 0.0, and x+0.0 == x bit for bit
		// for these non-negative sums, so skipping it changes nothing.
		if kw.Has(id) {
			score += ev.src.TupleScore(tuples[i])
		}
	}
	score /= float64(len(c.Nodes))
	return Result{CN: c, Tuples: tuples, Score: score}, true
}
