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
// state — the per-relation keyword (R^Q) and free (R^{}) tuple sets,
// term masks, tuple scores and join-column lookups — comes from its
// BindSource, so the same evaluation machinery runs over a one-shot
// index-driven binding (NewEvaluator), the full-scan reference binding
// (NewScanEvaluator) or a Binding served by the shared generation-aware
// Binder (NewEvaluatorFrom).
type Evaluator struct {
	DB    *relstore.DB
	Index *invindex.Index
	Terms []string

	src BindSource
	// keep, when non-nil, restricts EvaluatePrefix to bindings whose owner
	// tuple (CN node 0's binding) it admits; see Restrict in partition.go.
	keep Partition
}

// NewEvaluator prepares an evaluator for the given query terms
// (normalized through the shared tokenizer), binding them through the
// index in O(matched tuples) without a shared cache.
func NewEvaluator(db *relstore.DB, ix *invindex.Index, terms []string) *Evaluator {
	return NewEvaluatorFrom(db, ix, bindTerms(db, ix, normalizeTerms(terms), nil, nil))
}

// NewScanEvaluator prepares an evaluator over the full-scan reference
// binding (NewScanBinding) — the oracle the index-driven paths are
// asserted byte-identical against.
func NewScanEvaluator(db *relstore.DB, ix *invindex.Index, terms []string) *Evaluator {
	return NewEvaluatorFrom(db, ix, NewScanBinding(db, ix, terms))
}

// NewEvaluatorFrom wraps an existing binding source — the constructor
// exec.TopK and core.Engine use to consume the shared Binder.
func NewEvaluatorFrom(db *relstore.DB, ix *invindex.Index, src BindSource) *Evaluator {
	return &Evaluator{DB: db, Index: ix, Terms: src.Terms(), src: src}
}

// Source returns the evaluator's binding source.
func (ev *Evaluator) Source() BindSource { return ev.src }

// KeywordTables returns the tables with a non-empty R^Q, sorted — the input
// Enumerate needs.
func (ev *Evaluator) KeywordTables() []string { return ev.src.KeywordTables() }

// KeywordSet returns R^Q for a table.
func (ev *Evaluator) KeywordSet(table string) []*relstore.Tuple { return ev.src.KeywordSet(table) }

// FreeSet returns R^{} (tuples matching no query term) for a table.
func (ev *Evaluator) FreeSet(table string) []*relstore.Tuple { return ev.src.FreeSet(table) }

// TupleScore is the IR score of one tuple for the query (exactly 0 for
// tuples matching no term; see Binding.TupleScore).
func (ev *Evaluator) TupleScore(tp *relstore.Tuple) float64 { return ev.src.TupleScore(tp) }

// MaxNodeScore returns the best tuple score available in table's R^Q.
func (ev *Evaluator) MaxNodeScore(table string) float64 { return ev.src.MaxNodeScore(table) }

// PrewarmCtx materializes the join lookup tables and free sets the given
// CNs will touch and seals the binding source, making subsequent
// EvaluateCN calls read-only — required before evaluating from multiple
// goroutines (exec.TopK and the parallel package do this). Cancellation
// is checked between CNs: a cancelled prewarm returns ctx's error and
// the state built so far stays valid (the next call resumes where this
// one stopped).
func (ev *Evaluator) PrewarmCtx(ctx context.Context, cns []*CN) error {
	return ev.src.Prewarm(ctx, cns)
}

// nodeSet returns the tuple set (keyword or free) for CN node n.
func (ev *Evaluator) nodeSet(n NodeSpec) []*relstore.Tuple {
	if n.Free {
		return ev.src.FreeSet(n.Table)
	}
	return ev.src.KeywordSet(n.Table)
}

// joinCandidates returns the tuples of CN node `to` that join with tuple tp
// bound to node `from` via edge e.
func (ev *Evaluator) joinCandidates(c *CN, e EdgeSpec, from int, tp *relstore.Tuple) []*relstore.Tuple {
	to := e.A
	if to == from {
		to = e.B
	}
	toSpec := c.Nodes[to]
	fromTable := ev.DB.Table(c.Nodes[from].Table)

	var fromCol, toCol string
	if e.Via.From == c.Nodes[from].Table && (e.Via.To == toSpec.Table) {
		fromCol, toCol = e.Via.FromCol, e.Via.ToCol
	} else {
		fromCol, toCol = e.Via.ToCol, e.Via.FromCol
	}
	// Self-referencing edges (cite) need orientation by node position: the
	// node attached later is always EdgeSpec.B, and Via is stored from the
	// perspective of growing A->B; when from==e.B the roles reverse.
	if e.Via.From == e.Via.To {
		if from == e.A {
			fromCol, toCol = e.Via.FromCol, e.Via.ToCol
		} else {
			fromCol, toCol = e.Via.ToCol, e.Via.FromCol
		}
	}

	v := fromTable.Value(tp, fromCol)
	if v.IsNull() {
		return nil
	}
	cands := ev.src.Lookup(toSpec.Table, toCol)[v]
	if len(cands) == 0 {
		return nil
	}
	// Filter by membership in the node's tuple set: keyword nodes take
	// matching tuples, free nodes take the complement (the DISCOVER
	// partition keeps CN result sets disjoint).
	var out []*relstore.Tuple
	for _, cand := range cands {
		inKW := ev.src.TermMask(cand.ID) != 0
		if inKW != toSpec.Free {
			out = append(out, cand)
		}
	}
	return out
}

// allTermsMask is the bitmask with one bit per query term.
func (ev *Evaluator) allTermsMask() uint32 {
	return (uint32(1) << uint(len(ev.Terms))) - 1
}

// EvaluateCN produces every total and minimal joining tree of tuples for c:
// total = the bound tuples jointly contain every query term; minimal =
// removing any leaf tuple breaks coverage (the MTJNT semantics of
// DISCOVER).
func (ev *Evaluator) EvaluateCN(c *CN) []Result {
	return ev.evaluateFiltered(c, nil)
}

// EvaluateCNWith produces the results of c in which CN node driverIdx is
// bound to the given tuple — the primitive the pipelined top-k strategies
// use.
func (ev *Evaluator) EvaluateCNWith(c *CN, driverIdx int, tp *relstore.Tuple) []Result {
	return ev.EvaluateCNBound(c, map[int]*relstore.Tuple{driverIdx: tp})
}

// EvaluateCNBound produces the results of c under the given fixed node
// bindings (node index -> tuple). SPARK's probe step fixes every keyword
// node and asks whether connecting free tuples exist.
func (ev *Evaluator) EvaluateCNBound(c *CN, fixed map[int]*relstore.Tuple) []Result {
	return ev.evaluateFiltered(c, fixed)
}

func (ev *Evaluator) evaluateFiltered(c *CN, fixed map[int]*relstore.Tuple) []Result {
	if len(c.Nodes) == 0 {
		return nil
	}
	start := 0
	for n := range fixed {
		start = n
		break
	}
	// Order nodes BFS from start so each subsequent node joins an
	// already-bound one.
	adj := c.adjacency()
	order := []int{start}
	via := map[int]EdgeSpec{}
	parent := map[int]int{start: -1}
	for qi := 0; qi < len(order); qi++ {
		n := order[qi]
		for _, ei := range adj[n] {
			e := c.Edges[ei]
			other := e.A
			if other == n {
				other = e.B
			}
			if _, seen := parent[other]; seen {
				continue
			}
			parent[other] = n
			via[other] = e
			order = append(order, other)
		}
	}

	binding := make([]*relstore.Tuple, len(c.Nodes))
	var out []Result
	var rec func(oi int)
	rec = func(oi int) {
		if oi == len(order) {
			if r, ok := ev.finishRow(c, binding); ok {
				out = append(out, r)
			}
			return
		}
		node := order[oi]
		var cands []*relstore.Tuple
		if oi == 0 {
			if tp, ok := fixed[node]; ok {
				cands = []*relstore.Tuple{tp}
			} else {
				cands = ev.nodeSet(c.Nodes[node])
			}
		} else {
			cands = ev.joinCandidates(c, via[node], parent[node], binding[parent[node]])
			if want, ok := fixed[node]; ok {
				var kept []*relstore.Tuple
				for _, tp := range cands {
					if tp.ID == want.ID {
						kept = append(kept, tp)
					}
				}
				cands = kept
			}
		}
		for _, tp := range cands {
			if containsTuple(binding, tp) {
				continue // a tuple may appear once per result tree
			}
			binding[node] = tp
			rec(oi + 1)
			binding[node] = nil
		}
	}
	rec(0)
	return out
}

func containsTuple(binding []*relstore.Tuple, tp *relstore.Tuple) bool {
	for _, b := range binding {
		if b != nil && b.ID == tp.ID {
			return true
		}
	}
	return false
}

// finishRow checks totality (all terms covered) and minimality (every leaf
// contributes a needed term), then scores the row.
func (ev *Evaluator) finishRow(c *CN, binding []*relstore.Tuple) (Result, bool) {
	all := ev.allTermsMask()
	var cover uint32
	for _, tp := range binding {
		cover |= ev.src.TermMask(tp.ID)
	}
	if cover != all {
		return Result{}, false
	}
	// Minimality: dropping any keyword leaf must lose some term.
	for _, li := range c.leaves() {
		if len(c.Nodes) == 1 {
			break
		}
		var rest uint32
		for i, tp := range binding {
			if i == li {
				continue
			}
			rest |= ev.src.TermMask(tp.ID)
		}
		if rest == all {
			return Result{}, false
		}
	}
	score := 0.0
	for _, tp := range binding {
		score += ev.src.TupleScore(tp)
	}
	score /= float64(len(c.Nodes))
	tuples := make([]*relstore.Tuple, len(binding))
	copy(tuples, binding)
	return Result{CN: c, Tuples: tuples, Score: score}, true
}
