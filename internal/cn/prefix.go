package cn

import (
	"context"

	"kwsearch/internal/relstore"
)

// Prefix evaluation: the enumerator grows every CN by attaching node j to
// an earlier node via edge j-1, so the first n nodes of a CN always form
// a connected sub-tree — the "construction-order prefix". The
// internal/exec worker pool materializes these prefixes once per
// goroutine and root range and extends them level by level, which is how
// CNs sharing a prefix (slide 132's shared execution graph) actually
// reuse each other's work at evaluation time. Node 0 is always a keyword
// node, because enumeration seeds every CN with one and grows it by
// attaching (see EnumerateCtx).

// PrefixKey identifies the construction-order prefix of c's first n
// nodes: node specs and attaching edges in growth order. Unlike
// Canonical (which is isomorphism-invariant), PrefixKey is
// position-sensitive — two CNs share a PrefixKey only when their first n
// nodes are bound in the same order, which is exactly the condition for
// reusing position-indexed binding slices between them. (Canonical
// prefixes can match across mirrored growth orders, where reusing
// bindings would misalign tuples and tables.)
func (c *CN) PrefixKey(n int) string {
	if n <= 0 || n > len(c.Nodes) {
		return ""
	}
	return c.program().prefix[n]
}

// Rows is one materialized prefix level: every join-consistent partial
// binding of a CN's first Width nodes, laid end to end in one flat
// pointer-free slice — row i is IDs[i*Width:(i+1)*Width], with CN node
// j's tuple at offset j. A level costs a handful of allocations however
// many rows it holds, and nothing in it is a pointer the collector has
// to trace. The zero Rows is "no level yet"; a level with Width > 0 and
// no IDs is a prefix that joins to nothing.
type Rows struct {
	Width int
	IDs   []relstore.TupleID
}

// Len returns the number of rows.
func (r Rows) Len() int {
	if r.Width == 0 {
		return 0
	}
	return len(r.IDs) / r.Width
}

// Row returns row i. The slice aliases the level; do not mutate it.
func (r Rows) Row(i int) []relstore.TupleID {
	return r.IDs[i*r.Width : (i+1)*r.Width : (i+1)*r.Width]
}

// pollEvery is how much join work (parent rows plus candidates scanned)
// a row loop does between two looks at its context: a few thousand
// rows, so a deadline lands inside a level of any size within
// microseconds of work, and ctx.Err's lock is paid once per slice.
const pollEvery = 4096

// RootCount returns the size of c's root set: the tuple set of node 0.
func (ev *Evaluator) RootCount(c *CN) int { return len(ev.rootSet(c)) }

// Roots returns rows [lo, hi) of c's first level, one root-set tuple per
// row in set order (hi is clamped to the set). Every row EvaluatePrefix
// grows descends from exactly one root and levels keep their parents'
// order, so ranges that tile [0, RootCount(c)) extend independently and
// their levels, laid end to end in range order, are the unsplit level.
func (ev *Evaluator) Roots(c *CN, lo, hi int) Rows {
	set := ev.rootSet(c)
	hi = min(hi, len(set))
	rows := Rows{Width: 1}
	if lo < hi {
		rows.IDs = make([]relstore.TupleID, hi-lo)
		for i, tp := range set[lo:hi] {
			rows.IDs[i] = tp.ID
		}
	}
	return rows
}

// EvaluatePrefix returns every join-consistent partial binding of the
// first n nodes of c, extending prior (the level over the first
// prior.Width nodes; the zero Rows means start from all of Roots). Rows never
// repeat a tuple (the joining-tree constraint), and they come in the
// order of prior with each row's extensions in the target table's
// insertion order — the order the row-at-a-time evaluator always
// produced, which is why answers stay byte-identical. A context that
// ends inside a level abandons it: the error is ctx's and no rows are
// returned.
func (ev *Evaluator) EvaluatePrefix(ctx context.Context, c *CN, prior Rows, n int) (Rows, error) {
	if n <= 0 || n > len(c.Nodes) {
		return Rows{}, nil
	}
	if prior.Width >= n {
		return prior, nil
	}
	rows := prior
	if rows.Width == 0 {
		rows = ev.Roots(c, 0, ev.RootCount(c))
	}
	kw := ev.src.KeywordBits()
	for _, st := range c.program().grow[rows.Width-1 : n-1] {
		if len(rows.IDs) == 0 {
			return Rows{Width: n}, nil
		}
		var err error
		if rows, err = extendRows(ctx, rows, st, ev.src.Join(st.join), kw); err != nil {
			return Rows{}, err
		}
	}
	return rows, nil
}

// extendRows grows every row of prior by one node: st's join followed
// from the row's parent tuple, filtered by the keyword/free partition
// (keyword nodes take matching tuples, free nodes the complement — the
// DISCOVER partition keeps CN result sets disjoint).
func extendRows(ctx context.Context, prior Rows, st step, ji *JoinIndex, kw TupleSet) (Rows, error) {
	w := prior.Width
	// Room for one extension per row: most joins here fan out around
	// one, and a fan-out of zero wastes only untouched capacity.
	next := make([]relstore.TupleID, 0, len(prior.IDs)+len(prior.IDs)/w)
	budget := 0
	for lo := 0; lo < len(prior.IDs); lo += w {
		row := prior.IDs[lo : lo+w]
		cands := ji.Targets(row[st.parent])
		if budget -= len(cands) + 1; budget < 0 {
			if err := ctx.Err(); err != nil {
				return Rows{}, err
			}
			budget = pollEvery
		}
		for _, cand := range cands {
			if kw.Has(cand) == st.free || containsID(row, cand) {
				continue
			}
			next = append(append(next, row...), cand)
		}
	}
	return Rows{Width: w + 1, IDs: next}, nil
}

// BindingResults filters a complete level of c (Width == len(c.Nodes),
// as produced by EvaluatePrefix) through the totality and minimality
// checks and scores the survivors — the finishing step EvaluateCN applies
// to its own search tree. EvaluatePrefix + BindingResults produce exactly
// EvaluateCN's result set (possibly in a different order; SortResults
// normalizes). Only surviving rows are turned into tuples. A context
// that ends inside the loop abandons it with ctx's error.
func (ev *Evaluator) BindingResults(ctx context.Context, c *CN, rows Rows) ([]Result, error) {
	if rows.Width != len(c.Nodes) {
		return nil, nil
	}
	kw := ev.src.KeywordBits()
	masks := make([]uint32, rows.Width)
	var out []Result
	for i, n := 0, rows.Len(); i < n; i++ {
		if i%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if r, ok := ev.finishRow(c, rows.Row(i), kw, masks); ok {
			out = append(out, r)
		}
	}
	return out, nil
}
