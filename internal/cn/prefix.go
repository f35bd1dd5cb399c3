package cn

import (
	"context"

	"kwsearch/internal/relstore"
)

// Construction-order prefixes: the enumerator grows every CN by
// attaching node j to an earlier node via edge j-1, so the first n nodes
// of a CN always form a connected sub-tree, and node 0 is always a
// keyword node, because enumeration seeds every CN with one and grows it
// by attaching (see EnumerateCtx). The served kernel is the depth-first
// search of evaluate.go, which starts from node 0's tuple set — the
// root set — so a root range is a unit of work; the level-wise
// EvaluateLevels below follows the growth order instead and is kept as
// the reference the depth-first search is checked against.

// pollEvery is how much join work (parent rows plus candidates scanned)
// a row loop or a search does between two looks at its context: a few
// thousand rows, so a deadline lands inside a CN of any size within
// microseconds of work, and ctx.Err's lock is paid once per slice.
const pollEvery = 4096

// RootCount returns the size of c's root set: the tuple set of node 0.
func (b *Binding) RootCount(c *CN) int { return len(b.rootSet(c)) }

// EvaluateLevels is EvaluateCN by the other traversal: every
// join-consistent binding of c's first n nodes, for n = 1, 2, … in
// growth order, held as one flat level of tuple IDs (row i is
// ids[i*w:(i+1)*w], node j's tuple at offset j), then the complete level
// filtered through totality and minimality. It produces exactly
// EvaluateCN's result set, in another order (SortResults normalizes),
// but holds every partial binding of a level at once, so nothing served
// calls it: it is the reference side of exec.TopKSerial and of the
// kernel tests. A context that ends inside a level abandons it: the
// error is ctx's and no results are returned.
func (b *Binding) EvaluateLevels(ctx context.Context, c *CN) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	set := b.rootSet(c)
	ids := make([]relstore.TupleID, len(set))
	for i, tp := range set {
		ids[i] = tp.ID
	}
	w := 1
	for _, st := range c.program().grow {
		if len(ids) == 0 {
			return nil, nil
		}
		var err error
		if ids, err = extendLevel(ctx, ids, w, st, b.join(st.join), b.kw); err != nil {
			return nil, err
		}
		w++
	}
	masks := make([]uint32, w)
	var out []Result
	for lo := 0; lo < len(ids); lo += w {
		if (lo/w)%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if r, ok := b.finishRow(c, ids[lo:lo+w], masks); ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// extendLevel grows every row of a level of width w by one node: st's
// join followed from the row's parent tuple, filtered by the
// keyword/free partition (keyword nodes take matching tuples, free nodes
// the complement — the DISCOVER partition keeps CN result sets
// disjoint). Rows never repeat a tuple (the joining-tree constraint).
func extendLevel(ctx context.Context, prior []relstore.TupleID, w int, st step, ji *JoinIndex, kw TupleSet) ([]relstore.TupleID, error) {
	// Room for one extension per row: most joins here fan out around
	// one, and a fan-out of zero wastes only untouched capacity.
	next := make([]relstore.TupleID, 0, len(prior)+len(prior)/w)
	budget := 0
	for lo := 0; lo < len(prior); lo += w {
		row := prior[lo : lo+w]
		cands := ji.Targets(row[st.parent])
		if budget -= len(cands) + 1; budget < 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
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
	return next, nil
}
