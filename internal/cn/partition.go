package cn

import "kwsearch/internal/relstore"

// Partition is a predicate over owner tuples: it decides which slice of
// the result space an Evaluator produces. A result's owner is the tuple
// bound to its CN's node 0 — always a keyword node, because enumeration
// seeds every CN with a single keyword node and grows it by attaching
// (see EnumerateCtx), so ownership is defined for every result under
// every semantics-preserving evaluation order. Each result has exactly
// one owner, which gives partitions their load-bearing property: a
// family of Partitions that tiles the tuple-ID space tiles the result
// space — the per-partition result sets are pairwise disjoint and their
// union is exactly the unpartitioned result set, with bit-identical
// scores (the score of a result does not depend on the partition). The
// sharding coordinator (internal/shard) builds on exactly this to run
// one logical query as N disjoint shard queries.
type Partition func(relstore.TupleID) bool

// Restrict returns a copy of ev that produces only the results whose
// owner tuple (the binding of CN node 0) satisfies keep. A nil keep
// returns ev unchanged. The restricted evaluator shares all binding
// state with ev — the filter applies at the node-0 candidate sets of
// every evaluation path (EvaluateCN, EvaluatePrefix, the pipelined
// top-k), never to join candidates of other nodes, so non-owner nodes
// still range over the full store and restricted results are
// byte-identical to the matching subset of the unrestricted ones.
func (ev *Evaluator) Restrict(keep Partition) *Evaluator {
	if keep == nil {
		return ev
	}
	cp := *ev
	cp.keep = keep
	return &cp
}

// Partitioned reports whether a Restrict partition is installed.
func (ev *Evaluator) Partitioned() bool { return ev.keep != nil }

// filterOwned returns the subset of tps the partition owns; without a
// partition it returns tps unchanged (no copy — callers must not
// mutate the returned slice either way).
func (ev *Evaluator) filterOwned(tps []*relstore.Tuple) []*relstore.Tuple {
	if ev.keep == nil {
		return tps
	}
	out := make([]*relstore.Tuple, 0, len(tps))
	for _, tp := range tps {
		if ev.keep(tp.ID) {
			out = append(out, tp)
		}
	}
	return out
}
