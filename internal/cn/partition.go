package cn

import "kwsearch/internal/relstore"

// Partition is a predicate over owner tuples: it decides which slice of
// the result space an Evaluator produces. A result's owner is the tuple
// bound to its CN's node 0 — always a keyword node, because enumeration
// seeds every CN with a single keyword node and grows it by attaching
// (see EnumerateCtx). Each result has exactly one owner, which gives
// partitions their load-bearing property: a family of Partitions that
// tiles the tuple-ID space tiles the result space — the per-partition
// result sets are pairwise disjoint and their union is exactly the
// unpartitioned result set, with bit-identical scores (the score of a
// result does not depend on the partition). The exec worker pool splits
// one CN job into N such slices (exec.Query.Shards).
type Partition func(relstore.TupleID) bool

// ownerOf maps a tuple ID to its owning slice among n via FNV-1a over
// the ID's four little-endian bytes. FNV keeps the assignment stable
// across runs and platforms while decorrelating it from insertion
// order, which sequential IDs modulo n would not.
func ownerOf(id relstore.TupleID, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	v := uint32(id)
	for i := 0; i < 4; i++ {
		h ^= (v >> (8 * uint(i))) & 0xff
		h *= prime32
	}
	return int(h % uint32(n))
}

// OwnerSlice returns the partition predicate of slice s among n: it
// admits the tuple IDs ownerOf assigns to s, so the n slices tile the
// tuple-ID space. One slice means no restriction (nil).
func OwnerSlice(s, n int) Partition {
	if n <= 1 {
		return nil
	}
	return func(id relstore.TupleID) bool { return ownerOf(id, n) == s }
}

// Restrict returns a copy of ev whose EvaluatePrefix produces only the
// rows whose owner tuple (the binding of CN node 0) satisfies keep.
// A nil keep returns ev unchanged. The restricted evaluator shares all
// binding state with ev — the filter applies at the node-0 candidate
// set, never to join candidates of other nodes, so non-owner nodes
// still range over the full store and restricted results are
// byte-identical to the matching subset of the unrestricted ones. The
// other evaluation entry points (EvaluateCN, the pipelined top-k)
// ignore the restriction: only the exec pool slices, and it evaluates
// through EvaluatePrefix alone.
func (ev *Evaluator) Restrict(keep Partition) *Evaluator {
	if keep == nil {
		return ev
	}
	cp := *ev
	cp.keep = keep
	return &cp
}
