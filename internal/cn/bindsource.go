package cn

import (
	"context"

	"kwsearch/internal/relstore"
)

// BindSource is the binding layer an Evaluator consumes: everything the
// candidate-network machinery needs to know about how one query's
// keywords map onto the database. It decouples CN evaluation from how
// that mapping is produced — per-query full table scans (NewScanBinding,
// the reference implementation), a one-shot index-driven binding
// (NewEvaluator), or the shared generation-aware Binder that caches
// per-term bindings across queries.
//
// A BindSource is a snapshot: its keyword sets, scores and masks are
// fixed at construction and never change, even if the underlying index
// is invalidated afterwards — in-flight queries keep a consistent view.
// The lazy accessors (FreeSet, Join) may memoize on first use; Prewarm
// materializes everything the given CNs can touch and then seals the
// source, after which it is read-only and safe for concurrent use. This
// is the type-level form of the old "read-only after Prewarm"
// convention: post-seal accesses of unmaterialized state compute fresh
// values without writing, so a sealed source can never race.
type BindSource interface {
	// Terms returns the normalized query terms, in query order. The
	// slice is shared; callers must not mutate it.
	Terms() []string
	// KeywordTables returns the tables with a non-empty R^Q, sorted —
	// the input Enumerate (and the plan cache's membership signature)
	// needs.
	KeywordTables() []string
	// KeywordSet returns R^Q for a table: the tuples matching at least
	// one query term, in ascending tuple-ID order (which equals the
	// table's insertion order — relstore IDs are assigned monotonically).
	KeywordSet(table string) []*relstore.Tuple
	// FreeSet returns R^{} for a table: the tuples matching no query
	// term, in insertion order. May materialize lazily on first use.
	FreeSet(table string) []*relstore.Tuple
	// MaxNodeScore returns the best tuple score available in table's
	// R^Q (0 when the table has no matches) — the ingredient of the
	// pipelined strategies' score bounds.
	MaxNodeScore(table string) float64
	// TupleScore returns the IR score of one tuple for the query:
	// Σ TFIDF over the query terms, exactly 0 for tuples outside every
	// R^Q (a tuple matching no term has TF 0 for each of them).
	TupleScore(tp *relstore.Tuple) float64
	// TermMask returns the bitmask of query terms tuple id contains
	// (bit i set ⇔ the tuple matches Terms()[i]); 0 for free tuples.
	TermMask(id relstore.TupleID) uint32
	// KeywordBits returns the union of every R^Q as a bitset over tuple
	// IDs: Has(id) ⇔ TermMask(id) != 0. Shared; must not be mutated.
	KeywordBits() TupleSet
	// Join returns the index of one directed schema join. May
	// materialize lazily on first use; the index is shared and
	// immutable.
	Join(k JoinKey) *JoinIndex
	// Prewarm materializes every free set and join index the given CNs
	// can touch, then seals the source: afterwards it is read-only and
	// safe for concurrent evaluation. Cancellation returns ctx's error
	// with the source unsealed; the state built so far stays valid and
	// the next call resumes where this one stopped.
	Prewarm(ctx context.Context, cns []*CN) error
}
