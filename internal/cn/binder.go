package cn

import (
	"kwsearch/internal/cache"
	"kwsearch/internal/invindex"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
)

// Binder is the shared keyword-binding layer: it turns query terms into
// Bindings (the per-query R^Q sets, scores and join state the CN
// kernels evaluate over) from structures compiled once, in NewBinder, for the one
// snapshot it serves —
//
//   - per-term bindings: each vocabulary term's matching tuples and
//     TF·IDF weights, derived from its posting list (the Hristidis et
//     al. move: R^Q comes from a master index, never from scanning
//     relations);
//   - join indexes (JoinIndex: one CSR adjacency per directed schema
//     join), both directions of every foreign key.
//
// Each Bind merges the query's term bindings into a fresh Binding.
// Nothing is built, cached or locked after NewBinder returns, so a
// Binder is safe for concurrent use, and so is every Binding it returns.
type Binder struct {
	db    *relstore.DB
	ix    *invindex.Index
	terms map[string]termBinding
	joins map[JoinKey]*JoinIndex
}

// NewBinder compiles a binder over one database + index pair, which must
// not change afterwards: serving new data takes a new binder.
func NewBinder(db *relstore.DB, ix *invindex.Index) *Binder {
	return newBinder(db, ix, schemagraph.FromDB(db).Edges())
}

// newBinder compiles a binder whose join indexes cover both directions
// of the given edges: the schema's foreign keys for NewBinder, or the
// edges of a hand-built schema graph in the tests.
func newBinder(db *relstore.DB, ix *invindex.Index, edges []schemagraph.Edge) *Binder {
	vocab := ix.Terms()
	bd := &Binder{
		db:    db,
		ix:    ix,
		terms: make(map[string]termBinding, len(vocab)),
		joins: make(map[JoinKey]*JoinIndex, 2*len(edges)),
	}
	for _, term := range vocab {
		bd.terms[term] = buildTermBinding(db, ix, term)
	}
	for _, e := range edges {
		for _, k := range []JoinKey{
			{FromTable: e.From, FromCol: e.FromCol, ToTable: e.To, ToCol: e.ToCol},
			{FromTable: e.To, FromCol: e.ToCol, ToTable: e.From, ToCol: e.FromCol},
		} {
			bd.joins[k] = buildJoinIndex(db, k)
		}
	}
	return bd
}

// BindTraced builds the binding for a query's terms (normalized
// internally) by merging their compiled term bindings, and sets the
// matched_tuples attribute of sp (the caller's "bind" span; nil costs
// nothing).
func (bd *Binder) BindTraced(terms []string, sp *obs.Span) *Binding {
	return bindTerms(bd, NormalizeTerms(terms), sp)
}

// Stats, MergedStats and Builds read zero: the binder keeps no cache and
// builds nothing after NewBinder. The methods stay, with their
// signatures, because the repository benchmark (bench/) reads them.
func (bd *Binder) Stats() cache.Stats { return cache.Stats{} }

// MergedStats returns the zero cache.Stats (see Stats).
func (bd *Binder) MergedStats() cache.Stats { return cache.Stats{} }

// Builds returns 0 (see Stats).
func (bd *Binder) Builds() uint64 { return 0 }
