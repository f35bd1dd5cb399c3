package cn

import (
	"kwsearch/internal/cache"
	"kwsearch/internal/invindex"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
)

// The binder's term cache holds bindCacheSize entries over
// bindCacheShards lock stripes.
const (
	bindCacheSize   = 1024
	bindCacheShards = 16
)

// BinderOptions configures a Binder.
type BinderOptions struct {
	// Metrics, when non-nil, receives the binder's counters: the term
	// cache under "cache.bind.*" and the build counter as "bind.builds".
	Metrics *obs.Registry
}

// Binder is the shared keyword-binding layer: it turns query terms into
// Bindings (the per-query R^Q sets, scores and join state an Evaluator
// consumes) while caching the expensive parts across queries —
//
//   - per-term bindings: each term's matching tuples and TF·IDF
//     weights, derived from its posting list in O(postings) and reused
//     by every later query containing the term (the Hristidis-et-al.
//     VLDB'03 move: R^Q comes from the inverted index, never from
//     scanning relations);
//   - join indexes (JoinIndex: one CSR adjacency per directed schema
//     join), built on first use once per binder instead of once per
//     query: every binding it makes shares its one joinTable.
//
// Each Bind merges the query's cached term bindings into a fresh
// Binding; nothing per whole query is retained. A Binder is safe for
// concurrent use, and so is every Binding it returns.
type Binder struct {
	db     *relstore.DB
	ix     *invindex.Index
	terms  *cache.Cache[termBinding]
	joins  *joinTable
	builds *obs.Counter
}

// NewBinder builds a binder over one database + index pair, which must
// not change afterwards: cached term bindings and join indexes are
// never recomputed, so serving new data takes a new binder. When
// opts.Metrics is set the binder's counters are registered there (see
// BinderOptions.Metrics).
func NewBinder(db *relstore.DB, ix *invindex.Index, opts BinderOptions) *Binder {
	b := &Binder{
		db:     db,
		ix:     ix,
		terms:  cache.New[termBinding](bindCacheSize, bindCacheShards),
		joins:  newJoinTable(db),
		builds: &obs.Counter{},
	}
	if opts.Metrics != nil {
		b.terms.Instrument(opts.Metrics, "cache.bind")
		b.builds = opts.Metrics.Attach("bind.builds", b.builds)
	}
	return b
}

// BindTraced builds the binding for a query's terms (normalized
// internally), serving each term's binding from the cache when present.
// The work is recorded as child spans of sp (the caller's "bind" span):
// "postings" covers the per-term cache probes and
// posting-list walks (attrs terms/cached_terms/built_terms), and
// "materialize" the merge into per-table R^Q sets and max-scores (attrs
// matched_tuples/keyword_tables). A nil sp costs nothing.
func (bd *Binder) BindTraced(terms []string, sp *obs.Span) *Binding {
	return bindTerms(bd.db, bd.ix, NormalizeTerms(terms), bd, sp)
}

// Stats returns the term cache's counters.
func (bd *Binder) Stats() cache.Stats { return bd.terms.Stats() }

// MergedStats returns the zero cache.Stats: the binder keeps no
// whole-query cache, every Bind merges from the term cache. The method
// stays, with its signature, because the repository benchmark (bench/)
// reads it.
func (bd *Binder) MergedStats() cache.Stats { return cache.Stats{} }

// Builds returns the lifetime count of term bindings built (cache
// misses that did the posting-list walk).
func (bd *Binder) Builds() uint64 { return bd.builds.Value() }
