package cn

import (
	"sync/atomic"

	"kwsearch/internal/cache"
	"kwsearch/internal/invindex"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
)

// The binder's two caches (per term, per whole query) each hold
// bindCacheSize entries over bindCacheShards lock stripes.
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

// Binder is the shared, generation-aware keyword-binding layer: it turns
// query terms into Bindings (the per-query R^Q sets, scores and join
// state an Evaluator consumes) while caching the expensive parts across
// queries —
//
//   - per-(term, generation) bindings: each term's matching tuples and
//     TF·IDF weights, derived from its posting list in O(postings) and
//     reused by every later query containing the term (the
//     Hristidis-et-al. VLDB'03 move: R^Q comes from the inverted index,
//     never from scanning relations);
//   - per-(query terms, generation) merged products: the R^Q sets, term
//     masks, scores and max-scores of a whole query, so a repeated
//     query skips even the merge and ID sort;
//   - join indexes (JoinIndex: one CSR adjacency per directed schema
//     join), built on first use once per generation instead of once
//     per query: every binding of a generation shares one joinTable.
//
// Invalidate bumps the caches' generations and starts an empty join
// table, so after index or data growth the next Bind sees fresh state
// while in-flight Bindings keep their consistent snapshot. A Binder is
// safe for concurrent use, and so is every Binding it returns.
type Binder struct {
	db     *relstore.DB
	ix     *invindex.Index
	terms  *cache.Cache[termBinding]
	merged *cache.Cache[*mergedBinding]
	joins  atomic.Pointer[joinTable]
	builds *obs.Counter
}

// NewBinder builds a binder over one database + index pair. When
// opts.Metrics is set the binder instruments itself (see
// BinderOptions.Metrics); do not call Instrument again.
func NewBinder(db *relstore.DB, ix *invindex.Index, opts BinderOptions) *Binder {
	b := &Binder{
		db:     db,
		ix:     ix,
		terms:  cache.New[termBinding](bindCacheSize, bindCacheShards),
		merged: cache.New[*mergedBinding](bindCacheSize, bindCacheShards),
		builds: &obs.Counter{},
	}
	b.joins.Store(newJoinTable(db))
	if opts.Metrics != nil {
		b.Instrument(opts.Metrics)
	}
	return b
}

// Instrument surfaces the binder's counters in reg: the term cache as
// "cache.bind.*", the merged whole-query cache as "cache.bindq.*" and
// the term-binding build counter as "bind.builds". Call once, before
// concurrent use (NewBinder does, when BinderOptions.Metrics is set).
func (bd *Binder) Instrument(reg *obs.Registry) {
	bd.terms.Instrument(reg, "cache.bind")
	bd.merged.Instrument(reg, "cache.bindq")
	bd.builds = reg.Attach("bind.builds", bd.builds)
}

// BindTraced builds the binding for a query's terms (normalized
// internally), serving per-term work from the cache where current. The
// work is recorded as child spans of sp (the caller's "bind" span):
// "postings" covers the per-term cache probes and
// posting-list walks (attrs terms/cached_terms/built_terms), and
// "materialize" the merge into per-table R^Q sets and max-scores (attrs
// matched_tuples/keyword_tables). A nil sp costs nothing.
func (bd *Binder) BindTraced(terms []string, sp *obs.Span) *Binding {
	return bindTerms(bd.db, bd.ix, normalizeTerms(terms), bd, sp)
}

// Invalidate flushes the binder after index or data growth: later binds
// get an empty join table (indexes are rebuilt on first use) and the
// caches' generations are bumped (O(1); stale entries drop lazily).
// In-flight Bindings are unaffected — they hold their own references,
// the old join table included, and stay internally consistent.
func (bd *Binder) Invalidate() {
	bd.joins.Store(newJoinTable(bd.db))
	bd.terms.Invalidate()
	bd.merged.Invalidate()
}

// Stats returns the term cache's counters.
func (bd *Binder) Stats() cache.Stats { return bd.terms.Stats() }

// MergedStats returns the whole-query merged-binding cache's counters.
func (bd *Binder) MergedStats() cache.Stats { return bd.merged.Stats() }

// Builds returns the lifetime count of term bindings built (cache
// misses that did the posting-list walk).
func (bd *Binder) Builds() uint64 { return bd.builds.Value() }

// Gen returns the term cache's current generation (see cache.Gen).
func (bd *Binder) Gen() uint64 { return bd.terms.Gen() }
