package cn

import (
	"sync"

	"kwsearch/internal/cache"
	"kwsearch/internal/invindex"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
)

// BinderOptions configures a Binder.
type BinderOptions struct {
	// TermCacheSize bounds the per-term binding cache (entries; 0 = 1024).
	TermCacheSize int
	// CacheShards stripes the term cache (0 = 16).
	CacheShards int
	// Metrics, when non-nil, receives the binder's counters: the term
	// cache under "cache.bind.*" and the build counter as "bind.builds".
	Metrics *obs.Registry
}

func (o BinderOptions) withDefaults() BinderOptions {
	if o.TermCacheSize <= 0 {
		o.TermCacheSize = 1024
	}
	if o.CacheShards <= 0 {
		o.CacheShards = 16
	}
	return o
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
//     per query and handed to bindings by reference.
//
// Invalidate bumps the term cache's generation and drops the join
// indexes, so after index or data growth the next Bind sees fresh state
// while in-flight Bindings keep their consistent snapshot. A Binder is
// safe for concurrent use; the Bindings it returns follow the
// BindSource sealing contract.
type Binder struct {
	db     *relstore.DB
	ix     *invindex.Index
	terms  *cache.Cache[termBinding]
	merged *cache.Cache[*mergedBinding]
	builds *obs.Counter

	mu    sync.RWMutex
	joins map[JoinKey]*JoinIndex
}

// NewBinder builds a binder over one database + index pair. When
// opts.Metrics is set the binder instruments itself (see
// BinderOptions.Metrics); do not call Instrument again.
func NewBinder(db *relstore.DB, ix *invindex.Index, opts BinderOptions) *Binder {
	opts = opts.withDefaults()
	b := &Binder{
		db:     db,
		ix:     ix,
		terms:  cache.New[termBinding](opts.TermCacheSize, opts.CacheShards),
		merged: cache.New[*mergedBinding](opts.TermCacheSize, opts.CacheShards),
		builds: &obs.Counter{},
		joins:  make(map[JoinKey]*JoinIndex),
	}
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

// join returns the shared index of the directed join k, building it on
// first use. Concurrent first uses may build twice; the first writer
// wins so every caller observes one canonical index.
func (bd *Binder) join(k JoinKey) *JoinIndex {
	bd.mu.RLock()
	ji, ok := bd.joins[k]
	bd.mu.RUnlock()
	if ok {
		return ji
	}
	built := buildJoinIndex(bd.db, k)
	bd.mu.Lock()
	defer bd.mu.Unlock()
	if ji, ok := bd.joins[k]; ok {
		return ji
	}
	bd.joins[k] = built
	return built
}

// Invalidate flushes the binder after index or data growth: the term
// cache's generation is bumped (O(1); stale entries drop lazily) and the
// join indexes are rebuilt on next use. In-flight Bindings are
// unaffected — they hold their own references and stay internally
// consistent.
func (bd *Binder) Invalidate() {
	bd.terms.Invalidate()
	bd.merged.Invalidate()
	bd.mu.Lock()
	bd.joins = make(map[JoinKey]*JoinIndex)
	bd.mu.Unlock()
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
