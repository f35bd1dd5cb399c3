// Package plan is the candidate-network plan cache between the engine
// façade (internal/core, internal/exec) and CN enumeration
// (internal/cn): the DISCOVER-style breadth-first generation depends
// only on the schema graph and on *which* relations hold keyword
// matches, never on the keyword values themselves, so it is a pure
// plan-compilation step — Mragyati (Sarda & Jain) treats it as
// query-to-SQL translation and EMBANKS as a precomputable structure,
// and both argue for compiling once and reusing.
//
// A compiled plan is keyed by (schema-graph fingerprint,
// keyword→relation membership signature, MaxSize, term count)
// and stored in the LRU of internal/cache: warm queries skip
// enumeration entirely, and since the fingerprint is part of the key a
// changed schema can never be served another schema's plan. Cold
// signatures are compiled by cn.EnumerateCtx.
package plan

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"time"

	"kwsearch/internal/cache"
	"kwsearch/internal/cn"
	"kwsearch/internal/obs"
	"kwsearch/internal/schemagraph"
)

// A plan cache holds cacheSize plans.
const cacheSize = 128

// Options configures a plan cache. The zero value is a working
// configuration.
type Options struct {
	// Metrics, when non-nil, receives the cache counters under "plan.*"
	// (hits, misses, evictions, builds) and the cold-path build
	// time histogram "plan.build_us".
	Metrics *obs.Registry
}

// PlanSet is one compiled candidate-network set. It is immutable and
// share-safe: the same *PlanSet is handed to every query that hits its
// key, possibly on many goroutines at once, so neither the slice nor
// the CNs it points to may be mutated — evaluation layers treat CNs as
// read-only, which is exactly the contract (internal/exec queues and
// joins against them without writing).
type PlanSet struct {
	cns []*cn.CN
	key string
}

// CNs returns the compiled candidate networks in enumeration order
// (nondecreasing size, deterministic within a size). The slice is the
// cache's own: callers must not append to, reorder or mutate it.
func (p *PlanSet) CNs() []*cn.CN { return p.cns }

// Len returns the number of candidate networks in the plan.
func (p *PlanSet) Len() int { return len(p.cns) }

// Key returns the cache key the plan was compiled under — printable, so
// diagnostics (Stats.PlanKey, slowlog exemplars) carry it as is.
func (p *PlanSet) Key() string { return p.key }

// Cache is a concurrency-safe plan cache. Construct with New.
type Cache struct {
	lru    *cache.Cache[*PlanSet]
	builds *obs.Counter
	// buildUS is nil unless Options.Metrics was set; recording build
	// times is only useful where something can read them.
	buildUS *obs.Histogram
}

// New builds a plan cache.
func New(opts Options) *Cache {
	c := &Cache{
		lru:    cache.New[*PlanSet](cacheSize),
		builds: &obs.Counter{},
	}
	if opts.Metrics != nil {
		c.lru.Instrument(opts.Metrics, "plan")
		c.builds = opts.Metrics.Attach("plan.builds", c.builds)
		c.buildUS = opts.Metrics.Histogram("plan.build_us")
	}
	return c
}

// normTables sorts, deduplicates and filters a table list down to the
// tables the graph actually has — two option bundles that differ only
// in unknown tables or ordering compile to the same plan, so they
// should share a key.
func normTables(g *schemagraph.Graph, tables []string) []string {
	out := make([]string, 0, len(tables))
	for _, t := range tables {
		if g.HasTable(t) {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	n := 0
	for i, t := range out {
		if i == 0 || t != out[n-1] {
			out[n] = t
			n++
		}
	}
	return out[:n]
}

// Key derives the cache key of an enumeration request: schema-graph
// fingerprint, keyword→relation membership signature (the sorted
// keyword and free table sets — enumeration never sees keyword values),
// the MaxSize bound, normalized the way cn.EnumerateCtx normalizes it,
// and the term count as min(m, MaxSize): from MaxSize terms on, as at 0,
// the m-term rule prunes nothing (a CN of s nodes needs at most s
// terms). The membership signature comes from the bind layer —
// cn.Binding.KeywordTables() is the producer — so distinct queries
// matching the same relations share one compiled plan.
func Key(g *schemagraph.Graph, opts cn.EnumerateOptions) string {
	maxSize := opts.MaxSize
	if maxSize <= 0 {
		maxSize = 5
	}
	terms := min(opts.Terms, maxSize)
	if terms <= 0 {
		terms = maxSize
	}
	var b strings.Builder
	b.WriteString(g.Fingerprint())
	b.WriteString("|kw=")
	b.WriteString(strings.Join(normTables(g, opts.KeywordTables), ","))
	b.WriteString("|free=")
	b.WriteString(strings.Join(normTables(g, opts.FreeTables), ","))
	b.WriteString("|ms=")
	b.WriteString(strconv.Itoa(maxSize))
	b.WriteString("|m=")
	b.WriteString(strconv.Itoa(terms))
	return b.String()
}

// Get returns the compiled plan for the request, compiling and caching
// it on a miss. The bool reports whether the plan came from the cache.
// Compilation honors ctx (cancellation, deadlines, fault injection) and
// a failed build is never cached — the next Get retries. Concurrent
// misses on one key may compile twice; the results are identical and
// the last write wins, so the duplicated work is bounded by the number
// of simultaneously cold callers.
func (c *Cache) Get(ctx context.Context, g *schemagraph.Graph, opts cn.EnumerateOptions) (*PlanSet, bool, error) {
	key := Key(g, opts)
	if ps, ok := c.lru.Get(key); ok {
		return ps, true, nil
	}
	start := time.Now()
	cns, err := cn.EnumerateCtx(ctx, g, opts)
	if err != nil {
		return nil, false, err
	}
	c.builds.Inc()
	c.buildUS.Observe(float64(time.Since(start).Microseconds()))
	ps := &PlanSet{cns: cns, key: key}
	c.lru.Put(key, ps)
	return ps, false, nil
}

// Stats returns the underlying LRU counters (hits, misses, evictions,
// live entries).
func (c *Cache) Stats() cache.Stats { return c.lru.Stats() }

// Builds returns the number of cold compilations performed.
func (c *Cache) Builds() uint64 { return c.builds.Value() }
