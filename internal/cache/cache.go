// Package cache provides a sharded, generation-aware LRU cache for the
// concurrent query-execution layer (internal/exec): term→posting lookups
// and whole-query result sets are cached across queries, EMBANKS-style
// (Gupta & Sudarshan: keyword-search engines become practical only when
// repeated sub-computations are reused).
//
// The cache is lock-striped: keys hash to one of N shards (N rounded up
// to a power of two), each with its own mutex, map and intrusive LRU
// list, so concurrent readers on different shards never contend. It is
// generation-aware: Invalidate bumps a global generation counter and
// entries stamped with an older generation are treated as misses and
// lazily dropped on access — an O(1) "flush" suitable for append-only
// indexes that occasionally grow.
package cache

import (
	"sync"
	"sync/atomic"

	"kwsearch/internal/obs"
)

// Stats aggregates the per-shard counters. All counters are cumulative
// over the cache's lifetime; Entries is the current live entry count.
type Stats struct {
	Hits      uint64 // Get found a current-generation entry
	Misses    uint64 // Get found nothing (or only a stale entry)
	Evictions uint64 // entries dropped by LRU capacity pressure
	Stale     uint64 // entries dropped because their generation lapsed
	Entries   int    // live entries across all shards right now
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one node of a shard's intrusive doubly-linked LRU list.
type entry[V any] struct {
	key        string
	val        V
	gen        uint64
	prev, next *entry[V]
}

// shard is one lock stripe: a map plus an LRU list with sentinel head
// (head.next is most recent, head.prev is least recent).
type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*entry[V]
	head     entry[V] // sentinel
}

// Cache is a sharded, generation-aware LRU keyed by string. The zero
// value is not usable; construct with New.
//
// The counters are obs.Counters shared across shards (one atomic add
// per event, no per-shard aggregation pass) so a cache can surface its
// numbers in an engine's metrics registry via Instrument while keeping
// the Stats accessor API.
type Cache[V any] struct {
	shards []*shard[V]
	mask   uint32
	gen    atomic.Uint64

	hits    *obs.Counter
	misses  *obs.Counter
	evicted *obs.Counter
	stale   *obs.Counter
}

// New returns a cache holding up to capacity entries total, striped over
// the given shard count (rounded up to a power of two, minimum 1).
// capacity < shards is raised so every shard holds at least one entry.
func New[V any](capacity, shards int) *Cache[V] {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if capacity < n {
		capacity = n
	}
	perShard := (capacity + n - 1) / n
	c := &Cache[V]{
		shards:  make([]*shard[V], n),
		mask:    uint32(n - 1),
		hits:    &obs.Counter{},
		misses:  &obs.Counter{},
		evicted: &obs.Counter{},
		stale:   &obs.Counter{},
	}
	for i := range c.shards {
		s := &shard[V]{capacity: perShard, entries: make(map[string]*entry[V], perShard)}
		s.head.next = &s.head
		s.head.prev = &s.head
		c.shards[i] = s
	}
	return c
}

// fnv32a hashes key with FNV-1a; it selects the shard.
func fnv32a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *Cache[V]) shard(key string) *shard[V] {
	return c.shards[fnv32a(key)&c.mask]
}

// unlink removes e from the LRU list.
func unlink[V any](e *entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// pushFront inserts e as the most recently used entry.
func (s *shard[V]) pushFront(e *entry[V]) {
	e.next = s.head.next
	e.prev = &s.head
	s.head.next.prev = e
	s.head.next = e
}

// Get returns the cached value for key. A stale entry (written before the
// last Invalidate) is dropped and reported as a miss.
//
// The generation is read after the shard lock is taken: entry
// generations are stamped under the same lock and the counter is
// monotone, so the loaded value can never lag an entry's stamp. Loading
// before the lock (as an earlier version did) let a racing Invalidate
// make a just-written current entry look stale — it was then dropped
// and double-counted as stale+miss even though it was fresh.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := c.gen.Load()
	e, ok := s.entries[key]
	if !ok {
		c.misses.Inc()
		var zero V
		return zero, false
	}
	if e.gen != gen {
		unlink(e)
		delete(s.entries, key)
		c.stale.Inc()
		c.misses.Inc()
		var zero V
		return zero, false
	}
	c.hits.Inc()
	unlink(e)
	s.pushFront(e)
	return e.val, true
}

// Put stores key→val as a value of generation gen — Gen() as the caller
// read it before computing val — evicting the least recently used entry
// of the shard when it is full. A value whose generation has lapsed by
// now was computed from state an Invalidate has since declared dead, and
// is dropped instead of being served as current. The comparison runs
// under the shard lock, as in Get; an Invalidate landing after it leaves
// an entry stamped gen, which Get then treats as stale.
func (c *Cache[V]) Put(gen uint64, key string, val V) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != c.gen.Load() {
		return
	}
	if e, ok := s.entries[key]; ok {
		e.val = val
		e.gen = gen
		unlink(e)
		s.pushFront(e)
		return
	}
	if len(s.entries) >= s.capacity {
		lru := s.head.prev
		if lru != &s.head {
			unlink(lru)
			delete(s.entries, lru.key)
			if lru.gen != gen {
				c.stale.Inc()
			} else {
				c.evicted.Inc()
			}
		}
	}
	e := &entry[V]{key: key, val: val, gen: gen}
	s.entries[key] = e
	s.pushFront(e)
}

// GetOrCompute returns the cached value for key, computing and storing it
// on a miss. compute runs outside the shard lock, so concurrent misses on
// the same key may compute twice (last write wins) — acceptable for the
// idempotent lookups this cache serves.
func (c *Cache[V]) GetOrCompute(key string, compute func() V) V {
	gen := c.Gen()
	if v, ok := c.Get(key); ok {
		return v
	}
	v := compute()
	c.Put(gen, key, v)
	return v
}

// Invalidate bumps the generation: every existing entry becomes stale and
// will be dropped (and counted) lazily on its next access. O(1).
func (c *Cache[V]) Invalidate() {
	c.gen.Add(1)
}

// Gen returns the current generation counter: read it before computing
// a value and hand it to Put, so a value an Invalidate overtook is
// never stored as current.
func (c *Cache[V]) Gen() uint64 { return c.gen.Load() }

// Len returns the number of live entries, including not-yet-collected
// stale ones.
func (c *Cache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Shards returns the stripe count (diagnostics).
func (c *Cache[V]) Shards() int { return len(c.shards) }

// Stats reads the counters and the live entry count. The counters are
// lifetime totals regardless of whether Instrument was called.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evicted.Value(),
		Stale:     c.stale.Value(),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

// Instrument surfaces the cache's counters in reg under
// "<prefix>.hits", ".misses", ".evictions" and ".stale", so registry
// snapshots include them without double counting — the counters are
// shared, not copied. Call it once, before concurrent use.
func (c *Cache[V]) Instrument(reg *obs.Registry, prefix string) {
	reg.Attach(prefix+".hits", c.hits)
	reg.Attach(prefix+".misses", c.misses)
	reg.Attach(prefix+".evictions", c.evicted)
	reg.Attach(prefix+".stale", c.stale)
}
