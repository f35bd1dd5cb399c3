// Package cache provides the sharded LRU behind the engine's three
// caches: whole-query result sets (internal/exec), per-term keyword
// bindings (internal/cn's Binder) and compiled candidate-network plans
// (internal/plan). Each is reused across queries, EMBANKS-style (Gupta &
// Sudarshan: keyword-search engines become practical only when repeated
// sub-computations are reused).
//
// The cache is lock-striped: keys hash to one of N shards (N rounded up
// to a power of two), each with its own mutex, map and intrusive LRU
// list, so concurrent readers on different shards never contend. It has
// no invalidation: its owners serve one database snapshot for their
// whole lifetime, so a stored value never goes stale.
package cache

import (
	"sync"

	"kwsearch/internal/obs"
)

// Stats aggregates the per-shard counters. All counters are cumulative
// over the cache's lifetime; Entries is the current live entry count.
type Stats struct {
	Hits      uint64 // Get found an entry
	Misses    uint64 // Get found nothing
	Evictions uint64 // entries dropped by LRU capacity pressure
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

// Cache is a sharded LRU keyed by string. The zero value is not usable;
// construct with New.
//
// The counters are obs.Counters shared across shards (one atomic add
// per event, no per-shard aggregation pass) so a cache can surface its
// numbers in an engine's metrics registry via Instrument while keeping
// the Stats accessor API.
type Cache[V any] struct {
	shards []*shard[V]
	mask   uint32

	hits    *obs.Counter
	misses  *obs.Counter
	evicted *obs.Counter
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

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		c.misses.Inc()
		var zero V
		return zero, false
	}
	c.hits.Inc()
	unlink(e)
	s.pushFront(e)
	return e.val, true
}

// Put stores key→val, evicting the least recently used entry of the
// shard when it is full.
func (c *Cache[V]) Put(key string, val V) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		e.val = val
		unlink(e)
		s.pushFront(e)
		return
	}
	if len(s.entries) >= s.capacity {
		if lru := s.head.prev; lru != &s.head {
			unlink(lru)
			delete(s.entries, lru.key)
			c.evicted.Inc()
		}
	}
	e := &entry[V]{key: key, val: val}
	s.entries[key] = e
	s.pushFront(e)
}

// Stats reads the counters and the live entry count. The counters are
// lifetime totals regardless of whether Instrument was called.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evicted.Value(),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

// Instrument surfaces the cache's counters in reg under
// "<prefix>.hits", ".misses" and ".evictions", so registry
// snapshots include them without double counting — the counters are
// shared, not copied. Call it once, before concurrent use.
func (c *Cache[V]) Instrument(reg *obs.Registry, prefix string) {
	reg.Attach(prefix+".hits", c.hits)
	reg.Attach(prefix+".misses", c.misses)
	reg.Attach(prefix+".evictions", c.evicted)
}
