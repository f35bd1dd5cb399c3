// Package cache provides the LRU behind the engine's two caches:
// whole-query result sets (internal/exec) and compiled candidate-network
// plans (internal/plan). Each is reused across queries, EMBANKS-style
// (Gupta & Sudarshan: keyword-search engines become practical only when
// repeated sub-computations are reused).
//
// The cache is one map and one intrusive LRU list under one mutex, so
// its capacity is exact and eviction always drops the globally least
// recently used entry. It has no invalidation: its owners serve one
// database snapshot for their whole lifetime, so a stored value never
// goes stale.
package cache

import (
	"sync"

	"kwsearch/internal/obs"
)

// Stats holds the cache's counters. All counters are cumulative over
// the cache's lifetime; Entries is the current live entry count.
type Stats struct {
	Hits      uint64 // Get found an entry
	Misses    uint64 // Get found nothing
	Evictions uint64 // entries dropped by LRU capacity pressure
	Entries   int    // live entries right now
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one node of the intrusive doubly-linked LRU list.
type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// Cache is an LRU keyed by string. The zero value is not usable;
// construct with New.
//
// The counters are obs.Counters so a cache can surface its numbers in
// an engine's metrics registry via Instrument while keeping the Stats
// accessor API.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*entry[V]
	head     entry[V] // sentinel: head.next is most recent, head.prev least

	hits    *obs.Counter
	misses  *obs.Counter
	evicted *obs.Counter
}

// New returns a cache holding up to capacity entries (minimum 1).
func New[V any](capacity int) *Cache[V] {
	capacity = max(capacity, 1)
	c := &Cache[V]{
		capacity: capacity,
		entries:  make(map[string]*entry[V], capacity),
		hits:     &obs.Counter{},
		misses:   &obs.Counter{},
		evicted:  &obs.Counter{},
	}
	c.head.next = &c.head
	c.head.prev = &c.head
	return c
}

// unlink removes e from the LRU list.
func unlink[V any](e *entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// pushFront inserts e as the most recently used entry.
func (c *Cache[V]) pushFront(e *entry[V]) {
	e.next = c.head.next
	e.prev = &c.head
	c.head.next.prev = e
	c.head.next = e
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		var zero V
		return zero, false
	}
	c.hits.Inc()
	unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Put stores key→val, evicting the least recently used entry when the
// cache is full.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.val = val
		unlink(e)
		c.pushFront(e)
		return
	}
	if len(c.entries) >= c.capacity {
		lru := c.head.prev
		unlink(lru)
		delete(c.entries, lru.key)
		c.evicted.Inc()
	}
	e := &entry[V]{key: key, val: val}
	c.entries[key] = e
	c.pushFront(e)
}

// Stats reads the counters and the live entry count. The counters are
// lifetime totals regardless of whether Instrument was called.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evicted.Value(),
		Entries:   n,
	}
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
