package cache

import (
	"fmt"
	"testing"
)

func TestGetPutBasics(t *testing.T) {
	c := New[int](8, 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(c.Gen(), "a", 1)
	c.Put(c.Gen(), "b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v,%v", v, ok)
	}
	c.Put(c.Gen(), "a", 10)
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("overwrite lost: %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](2, 1) // one shard, capacity 2
	c.Put(c.Gen(), "a", 1)
	c.Put(c.Gen(), "b", 2)
	c.Get("a")             // a is now most recent
	c.Put(c.Gen(), "c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestGenerationInvalidation(t *testing.T) {
	c := New[string](16, 4)
	c.Put(c.Gen(), "k", "v1")
	c.Invalidate()
	if _, ok := c.Get("k"); ok {
		t.Fatal("stale entry served after Invalidate")
	}
	st := c.Stats()
	if st.Stale != 1 {
		t.Fatalf("stale = %d, want 1", st.Stale)
	}
	// The slot is reusable at the new generation.
	c.Put(c.Gen(), "k", "v2")
	if v, ok := c.Get("k"); !ok || v != "v2" {
		t.Fatalf("post-invalidate Get = %v,%v", v, ok)
	}
}

func TestGenCounter(t *testing.T) {
	c := New[int](16, 4)
	g := c.Gen()
	c.Invalidate()
	c.Invalidate()
	if got := c.Gen(); got != g+2 {
		t.Fatalf("Gen = %d after two invalidations, want %d", got, g+2)
	}
}

func TestCapacitySpreadAcrossShards(t *testing.T) {
	c := New[int](64, 8)
	if c.Shards() != 8 {
		t.Fatalf("shards = %d", c.Shards())
	}
	for i := 0; i < 200; i++ {
		c.Put(c.Gen(), fmt.Sprintf("key-%d", i), i)
	}
	if n := c.Len(); n > 64 {
		t.Fatalf("cache holds %d entries, capacity 64", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("expected evictions under capacity pressure")
	}
}

func TestShardCountRounding(t *testing.T) {
	c := New[int](10, 3) // rounds shards to 4
	if c.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", c.Shards())
	}
	c = New[int](0, 0) // degenerate inputs still give a usable cache
	c.Put(c.Gen(), "x", 1)
	if v, ok := c.Get("x"); !ok || v != 1 {
		t.Fatalf("degenerate cache unusable: %v,%v", v, ok)
	}
}

func TestGetOrCompute(t *testing.T) {
	c := New[int](8, 2)
	calls := 0
	f := func() int { calls++; return 42 }
	if v := c.GetOrCompute("k", f); v != 42 {
		t.Fatalf("computed %d", v)
	}
	if v := c.GetOrCompute("k", f); v != 42 {
		t.Fatalf("cached %d", v)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

// TestStoreAfterInvalidateIsDropped: a value computed before an
// Invalidate and stored after it came from state the invalidation
// declared dead. Stamping it with the generation current at insertion
// (as Put once did) served it as fresh until evicted.
func TestStoreAfterInvalidateIsDropped(t *testing.T) {
	c := New[string](8, 2)
	if v := c.GetOrCompute("k", func() string {
		c.Invalidate() // the data changes while the value is being computed
		return "stale"
	}); v != "stale" {
		t.Fatalf("GetOrCompute returned %q, want the computed value", v)
	}
	if v, ok := c.Get("k"); ok {
		t.Fatalf("Get served %q, computed before the Invalidate", v)
	}

	gen := c.Gen()
	if _, ok := c.Get("p"); ok {
		t.Fatal("empty cache hit")
	}
	c.Invalidate()
	c.Put(gen, "p", "stale")
	if v, ok := c.Get("p"); ok {
		t.Fatalf("Get served %q, stored under a lapsed generation", v)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("%d entries held after two lapsed stores, want 0", n)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("zero-stats hit rate should be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if got := s.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v", got)
	}
}
