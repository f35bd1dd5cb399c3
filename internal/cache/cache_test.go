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
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v,%v", v, ok)
	}
	c.Put("a", 10)
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
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a is now most recent
	c.Put("c", 3) // evicts b
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

func TestCapacitySpreadAcrossShards(t *testing.T) {
	c := New[int](64, 8)
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d", len(c.shards))
	}
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if n := c.Stats().Entries; n > 64 {
		t.Fatalf("cache holds %d entries, capacity 64", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("expected evictions under capacity pressure")
	}
}

func TestShardCountRounding(t *testing.T) {
	c := New[int](10, 3) // rounds shards to 4
	if len(c.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(c.shards))
	}
	c = New[int](0, 0) // degenerate inputs still give a usable cache
	c.Put("x", 1)
	if v, ok := c.Get("x"); !ok || v != 1 {
		t.Fatalf("degenerate cache unusable: %v,%v", v, ok)
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
