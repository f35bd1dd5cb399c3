package cache

import "testing"

func TestGetPutBasics(t *testing.T) {
	c := New[int](8)
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
	c := New[int](2)
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

// TestExactLRUCapacity pins that capacity is exact and eviction drops
// the least recently used entry of the whole cache.
func TestExactLRUCapacity(t *testing.T) {
	c := New[int](4)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, i)
	}
	c.Get("a")
	c.Put("e", 4)
	for _, k := range []string{"a", "c", "d", "e"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted, want it kept", k)
		}
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b kept, want it evicted as the least recently used")
	}
	if st := c.Stats(); st.Entries != 4 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 4 entries and 1 eviction", st)
	}
	c = New[int](0) // a degenerate capacity still gives a usable cache
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
