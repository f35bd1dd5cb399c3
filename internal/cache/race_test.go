package cache

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentGetPutEvict hammers one cache from many goroutines with
// overlapping key ranges so Get, Put and LRU eviction all
// interleave. Run with -race; the assertions check the counters stay
// coherent (every lookup is either a hit or a miss) and no entry count
// ever exceeds capacity.
func TestConcurrentGetPutEvict(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	const capacity = 128
	c := New[int](capacity)

	const goroutines = 8
	const ops = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				// Deliberately overlapping key space across goroutines.
				key := fmt.Sprintf("key-%d", (g*31+i)%(capacity*2))
				if i%3 == 0 {
					c.Put(key, i)
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	lookups := uint64(0)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < ops; i++ {
			if i%3 != 0 {
				lookups++
			}
		}
	}
	if st.Hits+st.Misses != lookups {
		t.Fatalf("hits(%d)+misses(%d) != lookups(%d)", st.Hits, st.Misses, lookups)
	}
	if n := c.Stats().Entries; n > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
	}
}

// TestConcurrentCounterConsistency hammers the cache with writers and
// readers, then asserts the counter conservation laws that in-lock
// counting guarantees:
//
//   - every lookup is exactly one hit or one miss;
//   - with no capacity pressure nothing is evicted, and the live entries
//     are at most the key space;
//   - a quiescent drain over every key hits exactly the live entries and
//     misses the rest.
func TestConcurrentCounterConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	const capacity, keys = 256, 128 // no capacity pressure
	c := New[int](capacity)

	const workers = 6
	const ops = 4000
	var wg sync.WaitGroup
	var gets uint64
	var mu sync.Mutex
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			myGets := uint64(0)
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("key-%d", (g*17+i)%keys)
				if i%5 < 2 {
					c.Put(key, i)
					continue
				}
				c.Get(key)
				myGets++
			}
			mu.Lock()
			gets += myGets
			mu.Unlock()
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses != gets {
		t.Fatalf("hits(%d)+misses(%d) != lookups(%d)", st.Hits, st.Misses, gets)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d without capacity pressure", st.Evictions)
	}
	if st.Entries > keys {
		t.Fatalf("%d entries over a key space of %d", st.Entries, keys)
	}

	// Quiescent drain: touching every key must hit each live entry
	// exactly once and miss every other key.
	for i := 0; i < keys; i++ {
		c.Get(fmt.Sprintf("key-%d", i))
	}
	after := c.Stats()
	if hits := after.Hits - st.Hits; hits != uint64(st.Entries) {
		t.Fatalf("final drain hit %d keys, want exactly %d live entries", hits, st.Entries)
	}
	if misses := after.Misses - st.Misses; misses != uint64(keys-st.Entries) {
		t.Fatalf("final drain missed %d keys, want %d", misses, keys-st.Entries)
	}
}
