package cache

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentGetPutEvict hammers one cache from many goroutines with
// overlapping key ranges so Get, Put, LRU eviction and cross-shard access
// all interleave. Run with -race; the assertions check the counters stay
// coherent (every lookup is either a hit or a miss) and no entry count
// ever exceeds capacity.
func TestConcurrentGetPutEvict(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	const capacity, shards = 128, 8
	c := New[int](capacity, shards)

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
					c.Put(c.Gen(), key, i)
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
	if c.Len() > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", c.Len(), capacity)
	}
}

// TestConcurrentInvalidate interleaves generation bumps with reads and
// writes: after the final Invalidate settles, no goroutine may observe a
// value written before it. The weaker live assertion here is coherence —
// Get never returns a value from a generation older than the one current
// when its shard lock was taken — which -race plus the stale counter
// exercise.
func TestConcurrentInvalidate(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	c := New[int](64, 4)
	var wg sync.WaitGroup
	const writers = 4
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", i%50)
				c.Put(c.Gen(), key, g)
				c.Get(key)
				if i%100 == 0 {
					c.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()

	c.Invalidate()
	for i := 0; i < 50; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok {
			t.Fatal("stale entry visible after final Invalidate")
		}
	}
}

// TestConcurrentCounterConsistency is the regression stress for the
// generation-read-under-lock fix: Get and Put now read the generation
// counter after taking the shard lock, so an entry can never be stamped
// with a generation newer than the one a concurrent reader compares
// against (which used to drop fresh entries and misclassify them as
// stale). The test hammers the cache with writers, readers and an
// invalidator, then asserts the counter conservation laws that in-lock
// counting guarantees:
//
//   - every lookup is exactly one hit or one miss;
//   - every stale count is a genuine drop: stale never exceeds misses
//     plus Put-side evictions, and total drops never exceed total Puts
//     (each drop deletes an entry some Put created);
//   - after a final quiescent Invalidate, draining every key increments
//     stale by exactly the number of live entries.
func TestConcurrentCounterConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	const capacity, shards, keys = 256, 8, 128 // no capacity pressure: drops only via staleness
	c := New[int](capacity, shards)

	const workers = 6
	const ops = 4000
	var wg sync.WaitGroup
	var gets, puts, invalidates uint64
	var mu sync.Mutex
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			myGets, myPuts, myInv := uint64(0), uint64(0), uint64(0)
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("key-%d", (g*17+i)%keys)
				switch i % 5 {
				case 0, 1:
					c.Put(c.Gen(), key, i)
					myPuts++
				case 4:
					if g == 0 && i%249 == 4 {
						c.Invalidate()
						myInv++
						continue
					}
					c.Get(key)
					myGets++
				default:
					c.Get(key)
					myGets++
				}
			}
			mu.Lock()
			gets += myGets
			puts += myPuts
			invalidates += myInv
			mu.Unlock()
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses != gets {
		t.Fatalf("hits(%d)+misses(%d) != lookups(%d)", st.Hits, st.Misses, gets)
	}
	if st.Stale > st.Misses+st.Evictions {
		t.Fatalf("stale(%d) exceeds misses(%d)+evictions(%d): counted drops that were not observed",
			st.Stale, st.Misses, st.Evictions)
	}
	if st.Stale+st.Evictions > puts {
		t.Fatalf("drops stale(%d)+evicted(%d) exceed puts(%d)", st.Stale, st.Evictions, puts)
	}
	if invalidates == 0 {
		t.Fatal("workload never invalidated; stress proves nothing")
	}

	// Quiescent drain: one more Invalidate makes every live entry stale;
	// touching every key must count each exactly once.
	live := uint64(st.Entries)
	c.Invalidate()
	for i := 0; i < keys; i++ {
		c.Get(fmt.Sprintf("key-%d", i))
	}
	after := c.Stats()
	if after.Stale-st.Stale != live {
		t.Fatalf("final drain counted %d stale, want exactly %d live entries",
			after.Stale-st.Stale, live)
	}
	if after.Entries != 0 {
		t.Fatalf("%d entries survived the drain", after.Entries)
	}
}
