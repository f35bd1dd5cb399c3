package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
)

func TestSearchBucketsMatchesSort(t *testing.T) {
	bounds := DefaultBuckets
	for _, v := range []float64{0, 0.5, 1, 2, 3.99, 4, 5, 1e6, 1e12} {
		got := searchBuckets(bounds, v)
		// Reference: first index with bounds[i] >= v.
		want := len(bounds)
		for i, b := range bounds {
			if b >= v {
				want = i
				break
			}
		}
		if got != want {
			t.Errorf("searchBuckets(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestHistogramEmptyQuantiles(t *testing.T) {
	h := newHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("empty histogram count/sum nonzero")
	}
	// An empty histogram's snapshot is all zero, one bucket per bound.
	reg := NewRegistry()
	_ = reg.Histogram("empty")
	s := reg.Snapshot().Histograms["empty"]
	if s.Count != 0 || s.Sum != 0 || s.P50 != 0 || s.P95 != 0 || s.P99 != 0 || len(s.Buckets) != len(DefaultBuckets) {
		t.Errorf("empty snapshot = %+v", s)
	}
	for i, b := range s.Buckets {
		if b.LE != DefaultBuckets[i] || b.Count != 0 {
			t.Errorf("empty bucket %d = %+v", i, b)
		}
	}
}

func TestHistogramOverflowSaturation(t *testing.T) {
	// Every observation lands past the last bound: the overflow bucket
	// has no upper edge, so all quantiles saturate to the last bound.
	bounds := []float64{1, 10, 100}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := quantileFromCounts(bounds, []uint64{0, 0, 0, 1000}, 1000, q); got != 100 {
			t.Errorf("saturated Quantile(%v) = %v, want last bound 100", q, got)
		}
	}
	h := newHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(1e12)
	}
	if last := DefaultBuckets[len(DefaultBuckets)-1]; h.Quantile(0.5) != last {
		t.Errorf("saturated Quantile(0.5) = %v, want last bound %v", h.Quantile(0.5), last)
	}
	// Sum still reflects the true values even though quantiles clamp.
	if h.Sum() != 1000*1e12 {
		t.Errorf("saturated Sum = %v", h.Sum())
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	bounds := []float64{50}
	if got := quantileFromCounts(bounds, []uint64{1, 0}, 1, 0.5); got != 50 {
		t.Errorf("single observation quantile = %v, want bucket bound 50", got)
	}
	// One more observation in the overflow bucket.
	if got := quantileFromCounts(bounds, []uint64{1, 1}, 2, 1); got != 50 {
		t.Errorf("single-bucket overflow quantile = %v, want 50 (saturated)", got)
	}
}

// TestHistogramNaNObserveDropped: a NaN CAS-accumulated into a running
// sum would poison every later Sum.
func TestHistogramNaNObserveDropped(t *testing.T) {
	h := newHistogram()
	h.Observe(4)
	h.Observe(math.NaN())
	h.Observe(16)
	if h.Count() != 2 {
		t.Errorf("count = %d, want 2 (NaN dropped)", h.Count())
	}
	if math.IsNaN(h.Sum()) {
		t.Fatal("NaN observation poisoned the sum")
	}
	if h.Sum() != 20 {
		t.Errorf("sum = %v, want 20", h.Sum())
	}
	if math.IsNaN(h.Quantile(0.5)) {
		t.Error("NaN observation poisoned quantiles")
	}
	if s := h.snapshot(); s.Count != 2 || s.Buckets[len(s.Buckets)-1].Count != 2 {
		t.Errorf("snapshot = %+v, want count 2 in the last bucket (NaN dropped)", s)
	}
}

// windowOf is the window a reader computes from two scrapes: the
// difference of their counts, sums and cumulative buckets.
func windowOf(a, b HistogramSnapshot) HistogramSnapshot {
	w := HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Buckets: make([]Bucket, len(b.Buckets))}
	for i := range b.Buckets {
		w.Buckets[i] = Bucket{LE: b.Buckets[i].LE, Count: b.Buckets[i].Count - a.Buckets[i].Count}
	}
	return w
}

func TestWindowedNaNDropped(t *testing.T) {
	h := newHistogram()
	h.Observe(3)
	before := h.snapshot()
	h.Observe(math.NaN())
	h.Observe(8)
	w := windowOf(before, h.snapshot())
	if w.Count != 1 {
		t.Errorf("NaN was counted: window count = %d", w.Count)
	}
	if math.IsNaN(w.Sum) || w.Sum != 8 {
		t.Errorf("window sum = %v, want 8 (NaN dropped)", w.Sum)
	}
	for _, b := range w.Buckets {
		want := uint64(0)
		if b.LE >= 10 {
			want = 1
		}
		if b.Count != want {
			t.Errorf("window bucket le=%v = %d, want %d", b.LE, b.Count, want)
		}
	}
}

func TestWindowedNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.Observe(math.NaN())
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.99) != 0 {
		t.Errorf("nil histogram: count %d, sum %v, p99 %v; want zeros", h.Count(), h.Sum(), h.Quantile(0.99))
	}
	// A registry without the histogram hands out none, and its
	// snapshot carries no family for a reader to difference.
	var r *Registry
	if r.Histogram("absent") != nil {
		t.Error("nil registry handed out a histogram")
	}
	if _, ok := r.Snapshot().Histograms["absent"]; ok {
		t.Error("nil registry snapshot carries a histogram")
	}
}

// TestWindowedConcurrentObserveAndRead: scrapes racing Observe never see
// a cumulative bucket fall, between scrapes or within one, and the last
// scrape after the writers stop counts every observation.
func TestWindowedConcurrentObserveAndRead(t *testing.T) {
	h := newHistogram()
	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i % 1000))
			}
		}()
	}
	prev := h.snapshot()
	for i := 0; i < 200; i++ {
		s := h.snapshot()
		for j, b := range s.Buckets {
			if b.Count < prev.Buckets[j].Count {
				t.Fatalf("bucket le=%v fell between scrapes: %d -> %d", b.LE, prev.Buckets[j].Count, b.Count)
			}
			if j > 0 && b.Count < s.Buckets[j-1].Count {
				t.Fatalf("cumulative bucket le=%v = %d below le=%v = %d", b.LE, b.Count, s.Buckets[j-1].LE, s.Buckets[j-1].Count)
			}
		}
		if last := s.Buckets[len(s.Buckets)-1].Count; last > s.Count || s.Count < prev.Count {
			t.Fatalf("scrape count %d (previous %d) below its last bucket %d", s.Count, prev.Count, last)
		}
		_ = h.Quantile(0.99)
		prev = s
	}
	wg.Wait()
	if s := h.snapshot(); s.Count != writers*perWriter || s.Buckets[len(s.Buckets)-1].Count != writers*perWriter {
		t.Errorf("final scrape count %d, last bucket %d; want %d", s.Count, s.Buckets[len(s.Buckets)-1].Count, writers*perWriter)
	}
}

// FuzzHistogram drives one histogram through a sequence of values —
// NaN, ±Inf, 0, negatives, values on and beside bucket bounds — taking
// snapshots ("scrapes") between some of them. It checks the bucket row,
// count, sum and quantiles against a brute-force tally, and that the
// difference of two scrapes is exactly the tally of the observations
// made between them: the window a reader computes, including the count
// over a bucket bound (an SLO's bad observations).
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0})       // NaN, +Inf, -Inf, 0
	f.Add([]byte{4, 15, 0, 4, 16, 40, 5, 15, 0, 5, 16, 41}) // bounds and their neighbours
	f.Add([]byte{6, 200, 255, 6, 10, 254, 7, 3, 250, 4, 29, 1})
	f.Add([]byte{4, 0, 9, 4, 1, 9, 4, 2, 9, 4, 3, 9, 4, 4, 9, 4, 5, 9, 4, 6, 9, 4, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newHistogram()
		type scrape struct {
			n    int // observations made before it
			snap HistogramSnapshot
		}
		scrapes := []scrape{{0, h.snapshot()}}
		var seen []float64
		lifeSum := 0.0
		for len(data) >= 3 && len(seen) < 512 {
			kind, a, flags := data[0], data[1], data[2]
			data = data[3:]
			var v float64
			switch kind % 8 {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			case 3:
				v = 0
			case 4:
				v = DefaultBuckets[int(a)%len(DefaultBuckets)]
			case 5:
				b := DefaultBuckets[int(a)%len(DefaultBuckets)]
				v = math.Nextafter(b, math.Inf(2*int(a/30&1)-1)) // just below or above
			case 6:
				v = math.Pow(10, float64(a)/20)
			case 7:
				v = -float64(a)
			}
			h.Observe(v)
			if !math.IsNaN(v) {
				seen = append(seen, v)
				lifeSum += v
			}
			if flags&1 == 1 && len(scrapes) < 8 {
				scrapes = append(scrapes, scrape{len(seen), h.snapshot()})
			}
		}
		scrapes = append(scrapes, scrape{len(seen), h.snapshot()})

		// tally counts the observations seen[from:to] per bucket.
		tally := func(from, to int) (counts []uint64, vals []float64) {
			counts = make([]uint64, len(DefaultBuckets)+1)
			for _, v := range seen[from:to] {
				counts[searchBuckets(DefaultBuckets, v)]++
				vals = append(vals, v)
			}
			sort.Float64s(vals)
			return counts, vals
		}
		// inBucket reports whether a quantile estimate lies inside the
		// bucket holding the exact order statistic.
		inBucket := func(est, exact float64) bool {
			i := searchBuckets(DefaultBuckets, exact)
			if i == len(DefaultBuckets) {
				return est == DefaultBuckets[i-1]
			}
			lo := 0.0
			if i > 0 {
				lo = DefaultBuckets[i-1]
			}
			return est >= lo && est <= DefaultBuckets[i]
		}

		lifeCounts, lifeVals := tally(0, len(seen))
		gotLife, gotTotal := h.load()
		for b := range lifeCounts {
			if gotLife[b] != lifeCounts[b] {
				t.Fatalf("bucket %d = %d, brute force %d", b, gotLife[b], lifeCounts[b])
			}
		}
		if gotTotal != uint64(len(seen)) || h.Count() != uint64(len(seen)) {
			t.Fatalf("count %d/%d, brute force %d", gotTotal, h.Count(), len(seen))
		}
		if s := h.Sum(); s != lifeSum && !(math.IsNaN(s) && math.IsNaN(lifeSum)) {
			t.Fatalf("sum %v, brute force %v", s, lifeSum)
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			est := h.Quantile(q)
			if len(lifeVals) == 0 {
				if est != 0 {
					t.Fatalf("empty q%v = %v", q, est)
				}
				continue
			}
			rank := max(1, int(math.Ceil(q*float64(len(lifeVals)))))
			if exact := lifeVals[rank-1]; !inBucket(est, exact) {
				t.Fatalf("q%v = %v outside the bucket of %v", q, est, exact)
			}
		}

		// Every scrape's cumulative row matches the tally up to it, and
		// every pair of scrapes differs by the tally between them.
		for j, later := range scrapes {
			counts, _ := tally(0, later.n)
			var cum uint64
			for b, bk := range later.snap.Buckets {
				cum += counts[b]
				if bk.LE != DefaultBuckets[b] || bk.Count != cum {
					t.Fatalf("scrape %d bucket %d = %+v, want le %v count %d", j, b, bk, DefaultBuckets[b], cum)
				}
			}
			if later.snap.Count != uint64(later.n) {
				t.Fatalf("scrape %d count %d, want %d", j, later.snap.Count, later.n)
			}
			for _, earlier := range scrapes[:j] {
				_, vals := tally(earlier.n, later.n)
				if got := later.snap.Count - earlier.snap.Count; got != uint64(len(vals)) {
					t.Fatalf("window count %d, brute force %d", got, len(vals))
				}
				for b, le := range DefaultBuckets {
					over := 0 // observations in the window above the bound
					for _, v := range vals {
						if v > le {
							over++
						}
					}
					within := later.snap.Buckets[b].Count - earlier.snap.Buckets[b].Count
					if got := later.snap.Count - earlier.snap.Count - within; got != uint64(over) {
						t.Fatalf("window count over %v = %d, brute force %d", le, got, over)
					}
				}
			}
		}
	})
}
