package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tickClock is an adjustable test clock.
type tickClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTickClock(start time.Time) *tickClock { return &tickClock{t: start} }

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *tickClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestHistogram(clk *tickClock) *Histogram {
	return NewHistogram(nil).WithClock(clk.Now)
}

func TestWindowedObservationsAgeOut(t *testing.T) {
	clk := newTickClock(time.Unix(1_000_000, 0))
	h := newTestHistogram(clk)

	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	if got := h.Window(time.Minute).Count; got != 100 {
		t.Fatalf("fresh window count = %d, want 100", got)
	}
	if got := h.Window(5 * time.Minute).Count; got != 100 {
		t.Fatalf("5m window count = %d, want 100", got)
	}

	// 2 minutes later the observations left the 1m window but not 5m.
	clk.Advance(2 * time.Minute)
	if got := h.Window(time.Minute).Count; got != 0 {
		t.Errorf("1m window after 2m = %d, want 0", got)
	}
	if got := h.Window(5 * time.Minute).Count; got != 100 {
		t.Errorf("5m window after 2m = %d, want 100", got)
	}

	// 6 minutes later everything left the windows; the lifetime row
	// never rotates.
	clk.Advance(4 * time.Minute)
	if got := h.Window(5 * time.Minute); got != (Summary{}) {
		t.Errorf("5m window after 6m = %+v, want empty", got)
	}
	if h.Count() != 100 || h.Sum() != 100*100 || h.Quantile(0.99) <= 0 {
		t.Errorf("lifetime after 6m: count %d sum %v p99 %v", h.Count(), h.Sum(), h.Quantile(0.99))
	}
}

func TestWindowedMergesAcrossSlots(t *testing.T) {
	clk := newTickClock(time.Unix(2_000_000, 0))
	h := newTestHistogram(clk)

	// Spread observations across 5 slots inside one minute.
	for slot := 0; slot < 5; slot++ {
		for i := 0; i < 10; i++ {
			h.Observe(math.Pow(4, float64(slot))) // 1, 4, 16, 64, 256
		}
		clk.Advance(10 * time.Second)
	}
	snap := h.Window(time.Minute)
	if snap.Count != 50 {
		t.Fatalf("merged count = %d, want 50", snap.Count)
	}
	wantSum := 10.0 * (1 + 4 + 16 + 64 + 256)
	if math.Abs(snap.Sum-wantSum) > 1e-9 {
		t.Errorf("merged sum = %v, want %v", snap.Sum, wantSum)
	}
	// p50 = 25th smallest of 10×{1,4,16,64,256} = 16 → the (10,20] bucket.
	if snap.P50 < 10 || snap.P50 > 20 {
		t.Errorf("merged p50 = %v, want within [10,20]", snap.P50)
	}
}

func TestWindowedRingReusesSlots(t *testing.T) {
	clk := newTickClock(time.Unix(3_000_000, 0))
	h := newTestHistogram(clk)

	// Drive far more slots than the ring holds; counts must never
	// accumulate across reuse.
	for round := 0; round < 100; round++ {
		h.Observe(1)
		clk.Advance(10 * time.Second)
	}
	// The final Advance left the current slot empty; the 1m window spans
	// 6 slots (current + 5 back), of which the 5 older ones hold one
	// observation each. The 5m window spans 30 slots → 29 populated.
	if got := h.Window(time.Minute).Count; got != 5 {
		t.Errorf("1m count after long run = %d, want 5", got)
	}
	if got := h.Window(5 * time.Minute).Count; got != 29 {
		t.Errorf("5m count after long run = %d, want 29", got)
	}
	if got := h.Count(); got != 100 {
		t.Errorf("lifetime count after long run = %d, want 100", got)
	}
}

func TestWindowedNaNDropped(t *testing.T) {
	clk := newTickClock(time.Unix(4_000_000, 0))
	h := newTestHistogram(clk)
	h.Observe(math.NaN())
	h.Observe(8)
	snap := h.Window(time.Minute)
	if snap.Count != 1 {
		t.Errorf("NaN was counted: count = %d", snap.Count)
	}
	if math.IsNaN(snap.Sum) {
		t.Error("NaN poisoned the windowed sum")
	}
}

func TestWindowedNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if h.Window(time.Minute) != (Summary{}) {
		t.Error("nil Window should be zero")
	}
	if h.BadFraction(time.Minute, 10) != 0 {
		t.Error("nil BadFraction should be 0")
	}
	if h.WithClock(time.Now) != nil {
		t.Error("WithClock on nil should stay nil")
	}
}

func TestWindowedBadFractionAndBurnRate(t *testing.T) {
	clk := newTickClock(time.Unix(5_000_000, 0))
	reg := NewRegistry()
	h := reg.Histogram("lat").WithClock(clk.Now)
	reg.RegisterSLO("query_latency", SLO{Series: "lat", Threshold: 50, Objective: 0.9})

	// 90 good (≤50), 10 bad (>50): bad fraction 0.1, budget 0.1 → burn 1.0.
	for i := 0; i < 90; i++ {
		h.Observe(16)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1024)
	}
	if bf := h.BadFraction(time.Minute, 50); math.Abs(bf-0.1) > 1e-9 {
		t.Errorf("bad fraction = %v, want 0.1", bf)
	}
	snap := reg.Snapshot()
	slo, ok := snap.SLOs["query_latency"]
	if !ok {
		t.Fatal("SLO missing from snapshot")
	}
	if math.Abs(slo.BurnRate1m-1.0) > 1e-9 || math.Abs(slo.BurnRate5m-1.0) > 1e-9 {
		t.Errorf("burn rates = %v / %v, want 1.0", slo.BurnRate1m, slo.BurnRate5m)
	}
	hs := snap.Histograms["lat"]
	if hs.Count != 100 || hs.Last1m.Count != 100 || hs.Last5m.Count != 100 {
		t.Errorf("snapshot lifetime/1m/5m counts = %d/%d/%d, want 100 each", hs.Count, hs.Last1m.Count, hs.Last5m.Count)
	}

	// Empty window → burn 0, not NaN.
	clk.Advance(10 * time.Minute)
	slo = reg.Snapshot().SLOs["query_latency"]
	if slo.BurnRate1m != 0 || slo.BurnRate5m != 0 {
		t.Errorf("empty-window burn = %v / %v, want 0", slo.BurnRate1m, slo.BurnRate5m)
	}

	// An SLO over a series nothing has observed yet reads burn 0.
	reg.RegisterSLO("idle", SLO{Series: "never", Threshold: 50, Objective: 0.99})
	if s := reg.Snapshot().SLOs["idle"]; s.BurnRate1m != 0 || s.BurnRate5m != 0 {
		t.Errorf("unobserved series burn = %+v, want 0", s)
	}

	// Degenerate objective must not divide by zero.
	if r := burnRate(0.5, 1.0); math.IsInf(r, 0) || math.IsNaN(r) {
		t.Errorf("burnRate with objective 1.0 = %v", r)
	}
}

func TestWindowedConcurrentObserveAndRead(t *testing.T) {
	clk := newTickClock(time.Unix(6_000_000, 0))
	h := newTestHistogram(clk)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				h.Observe(float64(i % 1000))
				if i%100 == 0 {
					clk.Advance(time.Second)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		_ = h.Window(time.Minute)
		_ = h.BadFraction(5*time.Minute, 100)
		_ = h.Quantile(0.99)
	}
	stop.Store(true)
	wg.Wait()
}

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
	h := NewHistogram(nil)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("empty histogram count/sum nonzero")
	}
	// Round-trip: an empty histogram snapshot is all-zero JSON-safe.
	reg := NewRegistry()
	_ = reg.Histogram("empty")
	s := reg.Snapshot()
	if s.Histograms["empty"] != (HistogramSnapshot{}) {
		t.Errorf("empty snapshot = %+v", s.Histograms["empty"])
	}
}

func TestHistogramOverflowSaturation(t *testing.T) {
	bounds := []float64{1, 10, 100}
	h := NewHistogram(bounds)
	// Every observation lands past the last bound: the overflow bucket
	// has no upper edge, so all quantiles saturate to the last bound.
	for i := 0; i < 1000; i++ {
		h.Observe(1e9)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 100 {
			t.Errorf("saturated Quantile(%v) = %v, want last bound 100", q, got)
		}
	}
	// Sum still reflects the true values even though quantiles clamp.
	if h.Sum() != 1000*1e9 {
		t.Errorf("saturated Sum = %v", h.Sum())
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	h := NewHistogram([]float64{50})
	h.Observe(7)
	if got := h.Quantile(0.5); got != 50 {
		t.Errorf("single observation quantile = %v, want bucket bound 50", got)
	}
	h.Observe(9000) // overflow
	if got := h.Quantile(1); got != 50 {
		t.Errorf("single-bucket overflow quantile = %v, want 50 (saturated)", got)
	}
}

// TestHistogramNaNObserveDropped: a NaN CAS-accumulated into a running
// sum would poison every later Sum, lifetime and windowed alike.
func TestHistogramNaNObserveDropped(t *testing.T) {
	h := NewHistogram(nil)
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
	if w := h.Window(time.Minute); w.Count != 2 || w.Sum != 20 {
		t.Errorf("window = %+v, want count 2 sum 20 (NaN dropped)", w)
	}
}

// FuzzHistogram drives one histogram through a sequence of (value,
// clock step) pairs — NaN, ±Inf, 0, negatives, values on and beside
// bucket bounds, steps within a slot and far beyond the ring — and
// checks every read against a brute-force tally of the observations.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0})       // NaN, +Inf, -Inf, 0
	f.Add([]byte{4, 15, 0, 4, 16, 40, 5, 15, 0, 5, 16, 41}) // bounds and their neighbours
	f.Add([]byte{6, 200, 255, 6, 10, 254, 7, 3, 250, 4, 29, 1})
	f.Add([]byte{4, 0, 9, 4, 1, 9, 4, 2, 9, 4, 3, 9, 4, 4, 9, 4, 5, 9, 4, 6, 9, 4, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		clk := newTickClock(time.Unix(1_700_000_000, 123_456_789))
		h := newTestHistogram(clk)
		type obsAt struct {
			v     float64
			epoch int64
		}
		var seen []obsAt
		lifeSum := 0.0
		for len(data) >= 3 && len(seen) < 512 {
			kind, a, step := data[0], data[1], data[2]
			data = data[3:]
			// Steps up to ~62s stay inside the ring; 250+ jump minutes to
			// an hour ahead, past every slot.
			d := time.Duration(step) * time.Second / 4
			if step >= 250 {
				d = time.Duration(step-249) * 12 * time.Minute
			}
			clk.Advance(d)
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
				seen = append(seen, obsAt{v, clk.Now().UnixNano() / int64(slotDuration)})
				lifeSum += v
			}
		}

		// tally counts the observations whose epoch passes keep.
		tally := func(keep func(int64) bool) (counts []uint64, vals []float64) {
			counts = make([]uint64, len(DefaultBuckets)+1)
			for _, o := range seen {
				if keep(o.epoch) {
					counts[searchBuckets(DefaultBuckets, o.v)]++
					vals = append(vals, o.v)
				}
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
		checkQuantiles := func(what string, counts []uint64, vals []float64) {
			for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
				est := quantileFromCounts(DefaultBuckets, counts, uint64(len(vals)), q)
				if len(vals) == 0 {
					if est != 0 {
						t.Fatalf("%s: empty q%v = %v", what, q, est)
					}
					continue
				}
				rank := max(1, int(math.Ceil(q*float64(len(vals)))))
				if exact := vals[rank-1]; !inBucket(est, exact) {
					t.Fatalf("%s: q%v = %v outside the bucket of %v", what, q, est, exact)
				}
			}
		}

		lifeCounts, lifeVals := tally(func(int64) bool { return true })
		gotLife, gotTotal := h.life.load()
		for b := range lifeCounts {
			if gotLife[b] != lifeCounts[b] {
				t.Fatalf("lifetime bucket %d = %d, brute force %d", b, gotLife[b], lifeCounts[b])
			}
		}
		if gotTotal != uint64(len(seen)) || h.Count() != uint64(len(seen)) {
			t.Fatalf("lifetime count %d/%d, brute force %d", gotTotal, h.Count(), len(seen))
		}
		if s := h.Sum(); s != lifeSum && !(math.IsNaN(s) && math.IsNaN(lifeSum)) {
			t.Fatalf("lifetime sum %v, brute force %v", s, lifeSum)
		}
		checkQuantiles("lifetime", gotLife, lifeVals)

		now := clk.Now().UnixNano() / int64(slotDuration)
		for _, d := range []time.Duration{0, slotDuration, window1m, window5m, time.Hour} {
			n := max(1, min(int64((d+slotDuration-1)/slotDuration), ringSlots))
			inWindow := func(e int64) bool { return e > now-n && e <= now }
			want, vals := tally(inWindow)
			got, total, _ := h.windowed(d)
			for b := range want {
				if got[b] != want[b] {
					t.Fatalf("window %v bucket %d = %d, brute force %d", d, b, got[b], want[b])
				}
			}
			if total > gotTotal {
				t.Fatalf("window %v count %d exceeds lifetime %d", d, total, gotTotal)
			}
			if covers := len(vals) == len(seen); covers {
				for b := range got {
					if got[b] != gotLife[b] {
						t.Fatalf("window %v covers every observation but bucket %d = %d, lifetime %d", d, b, got[b], gotLife[b])
					}
				}
			}
			checkQuantiles("window "+d.String(), got, vals)
			for _, thr := range []float64{DefaultBuckets[0], 100, 100_000, DefaultBuckets[len(DefaultBuckets)-1]} {
				bad := 0
				for _, v := range vals {
					if v > thr {
						bad++
					}
				}
				want := 0.0
				if len(vals) > 0 {
					want = float64(bad) / float64(len(vals))
				}
				if bf := h.BadFraction(d, thr); bf != want {
					t.Fatalf("window %v threshold %v: bad fraction %v, brute force %v", d, thr, bf, want)
				}
			}
		}
	})
}
