package obs

// This file is the registry's one histogram type: one row of bucket
// counts plus a running sum, exported as it is. The counts are
// cumulative over the process lifetime, so a reader gets any window by
// subtracting two scrapes, and the share of a window's observations
// over a bucket bound (an SLO's bad fraction) exactly.

import (
	"math"
	"sync/atomic"
)

// DefaultBuckets are every histogram's bucket upper bounds: a 1-2-5 grid
// per decade from 1 to 5e9. It spans both event counts and microsecond
// durations (1µs .. ~1.4h), and every round threshold — 100ms is
// 100 000µs — is a bound, so a reader's count of observations over it
// is exact.
var DefaultBuckets = func() []float64 {
	var b []float64
	for p := 1.0; p <= 1e9; p *= 10 {
		b = append(b, p, 2*p, 5*p)
	}
	return b
}()

// Histogram is a fixed-bucket histogram over DefaultBuckets:
// observations land in the first bucket whose upper bound is >= the
// value, with one overflow bucket past the last bound. Observe is one
// bucket search, one atomic add and one sum CAS. Nil receivers no-op.
type Histogram struct {
	counts []atomic.Uint64 // one per bound, plus one overflow bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, len(DefaultBuckets)+1)}
}

// Observe records one value. NaN observations are dropped: NaN compares
// false with every bound (it would land in an arbitrary bucket) and a
// single NaN added to a running sum would poison every later Sum and
// mean.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.counts[searchBuckets(DefaultBuckets, v)].Add(1)
	addFloatBits(&h.sum, v)
}

// load snapshots the bucket counts once, so a read racing Observe cannot
// walk past a moving cumulative total.
func (h *Histogram) load() (counts []uint64, total uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	_, n := h.load()
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1); see
// quantileFromCounts for the estimate's contract.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts, total := h.load()
	return quantileFromCounts(DefaultBuckets, counts, total, q)
}

// Bucket is one cumulative bucket: Count observations were <= LE.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is the point-in-time view of a histogram that
// Registry.Snapshot carries: the count, sum and p50/p95/p99 that -stats
// prints, and the cumulative counts behind them, one per DefaultBuckets
// bound (Count is the +Inf bucket). Every field but the quantiles is
// monotonic, so the difference of two snapshots is the window between
// them.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	counts, total := h.load()
	s := HistogramSnapshot{
		Count:   total,
		Sum:     h.Sum(),
		P50:     quantileFromCounts(DefaultBuckets, counts, total, 0.50),
		P95:     quantileFromCounts(DefaultBuckets, counts, total, 0.95),
		P99:     quantileFromCounts(DefaultBuckets, counts, total, 0.99),
		Buckets: make([]Bucket, len(DefaultBuckets)),
	}
	var cum uint64
	for i, le := range DefaultBuckets {
		cum += counts[i]
		s.Buckets[i] = Bucket{LE: le, Count: cum}
	}
	return s
}

// searchBuckets returns the bucket index for v: the first bound >= v,
// or the overflow bucket past the last bound.
func searchBuckets(bounds []float64, v float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// addFloatBits CAS-accumulates v into a float64-bits atomic.
func addFloatBits(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// quantileFromCounts estimates the q-quantile from already-snapshotted
// bucket counts. Semantics (documented contract, pinned by tests):
//
//   - total == 0 → 0 (an empty histogram has no quantiles);
//   - the estimate interpolates linearly inside the target rank's
//     bucket, so its error is bounded by that bucket's width;
//   - observations past the last bound saturate in the overflow bucket,
//     whose "width" is zero: every quantile landing there reports the
//     last bound itself (the histogram cannot see past its bounds).
func quantileFromCounts(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is 1-based: the ceil(q*total)-th smallest observation.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range counts {
		inBucket := counts[i]
		cum += inBucket
		if cum < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := lo
		if i < len(bounds) {
			hi = bounds[i]
		}
		if inBucket <= 1 || hi == lo {
			return hi
		}
		below := cum - inBucket
		frac := float64(rank-below) / float64(inBucket)
		return lo + frac*(hi-lo)
	}
	// Unreachable when counts sum to >= total; concurrent snapshots can
	// undershoot, in which case the top bound is the sound answer.
	return bounds[len(bounds)-1]
}
