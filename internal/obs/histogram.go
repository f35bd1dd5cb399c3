package obs

// This file is the registry's one histogram type. A Histogram answers
// both of an operator's questions from one Observe: "what happened over
// the lifetime" from a row that never rotates, and "what is p99 right
// now, and is the SLO burning" from a ring of per-time-slot rows that
// reads merge over the requested window. Old slots are reused in place,
// so memory is (slots + 1) × buckets regardless of traffic.
//
// SLO derives burn-rate gauges from a histogram: the fraction of
// observations over the latency threshold in a window, divided by the
// error budget (1 - objective). Burn rate 1.0 means the budget is being
// consumed exactly as fast as it accrues; >1 means the SLO is burning.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBuckets are the histogram bucket upper bounds used when none
// are given: a 1-2-5 grid per decade from 1 to 5e9. It spans both event
// counts and microsecond durations (1µs .. ~1.4h), and every round
// threshold — 100ms is 100 000µs — is a bound, so BadFraction is exact
// for it.
var DefaultBuckets = func() []float64 {
	var b []float64
	for p := 1.0; p <= 1e9; p *= 10 {
		b = append(b, p, 2*p, 5*p)
	}
	return b
}()

// Ring geometry: 10-second slots, enough of them to cover the 5-minute
// reporting window plus the partially-filled active slot. Windows are
// reported in whole slots, so slotDuration bounds a window's staleness.
const (
	slotDuration = 10 * time.Second
	ringSlots    = 31
)

// The reporting windows every snapshot and exposition renders: 1m for
// burn alarms and live dashboards, 5m for less noise.
const (
	window1m = time.Minute
	window5m = 5 * time.Minute
)

// histRow is one set of bucket counts plus the running sum of the
// values counted. The count of a row is the sum of its buckets.
type histRow struct {
	counts []atomic.Uint64 // one per bound, plus one overflow bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

func (r *histRow) add(b int, v float64) {
	r.counts[b].Add(1)
	addFloatBits(&r.sum, v)
}

// load snapshots the row's bucket counts once, so a read racing Observe
// cannot walk past a moving cumulative total.
func (r *histRow) load() (counts []uint64, total uint64) {
	counts = make([]uint64, len(r.counts))
	for i := range counts {
		counts[i] = r.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, with one overflow bucket
// past the last bound. Each observation is added to the lifetime row
// and to the current slot of a ring rotated by wall time; Window merges
// the slots covering a recent span. Observe is one bucket search plus
// two atomic adds and two sum CASes, lock-free except at the first
// observation of a slot. Nil receivers no-op.
//
// Concurrent rotation and reads are safe under the race detector; at a
// slot boundary a window read may miss (or double-see) the handful of
// observations racing the rotation — windowed quantiles are estimates,
// bounded by one slot's worth of churn. The lifetime row never rotates.
type Histogram struct {
	bounds []float64 // sorted ascending, immutable after construction
	life   histRow

	// rotate guards slot reuse: resetting a slot's row and advancing its
	// epoch happens under the lock, exactly once per slot per rotation.
	rotate sync.Mutex
	// epochs[i] is the absolute slot index (unix-time / slotDuration) the
	// ring slot currently holds; a read includes the slot only when its
	// epoch falls inside the requested window, so stale slots age out
	// without synchronous clearing.
	epochs [ringSlots]atomic.Int64
	ring   [ringSlots]histRow

	// now is the clock, swappable in tests for deterministic rotation.
	now func() time.Time
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds (DefaultBuckets when nil).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, now: time.Now}
	h.life.counts = make([]atomic.Uint64, len(bs)+1)
	for i := range h.ring {
		h.ring[i].counts = make([]atomic.Uint64, len(bs)+1)
		h.epochs[i].Store(-1) // no slot holds epoch -1: empty until first use
	}
	return h
}

// WithClock swaps the rotation clock (tests pin it); returns h.
func (h *Histogram) WithClock(now func() time.Time) *Histogram {
	if h != nil && now != nil {
		h.now = now
	}
	return h
}

// epochNow returns the absolute index of the current time slot.
func (h *Histogram) epochNow() int64 {
	return h.now().UnixNano() / int64(slotDuration)
}

// slot returns the ring slot for epoch, rotating (resetting a stale
// slot) when the ring has wrapped past it.
func (h *Histogram) slot(epoch int64) *histRow {
	i := int(epoch % ringSlots)
	if h.epochs[i].Load() == epoch {
		return &h.ring[i]
	}
	h.rotate.Lock()
	defer h.rotate.Unlock()
	if h.epochs[i].Load() != epoch {
		for b := range h.ring[i].counts {
			h.ring[i].counts[b].Store(0)
		}
		h.ring[i].sum.Store(0)
		h.epochs[i].Store(epoch)
	}
	return &h.ring[i]
}

// Observe records one value. NaN observations are dropped: NaN compares
// false with every bound (it would land in an arbitrary bucket) and a
// single NaN added to a running sum would poison every later Sum and
// mean.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	b := searchBuckets(h.bounds, v)
	h.life.add(b, v)
	h.slot(h.epochNow()).add(b, v)
}

// Count returns the number of observations over the lifetime.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	_, n := h.life.load()
	return n
}

// Sum returns the sum of observed values over the lifetime.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.life.sum.Load())
}

// Quantile estimates the lifetime q-quantile (0 <= q <= 1); see
// quantileFromCounts for the estimate's contract.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts, total := h.life.load()
	return quantileFromCounts(h.bounds, counts, total, q)
}

// windowed merges the ring slots covering the last d of wall time
// (clamped to the ring; the active slot included) into plain counters.
func (h *Histogram) windowed(d time.Duration) (counts []uint64, total uint64, sum float64) {
	n := int64((d + slotDuration - 1) / slotDuration)
	n = max(1, min(n, ringSlots))
	counts = make([]uint64, len(h.bounds)+1)
	nowEpoch := h.epochNow()
	for i := range h.ring {
		if e := h.epochs[i].Load(); e <= nowEpoch-n || e > nowEpoch {
			continue
		}
		for b := range counts {
			c := h.ring[i].counts[b].Load()
			counts[b] += c
			total += c
		}
		sum += math.Float64frombits(h.ring[i].sum.Load())
	}
	return counts, total, sum
}

// Summary is the count, sum and p50/p95/p99 of a set of observations.
type Summary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func summarize(bounds []float64, counts []uint64, total uint64, sum float64) Summary {
	return Summary{
		Count: total,
		Sum:   sum,
		P50:   quantileFromCounts(bounds, counts, total, 0.50),
		P95:   quantileFromCounts(bounds, counts, total, 0.95),
		P99:   quantileFromCounts(bounds, counts, total, 0.99),
	}
}

// Window summarizes the observations of the last d of wall time.
// Durations beyond the ring's coverage are clamped to it. Nil receivers
// return a zero summary.
func (h *Histogram) Window(d time.Duration) Summary {
	if h == nil {
		return Summary{}
	}
	counts, total, sum := h.windowed(d)
	return summarize(h.bounds, counts, total, sum)
}

// BadFraction returns the fraction of observations in the last d whose
// value exceeded threshold (0 on an empty window). The boundary is
// bucket-resolved: an observation counts as bad when its whole bucket
// lies above the threshold, so the fraction is exact when threshold is
// a bucket bound.
func (h *Histogram) BadFraction(d time.Duration, threshold float64) float64 {
	if h == nil {
		return 0
	}
	counts, total, _ := h.windowed(d)
	if total == 0 {
		return 0
	}
	var good uint64
	for i, bound := range h.bounds {
		if bound <= threshold {
			good += counts[i]
		}
	}
	return float64(total-good) / float64(total)
}

// HistogramSnapshot is the point-in-time view of a histogram that
// Registry.Snapshot carries: the lifetime summary plus the two
// reporting windows.
type HistogramSnapshot struct {
	Summary
	Last1m Summary `json:"1m"`
	Last5m Summary `json:"5m"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	counts, total := h.life.load()
	return HistogramSnapshot{
		Summary: summarize(h.bounds, counts, total, h.Sum()),
		Last1m:  h.Window(window1m),
		Last5m:  h.Window(window5m),
	}
}

// SLO derives burn-rate gauges from a latency histogram: the objective
// "an Objective fraction of observations stay at or under Threshold"
// has an error budget of (1 - Objective), and the burn rate over a
// window is the observed bad fraction divided by that budget.
type SLO struct {
	// Series names the histogram (in the same registry) the SLO is
	// computed over.
	Series string
	// Threshold is the latency objective in the series' unit; put it on
	// a bucket bound for exact accounting.
	Threshold float64
	// Objective is the target good fraction, e.g. 0.99.
	Objective float64
}

// SLOSnapshot is the rendered state of one SLO at snapshot time.
type SLOSnapshot struct {
	Series    string  `json:"series"`
	Threshold float64 `json:"threshold"`
	Objective float64 `json:"objective"`
	// BurnRate1m / BurnRate5m are the budget burn rates over the two
	// reporting windows: 1.0 consumes the budget exactly as it accrues.
	BurnRate1m float64 `json:"burn_rate_1m"`
	BurnRate5m float64 `json:"burn_rate_5m"`
}

// burnRate computes badFraction / (1 - objective), guarding degenerate
// objectives (>= 1 would divide by zero; report the bad fraction
// scaled by a minimal budget instead of Inf).
func burnRate(bad, objective float64) float64 {
	budget := 1 - objective
	if budget <= 0 {
		budget = 1e-9
	}
	return bad / budget
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
