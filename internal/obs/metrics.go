// Package obs is the engine's observability layer: a concurrent-safe
// metrics registry (counters, gauges, bounded-bucket histograms with
// quantile estimates) and a lightweight span tracer that records one
// query's pipeline as a tree of timed stages with attributes.
//
// The package is stdlib-only and designed so instrumented hot paths pay
// roughly one atomic add per event: counters are plain atomics, every
// metric and span method is safe on a nil receiver (disabled
// instrumentation degrades to a nil check), and the registry's write
// lock is only taken when a metric is first created.
// EMBANKS (Gupta & Sudarshan) motivates exactly this cost accounting —
// node/edge I/O counts that explain, not just time, a keyword-search
// engine's behaviour.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; all methods are safe on a nil receiver (no-ops), so
// un-instrumented code paths cost one branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n events.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. Like Counter, the zero value
// works and nil receivers no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultBuckets are the histogram bucket upper bounds used when none
// are given: geometric, factor 4 from 1 up to ~4^15 ≈ 1.07e9. They span
// both event counts and nanosecond-scale durations (1ns .. ~1s) with a
// bounded, cheap bucket array.
var DefaultBuckets = func() []float64 {
	b := make([]float64, 16)
	v := 1.0
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}()

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, with one overflow bucket
// past the last bound. Observe is one atomic add plus a small binary
// search over the (immutable) bounds; Quantile estimates by linear
// interpolation inside the selected bucket. Nil receivers no-op.
type Histogram struct {
	bounds []float64 // sorted ascending, immutable after construction
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds (DefaultBuckets when nil).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value. NaN observations are dropped: NaN
// compares false with every bound (it would land in an arbitrary
// bucket) and a single NaN added to the running sum would poison every
// later Sum and mean.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloatBits(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts: the counts are snapshotted, the target rank's bucket is
// located, then the estimate interpolates linearly between the bucket's
// bounds. The estimate is always within the true value's bucket, so its
// error is bounded by the bucket width. Documented edge cases (pinned
// by tests): an empty histogram returns 0 for every quantile, and
// observations past the last bound saturate in the overflow bucket, so
// any quantile landing there reports the last bound itself — the
// histogram cannot resolve values beyond its bounds.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	// Snapshot the counts once so a quantile read racing Observe can't
	// walk past a moving cumulative total.
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return quantileFromCounts(h.bounds, counts, total, q)
}

// HistogramSnapshot is a point-in-time view of a histogram used by
// Registry.Snapshot.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Registry is a named collection of metrics. Lookup-or-create methods
// find an existing name under the read lock and take the write lock only
// to create one; the returned metric pointers are stable, so hot paths
// should hold on to them rather than re-resolve by name.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	windows  map[string]*WindowedHistogram
	slos     map[string]SLO
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		windows:  map[string]*WindowedHistogram{},
		slos:     map[string]SLO{},
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Nil registries return nil (a no-op counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookupOrCreate(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Attach registers an existing counter under name, so components that
// own their counters (e.g. a cache's hit counter) can surface them in a
// registry without double counting. An already-registered name keeps
// its first counter; Attach then returns that one.
func (r *Registry) Attach(name string, c *Counter) *Counter {
	if r == nil || c == nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.counters[name]; ok {
		return prev
	}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil registries return nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookupOrCreate(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram registered under name with
// DefaultBuckets, creating it on first use. Nil registries return nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return lookupOrCreate(r, r.hists, name, func() *Histogram { return NewHistogram(nil) })
}

// Windowed returns the windowed histogram registered under name with
// the default bounds and window geometry, creating it on first use. Nil
// registries return nil (a no-op series).
func (r *Registry) Windowed(name string) *WindowedHistogram {
	if r == nil {
		return nil
	}
	return lookupOrCreate(r, r.windows, name, func() *WindowedHistogram { return NewWindowedHistogram(nil, 0, 0) })
}

// lookupOrCreate returns m[name], read under r's read lock so concurrent
// lookups of an existing metric never serialise; only a miss takes the
// write lock, and re-checks m under it so racing creators agree on one
// metric.
func lookupOrCreate[M any](r *Registry, m map[string]*M, name string, create func() *M) *M {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := m[name]; ok {
		return v
	}
	v = create()
	m[name] = v
	return v
}

// RegisterSLO derives burn-rate gauges named name from the windowed
// series slo.Series at every snapshot. Re-registering a name replaces
// the SLO (operators tune thresholds live).
func (r *Registry) RegisterSLO(name string, slo SLO) {
	if r == nil || name == "" || slo.Series == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slos[name] = slo
}

// Snapshot is a point-in-time copy of every metric in a registry,
// JSON-marshalable and renderable for CLIs.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Windows holds the 1m/5m views of every windowed series; SLOs the
	// burn-rate gauges derived from them.
	Windows map[string]WindowSnapshot `json:"windows,omitempty"`
	SLOs    map[string]SLOSnapshot    `json:"slos,omitempty"`
}

// Snapshot copies the current value of every metric. Nil registries
// return an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramSnapshot{
			Count: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		}
	}
	if len(r.windows) > 0 {
		s.Windows = make(map[string]WindowSnapshot, len(r.windows))
		for name, w := range r.windows {
			s.Windows[name] = WindowSnapshot{
				Last1m: w.Window(Window1m),
				Last5m: w.Window(Window5m),
			}
		}
	}
	if len(r.slos) > 0 {
		s.SLOs = make(map[string]SLOSnapshot, len(r.slos))
		for name, slo := range r.slos {
			w := r.windows[slo.Series] // nil → no-op series, burn 0
			s.SLOs[name] = SLOSnapshot{
				Series:     slo.Series,
				Threshold:  slo.Threshold,
				Objective:  slo.Objective,
				BurnRate1m: burnRate(w.BadFraction(Window1m, slo.Threshold), slo.Objective),
				BurnRate5m: burnRate(w.BadFraction(Window5m, slo.Threshold), slo.Objective),
			}
		}
	}
	return s
}

// String renders the snapshot sorted by metric name, one per line —
// the CLI -stats format.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-42s %d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-42s %d\n", name, s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "%-42s n=%d sum=%.0f p50=%.0f p95=%.0f p99=%.0f\n",
			name, h.Count, h.Sum, h.P50, h.P95, h.P99)
	}
	return b.String()
}
