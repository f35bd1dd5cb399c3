// Package obs is the engine's observability layer: a concurrent-safe
// metrics registry (counters, gauges, and bounded-bucket histograms
// exported as cumulative counts) and a lightweight span tracer that
// records one query's pipeline as a tree of timed stages with
// attributes.
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

// Registry is a named collection of metrics. Lookup-or-create methods
// find an existing name under the read lock and take the write lock only
// to create one; the returned metric pointers are stable, so hot paths
// should hold on to them rather than re-resolve by name.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
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

// Histogram returns the histogram registered under name, creating it on
// first use. Nil registries return nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return lookupOrCreate(r, r.hists, name, newHistogram)
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

// Snapshot is a point-in-time copy of every metric in a registry,
// JSON-marshalable and renderable for CLIs.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
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
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// String renders the snapshot sorted by metric name, one per line —
// the CLI -stats format.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "%-42s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "%-42s %d\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "%-42s n=%d sum=%.0f p50=%.0f p95=%.0f p99=%.0f\n",
			name, h.Count, h.Sum, h.P50, h.P95, h.P99)
	}
	return b.String()
}
