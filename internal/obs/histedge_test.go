package obs

// Regression tests for the documented Histogram quantile edge cases.
// TestHistogramNaNObserveDropped fails against the pre-fix Observe (a
// single NaN CAS-accumulated into the running sum poisoned every later
// Sum).

import (
	"math"
	"testing"
)

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
}
