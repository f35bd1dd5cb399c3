package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("queries") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("workers")
	g.Set(8)
	g.Add(-3)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	var sp *Span

	// None of these may panic; all reads return zero values.
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	c.Inc()
	c.Add(2)
	g.Add(1)
	h.Observe(3)
	sp.SetAttr("k", 1)
	sp.Child("c").End()
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if sp.String() != "" || sp.Shape() != "" || sp.Name() != "" {
		t.Fatal("nil span must render empty")
	}
	if len(r.Snapshot().Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestAttachSharesCounter(t *testing.T) {
	r := NewRegistry()
	own := &Counter{}
	got := r.Attach("cache.hits", own)
	if got != own {
		t.Fatal("first Attach must adopt the given counter")
	}
	own.Add(3)
	if r.Snapshot().Counters["cache.hits"] != 3 {
		t.Fatal("snapshot must read the attached counter")
	}
	other := &Counter{}
	if r.Attach("cache.hits", other) != own {
		t.Fatal("second Attach must keep the first counter")
	}
}

// TestHistogramQuantileProperty is the property test the issue asks
// for: for random value sets, every quantile estimate must land within
// the bucket that contains the exact (sorted) quantile — i.e. between
// the bucket's lower and upper bound.
func TestHistogramQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		h := newHistogram()
		n := 1 + rng.Intn(2000)
		vals := make([]float64, n)
		for i := range vals {
			// Mix scales so many buckets are exercised.
			vals[i] = math.Pow(4, rng.Float64()*14)
			h.Observe(vals[i])
		}
		sort.Float64s(vals)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank == 0 {
				rank = 1
			}
			exact := vals[rank-1]
			lo, hi := bucketBounds(exact)
			got := h.Quantile(q)
			if got < lo || got > hi {
				t.Fatalf("trial %d q=%v: estimate %v outside exact value %v's bucket [%v,%v]",
					trial, q, got, exact, lo, hi)
			}
		}
		if h.Count() != uint64(n) {
			t.Fatalf("count = %d, want %d", h.Count(), n)
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		if math.Abs(h.Sum()-sum) > 1e-6*math.Abs(sum) {
			t.Fatalf("sum = %v, want %v", h.Sum(), sum)
		}
	}
}

// bucketBounds returns the [lo,hi] bounds of the bucket v lands in.
func bucketBounds(v float64) (float64, float64) {
	i := sort.SearchFloat64s(DefaultBuckets, v)
	lo := 0.0
	if i > 0 {
		lo = DefaultBuckets[i-1]
	}
	if i == len(DefaultBuckets) {
		return lo, math.Inf(1)
	}
	return lo, DefaultBuckets[i]
}

func TestHistogramEdgeCases(t *testing.T) {
	bounds := []float64{1, 10, 100}
	if quantileFromCounts(bounds, []uint64{0, 0, 0, 0}, 0, 0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// One observation of 5.
	if got := quantileFromCounts(bounds, []uint64{0, 1, 0, 0}, 1, 0.5); got < 1 || got > 10 {
		t.Fatalf("single observation p50 = %v, want within (1,10]", got)
	}
	// And one in the overflow bucket.
	if got := quantileFromCounts(bounds, []uint64{0, 1, 0, 1}, 2, 1); got < 100 {
		t.Fatalf("overflow observation p100 = %v, want >= 100", got)
	}
}

func TestSnapshotString(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(15)
	r.Counter("b").Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(3)
	s := r.Snapshot().String()
	for _, want := range []string{"a", "b", "g", "h"} {
		if !strings.Contains(s, want) {
			t.Fatalf("snapshot rendering missing %q:\n%s", want, s)
		}
	}
	if _, err := json.Marshal(r.Snapshot()); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter(fmt.Sprintf("c%d", i%7)).Inc()
				r.Histogram("h").Observe(float64(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	total := uint64(0)
	for name, v := range r.Snapshot().Counters {
		if !strings.HasPrefix(name, "c") {
			continue
		}
		total += v
	}
	if total != 8*1000 {
		t.Fatalf("counters lost updates: %d, want %d", total, 8000)
	}
	if r.Histogram("h").Count() != 8*1000 {
		t.Fatalf("histogram lost updates: %d", r.Histogram("h").Count())
	}

	// Lookups of one existing name take the read lock only, and every
	// goroutine gets the registered metric, not a fresh one.
	want := [3]any{r.Counter("c0"), r.Gauge("g"), r.Histogram("h")}
	got := make([][3]any, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				got[g] = [3]any{r.Counter("c0"), r.Gauge("g"), r.Histogram("h")}
			}
		}(g)
	}
	wg.Wait()
	for g, ms := range got {
		if ms != want {
			t.Fatalf("goroutine %d looked up %v, want the registered %v", g, ms, want)
		}
	}
}

// TestServe serves Handler's mux and reads its endpoints.
func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("served").Add(3)
	srv := httptest.NewServer(Handler(r, nil))
	defer srv.Close()

	for path, status := range map[string]int{"/metrics": http.StatusOK, "/debug/pprof/": http.StatusOK, "/debug/vars": http.StatusNotFound} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, status)
		}
		if path == "/metrics" && !strings.Contains(string(body), "served") {
			t.Fatalf("/metrics missing counter: %s", body)
		}
	}
}
