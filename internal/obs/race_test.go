package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRaceMetricsAndSpans hammers a registry and one span tree from
// many goroutines at once — the access pattern of a traced multi-worker
// query. Run with -race (the verify.sh gate does); in -short mode the
// body shrinks but still exercises every op.
func TestRaceMetricsAndSpans(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 100
	}
	r := NewRegistry()
	root := StartSpan("root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("ops")
			h := r.Histogram("lat")
			for i := 0; i < iters; i++ {
				c.Inc()
				r.Gauge("live").Add(1)
				h.Observe(float64(i % 97))
				sp := root.Child("op")
				sp.SetAttr("g", g)
				sp.End()
				root.Record("recorded", time.Microsecond, Attr{"g", g})
				r.Gauge("live").Add(-1)
				if i%64 == 0 {
					r.Snapshot()
					_ = root.Shape()
				}
			}
		}(g)
	}
	wg.Wait()
	root.End()
	if err := root.WellFormed(time.Minute); err != nil {
		t.Fatalf("span tree corrupted: %v", err)
	}
	if got := r.Counter("ops").Value(); got != uint64(8*iters) {
		t.Fatalf("ops = %d, want %d", got, 8*iters)
	}
	if r.Gauge("live").Value() != 0 {
		t.Fatalf("live gauge = %d, want 0", r.Gauge("live").Value())
	}
}
