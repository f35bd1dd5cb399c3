package shard

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
)

// TestCoordinatorChurnRace hammers the coordinator with concurrent
// four-goroutine queries while an invalidation loop bumps every cache
// generation of the engine it wraps. The data never changes, so every answer —
// served from whatever mix of warm and freshly-invalidated caches the
// race produces — must stay byte-identical to the reference. Run under
// -race (verify.sh includes this package in the race gate).
func TestCoordinatorChurnRace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db, _ := dataset.RandomCorpus(rng, 3)
	engine := core.NewRelational(db)
	coord, err := New(engine, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{"keyword search", "database", "graph rank tuple"}
	want := make([]string, len(queries))
	for i, q := range queries {
		resp, err := coord.Query(context.Background(), core.Request{Query: q, TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderCore(resp.Results)
	}

	iters := 60
	if testing.Short() {
		iters = 10
	}

	done := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			switch i % 3 {
			case 0:
				coord.Exec.InvalidateCaches()
			case 1:
				coord.Exec.InvalidateDataCaches()
			case 2:
				coord.Exec.InvalidateResults()
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				resp, err := coord.Query(context.Background(), core.Request{Query: queries[qi], TopK: 10})
				if err != nil {
					select {
					case errs <- "query error under churn: " + err.Error():
					default:
					}
					return
				}
				if got := renderCore(resp.Results); got != want[qi] {
					select {
					case errs <- "answer changed under invalidation churn for " + queries[qi]:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	churn.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
