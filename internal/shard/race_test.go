package shard

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
)

// TestCoordinatorChurnRace hammers a cold coordinator with concurrent
// four-goroutine queries, so first evaluations, cache fills and cache
// hits of the engine it wraps interleave. Every answer must stay
// byte-identical to a reference engine's over the same data. Run under
// -race (verify.sh includes this package in the race gate).
func TestCoordinatorChurnRace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db, _ := dataset.RandomCorpus(rng, 3)
	coord, err := New(core.NewRelational(db), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{"keyword search", "database", "graph rank tuple"}
	want := make([]string, len(queries))
	ref := core.NewRelational(db)
	for i, q := range queries {
		resp, err := ref.Query(context.Background(), core.Request{Query: q, TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderCore(resp.Results)
	}

	iters := 60
	if testing.Short() {
		iters = 10
	}

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
					case errs <- "query error: " + err.Error():
					default:
					}
					return
				}
				if got := renderCore(resp.Results); got != want[qi] {
					select {
					case errs <- "concurrent answer differs from the reference for " + queries[qi]:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
