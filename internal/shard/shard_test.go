package shard

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/exec"
)

// renderCore serializes a response's results bit-exactly: canonical CN,
// tuple IDs in CN node order, and the raw float64 bits of the score.
// Two result lists render equal iff they are byte-identical answers.
func renderCore(results []core.Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.CN.Canonical())
		for _, tp := range r.Tuples {
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(int(tp.ID)))
		}
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.Score), 16))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCoordinatorMatchesSerialRandomCorpus is the acceptance-criteria
// check: across a randomized multi-schema corpus, the coordinator's
// answer at every shard count must be byte-identical (order, score
// bits, bindings) to the bare engine's pool path and the full serial
// oracle, on a pool of (at most) that many goroutines. The coordinator
// shares the engine's result cache, whose key ignores the pool size, so
// each count runs on a fresh executor sharing the engine's binder and
// plan cache — otherwise every N after the
// first would replay the pool's answer and the test would pass
// vacuously. (internal/exec sweeps the same corpora over the job size.)
func TestCoordinatorMatchesSerialRandomCorpus(t *testing.T) {
	const seeds = 25
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		db, _ := dataset.RandomCorpus(rng, 2+seed%3)
		engine := core.NewRelational(db)

		var queries []string
		for q := 0; q < 2; q++ {
			terms := make([]string, 1+rng.Intn(3))
			for i := range terms {
				terms[i] = dataset.CorpusVocab[rng.Intn(len(dataset.CorpusVocab))]
			}
			queries = append(queries, strings.Join(terms, " "))
		}

		coords := map[int]*Coordinator{}
		for _, n := range []int{1, 2, 4, 8} {
			c, err := New(engine, Options{Shards: n})
			if err != nil {
				t.Fatalf("seed %d: New(%d shards): %v", seed, n, err)
			}
			coords[n] = c
		}

		for _, q := range queries {
			req := core.Request{Query: q, TopK: 10, MaxCNSize: 5, Workers: 2}
			base, err := engine.Query(context.Background(), req)
			if err != nil {
				t.Fatalf("seed %d %q: base query: %v", seed, q, err)
			}
			want := renderCore(base.Results)

			serial := engine.Exec.TopKSerial(exec.Query{
				Terms: strings.Fields(q), K: 10, MaxCNSize: 5,
			})
			var sb strings.Builder
			for _, r := range serial {
				sb.WriteString(r.CN.Canonical())
				for _, tp := range r.Tuples {
					sb.WriteByte(' ')
					sb.WriteString(strconv.Itoa(int(tp.ID)))
				}
				sb.WriteByte('@')
				sb.WriteString(strconv.FormatUint(math.Float64bits(r.Score), 16))
				sb.WriteByte('\n')
			}
			if got := sb.String(); got != want {
				t.Fatalf("seed %d %q: pool path differs from serial oracle\ngot:\n%swant:\n%s", seed, q, want, got)
			}

			for _, n := range []int{1, 2, 4, 8} {
				engine.Exec = exec.New(engine.DB, engine.Index, exec.Options{
					FreeTables: engine.FreeTables, Metrics: engine.Metrics, Binder: engine.Binder, Plans: engine.Plans,
				})
				resp, err := coords[n].Query(context.Background(), core.Request{Query: q, TopK: 10, MaxCNSize: 5})
				if err != nil {
					t.Fatalf("seed %d %q shards=%d: %v", seed, q, n, err)
				}
				if resp.Stats.Exec == nil || resp.Stats.Exec.ResultCacheHit {
					t.Fatalf("seed %d %q shards=%d: answer replayed from the result cache, nothing was evaluated", seed, q, n)
				}
				if st := resp.Stats.Exec; st.Workers != min(n, st.Jobs) {
					t.Fatalf("seed %d %q shards=%d: %d goroutines for %d jobs", seed, q, n, st.Workers, st.Jobs)
				}
				if got := renderCore(resp.Results); got != want {
					t.Errorf("seed %d %q shards=%d: answer differs from single engine\ngot:\n%swant:\n%s",
						seed, q, n, got, want)
				}
			}
		}
	}
}

// TestCoordinatorDelegatesNonCN pins that the shard count changes
// nothing outside CN semantics: the answer is the base engine's.
func TestCoordinatorDelegatesNonCN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, _ := dataset.RandomCorpus(rng, 3)
	engine := core.NewRelational(db)
	coord, err := New(engine, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Query: "keyword search", Semantics: core.DistinctRoot, TopK: 5}
	want, err := engine.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("delegated answer has %d results, base %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if math.Float64bits(got.Results[i].Cost) != math.Float64bits(want.Results[i].Cost) {
			t.Errorf("result %d: cost %v != %v", i, got.Results[i].Cost, want.Results[i].Cost)
		}
	}
}
