package main

// This file generates the benchmark's inputs: the data set from the
// seed, and each workload's operation list from that data.

import (
	"fmt"
	"math/rand"
	"sort"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/relstore"
	"kwsearch/internal/text"
)

// topK and maxCNSize are the engine defaults every request runs with;
// the output checks need them spelled out.
const (
	topK      = 10
	maxCNSize = 5
)

// spec sizes one workload. README.md says why each exists.
type spec struct {
	name string
	// scale multiplies every table count of dataset.DefaultDBLPConfig.
	scale int
	// workers is core.Request.Workers: 2 routes through the exec pool,
	// 0 through the serial global pipeline.
	workers int
	// http sends the operations as POST /query over one connection.
	http bool
	// selective draws known-item queries instead of Zipf term pairs.
	selective bool
	// ops caps the timed operations, warmup precedes them, traced caps
	// the operations of the traced run, distinct is the number of
	// distinct queries the operations are drawn from (0: all distinct).
	ops, warmup, traced, distinct int
	// zipf is the skew of the query generator.
	zipf float64
	// shards > 1 adds a pass through a shard coordinator to the traced
	// run.
	shards int
}

var specs = []spec{
	{name: "http_hot", scale: 1, workers: 2, http: true, ops: 120000, warmup: 500, traced: 20000, distinct: 64, zipf: 1.1},
	{name: "cn_pool", scale: 10, workers: 2, ops: 2400, warmup: 200, traced: 600, zipf: 1.2, shards: 2},
	{name: "cn_serial", scale: 10, workers: 0, ops: 1100, warmup: 100, traced: 300, zipf: 1.2},
	{name: "cn_selective", scale: 10, workers: 2, selective: true, ops: 16000, warmup: 200, traced: 3000},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// quick shrinks a workload to about 1/50 on the x1 data set, for the
// smoke test.
func (sp spec) quick() spec {
	sp.scale = 1
	sp.ops = max(sp.ops/50, 1)
	sp.warmup = max(sp.warmup/50, 1)
	sp.traced = max(sp.traced/50, 1)
	return sp
}

// generate builds the DBLP data set at the workload's scale.
func (sp spec) generate(seed int64) *relstore.DB {
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors *= sp.scale
	cfg.Papers *= sp.scale
	cfg.Conferences *= sp.scale
	cfg.Seed = seed
	return dataset.DBLP(cfg)
}

// vocabulary returns the indexed terms whose postings lie only in the
// author or paper table, by descending document frequency, ties by term.
// Conference tokens are left out on purpose (README.md, "Inputs").
func vocabulary(e *core.Engine) (terms []string, df map[string]int) {
	df = map[string]int{}
	for _, t := range e.Index.Terms() {
		ps := e.Index.Postings(t)
		ok := len(ps) > 0
		for _, p := range ps {
			if tb := e.DB.TupleByID(relstore.TupleID(p.Doc)).Table; tb != "author" && tb != "paper" {
				ok = false
				break
			}
		}
		if ok {
			terms = append(terms, t)
			df[t] = len(ps)
		}
	}
	sort.SliceStable(terms, func(i, j int) bool { return df[terms[i]] > df[terms[j]] })
	return terms, df
}

// maxTries bounds the consecutive duplicate draws a generator accepts
// before it reports that the distinct queries have run out.
const maxTries = 10000

// distinctQueries calls draw until it has n distinct queries or draw has
// produced maxTries duplicates in a row.
func distinctQueries(n int, draw func() string) []string {
	seen := map[string]bool{}
	var out []string
	for tries := 0; len(out) < n && tries < maxTries; tries++ {
		q := draw()
		if q == "" || seen[q] {
			continue
		}
		seen[q] = true
		out = append(out, q)
		tries = 0
	}
	return out
}

// pairQueries draws n distinct unordered 2-keyword queries, each term
// Zipf(s) over the DF-ranked vocabulary.
func pairQueries(rng *rand.Rand, vocab []string, s float64, n int) []string {
	z := rand.NewZipf(rng, s, 1, uint64(len(vocab)-1))
	return distinctQueries(n, func() string {
		a, b := vocab[z.Uint64()], vocab[z.Uint64()]
		if a == b {
			return ""
		}
		if b < a {
			a, b = b, a
		}
		return a + " " + b
	})
}

// knownItemQueries draws n distinct queries that each name one write
// tuple: the last token of its author's name and the rarest token of its
// paper's title, so every answer is non-empty.
func knownItemQueries(rng *rand.Rand, e *core.Engine, df map[string]int, n int) []string {
	write, author, paper := e.DB.Table("write"), e.DB.Table("author"), e.DB.Table("paper")
	ws := write.Tuples()
	return distinctQueries(n, func() string {
		w := ws[rng.Intn(len(ws))]
		a, okA := author.ByKey(write.Value(w, "aid"))
		p, okP := paper.ByKey(write.Value(w, "pid"))
		if !okA || !okP {
			return ""
		}
		name := text.Tokenize(author.Value(a, "name").Str)
		title := text.Tokenize(paper.Value(p, "title").Str)
		if len(name) == 0 || len(title) == 0 {
			return ""
		}
		rare := title[0]
		for _, t := range title[1:] {
			if df[t] < df[rare] || (df[t] == df[rare] && t < rare) {
				rare = t
			}
		}
		return name[len(name)-1] + " " + rare
	})
}

// workloadOps is the seeded input of one workload: warm-up operations
// followed by the timed list, both indices into queries.
type workloadOps struct {
	queries []string
	warmup  []int
	ops     []int
}

// drawSeed seeds the stream that picks which vocabulary ranks, or which
// write tuple, each query uses. It is one constant, not the run's seed:
// the seed decides the data those picks resolve to, so runs with
// different seeds answer different queries over different corpora but
// share one mix of popular and rare terms (common random numbers). With
// the picks seeded per run, resampling the mix alone spread cn_serial's
// p50 by 7.6 % and its throughput by 6.8 % between the quartiles of ten
// seeds, on top of the machine's own noise.
const drawSeed = 1

// operations derives the workload's operation list from the engine's
// data. cn_serial shares the generator of cn_pool, so its list is a
// prefix of cn_pool's.
func (sp spec) operations(e *core.Engine) (workloadOps, error) {
	rng := rand.New(rand.NewSource(drawSeed))
	vocab, df := vocabulary(e)
	if len(vocab) < 2 {
		return workloadOps{}, fmt.Errorf("%s: vocabulary has %d terms", sp.name, len(vocab))
	}
	var w workloadOps
	if sp.distinct > 0 {
		// Repeated queries: the operations are Zipf draws over a small
		// distinct set, so the result cache answers nearly all of them.
		w.queries = pairQueries(rng, vocab, 1.2, sp.distinct)
		if len(w.queries) < 2 {
			return w, fmt.Errorf("%s: only %d distinct queries", sp.name, len(w.queries))
		}
		z := rand.NewZipf(rng, sp.zipf, 1, uint64(len(w.queries)-1))
		for i := 0; i < sp.warmup; i++ {
			w.warmup = append(w.warmup, int(z.Uint64()))
		}
		for i := 0; i < sp.ops; i++ {
			w.ops = append(w.ops, int(z.Uint64()))
		}
		return w, nil
	}
	// Distinct queries: the timed list first, then the warm-up drawn as
	// further queries from the same generator.
	if sp.selective {
		w.queries = knownItemQueries(rng, e, df, sp.ops+sp.warmup)
	} else {
		w.queries = pairQueries(rng, vocab, sp.zipf, sp.ops+sp.warmup)
	}
	n := len(w.queries) - sp.warmup
	if n < 1 {
		return w, fmt.Errorf("%s: only %d distinct queries", sp.name, len(w.queries))
	}
	for i := range w.queries {
		if i < n {
			w.ops = append(w.ops, i)
		} else {
			w.warmup = append(w.warmup, i)
		}
	}
	return w, nil
}
