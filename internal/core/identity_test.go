package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"kwsearch/internal/cn"
	"kwsearch/internal/dataset"
	"kwsearch/internal/exec"
	"kwsearch/internal/plan"
	"kwsearch/internal/relstore"
)

// freshExec gives e a new executor over its snapshot that shares the
// binder and plan cache given (nil builds a private one), so e's next
// CN query is evaluated instead of replayed from the result cache.
func freshExec(e *Engine, binder *cn.Binder, plans *plan.Cache) {
	e.Exec = exec.New(e.DB, e.Index, exec.Options{
		FreeTables: e.FreeTables, Metrics: e.Metrics, Binder: binder, Plans: plans,
	})
}

// zipfTermPairs draws n distinct two-keyword queries, each term Zipf(1.2)
// over the author/paper vocabulary ranked by document frequency — the
// shape of the benchmark's cn_pool and cn_serial workloads. Conference
// tokens are left out as the benchmark leaves them out (hub joins).
func zipfTermPairs(e *Engine, seed int64, n int) []string {
	df := map[string]int{}
	var vocab []string
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
			vocab = append(vocab, t)
			df[t] = len(ps)
		}
	}
	sort.Strings(vocab)
	sort.SliceStable(vocab, func(i, j int) bool { return df[vocab[i]] > df[vocab[j]] })
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(vocab)-1))
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		a, b := vocab[z.Uint64()], vocab[z.Uint64()]
		if b < a {
			a, b = b, a
		}
		if q := a + " " + b; a != b && !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// TestAnswerIdenticalAtEveryPoolSize: over 300 seeded Zipf term pairs on
// the ×1 DBLP corpus, the engine's answer is byte-identical at Workers 0,
// 1, 2 and 4 and equal to the exhaustive reference Exec.TopKSerial —
// there is one evaluation path and one queue feeding one top-k, so the
// pool size can never pick which of several equal-score tuples survive
// the k boundary (internal/exec sweeps the same pairs over the job size
// as well). When Workers <= 1 still ran the serial Global Pipeline, 53 of
// these 300 queries (seed 1; "database keyword" is the first, "keyword
// search" another) returned the same score bits over different tuples at
// both 0 and 1. Last, the same query repeated on the same engine is a
// result-cache hit, and the cached answer is byte-identical to its
// recomputation.
func TestAnswerIdenticalAtEveryPoolSize(t *testing.T) {
	e := NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	for _, q := range zipfTermPairs(e, 1, 300) {
		serial := e.Exec.TopKSerial(exec.Query{Terms: e.Terms(q, false), K: 10, MaxCNSize: 5})
		want := renderCN(cnResults(serial))
		req := Request{Query: q, TopK: 10, MaxCNSize: 5}
		for _, workers := range []int{0, 1, 2, 4} {
			freshExec(e, e.Binder, e.Plans) // evaluate, don't replay the previous pool size's answer
			req.Workers = workers
			resp, err := e.Query(context.Background(), req)
			if err != nil {
				t.Fatalf("%q workers=%d: %v", q, workers, err)
			}
			if resp.Stats.Exec.ResultCacheHit {
				t.Fatalf("%q workers=%d: answer replayed from the result cache", q, workers)
			}
			if got := renderCN(resp.Results); got != want {
				t.Fatalf("%q workers=%d: answer differs from TopKSerial\ngot:\n%swant:\n%s", q, workers, got, want)
			}
		}
		resp, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%q repeated: %v", q, err)
		}
		if !resp.Stats.Exec.ResultCacheHit {
			t.Fatalf("%q repeated: missed the result cache", q)
		}
		if got := renderCN(resp.Results); got != want {
			t.Fatalf("%q repeated: cached answer differs from TopKSerial\ngot:\n%swant:\n%s", q, got, want)
		}
	}
}
