package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"kwsearch/internal/cn"
	"kwsearch/internal/dataset"
	"kwsearch/internal/spark"
)

// sparkOracle answers a SparkNetworks query without the served path's
// binder or depth-first evaluator: the full-scan binding, every CN of
// the engine's plan through the level kernel (EvaluateLevels), each
// result rescored with the SPARK score, then
// cn.SortResults and truncation to k.
func sparkOracle(t *testing.T, e *Engine, q string, k, maxCNSize int) []Result {
	t.Helper()
	ctx := context.Background()
	ev := cn.NewScanBinding(e.Binder, e.Terms(q, false))
	ps, _, err := e.Plans.Get(ctx, e.Schema, cn.EnumerateOptions{
		MaxSize:       maxCNSize,
		KeywordTables: ev.KeywordTables(),
		FreeTables:    e.FreeTables,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := spark.NewScorer(ev, e.Index)
	var all []cn.Result
	for _, c := range ps.CNs() {
		rs, err := ev.EvaluateLevels(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rs {
			rs[i].Score = s.Score(rs[i])
		}
		all = append(all, rs...)
	}
	cn.SortResults(all)
	if len(all) > k {
		all = all[:k]
	}
	return cnResults(all)
}

// TestSparkMatchesLevelKernelOracle: over the seeded Zipf term pairs on
// the ×1 DBLP corpus, the served SPARK answer is byte-identical (rank,
// score bits, canonical CN, tuple IDs) to sparkOracle's. "keyword
// search" is pinned: the skyline sweep SPARK used to serve hit its
// 2^20-combination budget on it and returned no results at all.
func TestSparkMatchesLevelKernelOracle(t *testing.T) {
	e := NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	const k, maxCNSize = 10, 5
	for _, q := range append([]string{"keyword search"}, zipfTermPairs(e, 1, 300)...) {
		resp, err := e.Query(context.Background(), Request{Query: q, Semantics: SparkNetworks, TopK: k, MaxCNSize: maxCNSize})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want := sparkOracle(t, e, q, k, maxCNSize)
		if got, want := renderCN(resp.Results), renderCN(want); got != want {
			t.Fatalf("%q: served SPARK answer differs from the level-kernel oracle\ngot:\n%swant:\n%s", q, got, want)
		}
		if q == "keyword search" && len(resp.Results) != k {
			t.Errorf("%q: %d results, want %d", q, len(resp.Results), k)
		}
	}
}

// TestSparkDeadlineLandsInsideCN: "www sigmod xml graph tree" at ×2
// spends nearly all of its SPARK time (≈20 ms) inside the depth-first
// search of one hub CN, the star conference^Q with four paper^Q leaves,
// so a deadline only lands on time if that search polls ctx. (Fewer
// than five terms plan no star with four leaves, and its one result
// keeps SPARK's scoring cheap.) SPARK has no certified prefix: the
// query comes back on time as an empty partial answer with no error.
func TestSparkDeadlineLandsInsideCN(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hub query to completion first")
	}
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Papers, cfg.Conferences = 2*cfg.Authors, 2*cfg.Papers, 2*cfg.Conferences
	e := NewRelational(dataset.DBLP(cfg))
	req := Request{Query: "www sigmod xml graph tree", Semantics: SparkNetworks}

	start := time.Now()
	resp, err := e.Query(context.Background(), req)
	full := time.Since(start)
	if err != nil || resp.Partial {
		t.Fatalf("undeadlined run: %v, err = %v", resp, err)
	}

	// The binding and plan are cached now, so a twentieth of the full
	// time lands inside evaluation.
	req.Deadline = full / 20
	start = time.Now()
	resp, err = e.Query(context.Background(), req)
	returned := time.Since(start)
	if err != nil {
		t.Fatalf("deadlined run: err = %v after %v (full run %v)", err, returned, full)
	}
	if returned > req.Deadline+100*time.Millisecond {
		t.Errorf("Query took %v to honor a %v deadline (full run %v)", returned, req.Deadline, full)
	}
	if !resp.Partial || !resp.Stats.Partial {
		t.Errorf("Partial not set on deadline (resp=%v stats=%v; took %v)", resp.Partial, resp.Stats.Partial, returned)
	}
	if len(resp.Results) != 0 {
		t.Errorf("interrupted SPARK query returned %d results, want an empty partial", len(resp.Results))
	}
}

// TestSparkNoPostingsFastPath: a SPARK term absent from the index ends
// the query in the shared plan step, as it does a CN query: no results,
// no plan built, no bind, enumerate or evaluate span, and the term
// recorded as the trace's empty_term.
func TestSparkNoPostingsFastPath(t *testing.T) {
	e := NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	resp, err := e.Query(context.Background(), Request{Query: "keyword zzzqqq", Semantics: SparkNetworks, Trace: true})
	if err != nil || len(resp.Results) != 0 {
		t.Fatalf("got %d results (err %v), want none", len(resp.Results), err)
	}
	if n := e.Plans.Builds(); n != 0 {
		t.Errorf("%d plans built, want 0", n)
	}
	for _, sp := range resp.Trace.Children() {
		if name := sp.Name(); name == "bind" || name == "enumerate" || name == "evaluate" {
			t.Errorf("trace has a %s span:\n%s", name, resp.Trace.Shape())
		}
	}
	empty := ""
	for _, a := range resp.Trace.Attrs() {
		if a.Key == "empty_term" {
			empty = fmt.Sprint(a.Value)
		}
	}
	if empty != "zzzqqq" {
		t.Errorf("empty_term = %q, want zzzqqq:\n%s", empty, resp.Trace.Shape())
	}
}
