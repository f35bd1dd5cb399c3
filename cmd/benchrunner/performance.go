package main

import (
	"context"
	"fmt"
	"time"

	"kwsearch/internal/banks"
	"kwsearch/internal/blinks"
	"kwsearch/internal/cn"
	"kwsearch/internal/datagraph"
	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/lca"
	"kwsearch/internal/parallel"
	"kwsearch/internal/schemagraph"
	"kwsearch/internal/xmltree"
)

func init() {
	register("E15", "slide 140 — ELCA: IndexStack-style vs one-pass DIL-style scan", runE15)
	register("E16", "slides 113-114, 123 — BANKS I vs BANKS II vs BLINKS work", runE16)
	register("E17", "slide 116 — DISCOVER top-k: Naive vs Sparse vs Global Pipeline", runE17)
	register("E19", "slides 129-133 — parallel CN computing: naive vs sharing-aware makespan", runE19)
	register("E20", "slides 112, 138 — SLCA: indexed-lookup-eager vs scan-eager crossover", runE20)
	register("E23", "slides 121-122 — hub proximity index: space and query time vs Dijkstra", runE23)
}

// timeIt reports the average duration of f over n runs.
func timeIt(n int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

func runE15() error {
	for _, smin := range []int{5, 50, 500} {
		tr := dataset.KeywordTree(4, 5, map[string]int{"k0": smin, "k1": 2000}, 1)
		ix := xmltree.NewIndex(tr)
		terms := []string{"k0", "k1"}
		a := lca.ELCA(ix, terms)
		b, _ := lca.ELCAStack(context.Background(), ix, terms, nil) // Background never ends: no error
		tIndexed := timeIt(5, func() { lca.ELCA(ix, terms) })
		tScan := timeIt(5, func() { lca.ELCAStack(context.Background(), ix, terms, nil) })
		fmt.Printf("   |Smin|=%-4d |Smax|=2000: indexed %-10v scan %-10v (results %d=%d)\n",
			smin, tIndexed, tScan, len(a), len(b))
		if len(a) != len(b) {
			return fmt.Errorf("ELCA variants disagree at smin=%d", smin)
		}
	}
	return nil
}

func runE16() error {
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	ix := invindex.FromDB(db)
	g := datagraph.FromDB(db, nil)
	// Author names vs title terms: no single tuple matches both, so the
	// search must genuinely expand (the assembly case of slide 7).
	terms := []string{"wang", "search"}
	groups := make([][]datagraph.NodeID, len(terms))
	kw := map[string][]datagraph.NodeID{}
	for i, t := range terms {
		for _, d := range ix.Docs(t) {
			groups[i] = append(groups[i], datagraph.NodeID(d))
		}
		kw[t] = groups[i]
	}
	const k = 10
	a1, s1 := banks.BackwardSearch(g, groups, banks.Options{K: k})
	a2, s2 := banks.BidirectionalSearch(g, groups, banks.Options{K: k, MaxExpansions: s1.Expansions})
	bix := blinks.NewIndex(g, kw)
	top, bs := bix.TopK(terms, k)
	fmt.Printf("   BANKS I:  %d answers, %d expansions, %d touched\n", len(a1), s1.Expansions, s1.Touched)
	fmt.Printf("   BANKS II: %d answers within BANKS I's budget (%d expansions)\n", len(a2), s2.Expansions)
	fmt.Printf("   BLINKS:   %d answers, %d sorted + %d random accesses (index %d entries)\n",
		len(top), bs.SortedAccesses, bs.RandomAccesses, bix.Entries())
	return firstErr(
		expect(len(a1) == k && len(top) == k, "missing answers"),
		expect(approxEqual(a1[0].Cost, top[0].Cost), "BANKS top-1 %v != BLINKS top-1 %v", a1[0].Cost, top[0].Cost),
		expect(bs.SortedAccesses+bs.RandomAccesses < g.Len(),
			"indexed query-time work should be far below a graph traversal"),
	)
}

func approxEqual(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func runE17() error {
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	ix := invindex.FromDB(db)
	b := cn.NewBinder(db, ix).BindTraced([]string{"keyword", "search"}, nil)
	g := schemagraph.FromDB(db)
	cns := cn.Enumerate(g, cn.EnumerateOptions{
		MaxSize:       5,
		KeywordTables: b.KeywordTables(),
		FreeTables:    []string{"write", "cite"},
	})
	const k = 5
	globalPipeline := func() []cn.Result {
		rs, _ := cn.TopKGlobalPipelineCtx(context.Background(), b, cns, k, nil) // Background never ends: no error
		return rs
	}
	tN := timeIt(3, func() { cn.TopKNaive(b, cns, k) })
	tS := timeIt(3, func() { cn.TopKSparse(b, cns, k) })
	tG := timeIt(3, func() { globalPipeline() })
	n := cn.TopKNaive(b, cns, k)
	gp := globalPipeline()
	fmt.Printf("   %d CNs; top-%d: naive %v  sparse %v  global-pipeline %v\n", len(cns), k, tN, tS, tG)
	return firstErr(
		expect(len(n) == len(gp), "strategies disagree on result count"),
		expect(len(n) > 0 && approxEqual(n[0].Score, gp[0].Score), "top-1 scores differ"),
	)
}

func runE19() error {
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	ix := invindex.FromDB(db)
	b := cn.NewBinder(db, ix).BindTraced([]string{"keyword", "search"}, nil)
	g := schemagraph.FromDB(db)
	cns := cn.Enumerate(g, cn.EnumerateOptions{
		MaxSize:       5,
		KeywordTables: b.KeywordTables(),
		FreeTables:    []string{"write", "cite"},
	})
	jobs := make([]parallel.Job, len(cns))
	for i, c := range cns {
		jobs[i] = parallel.Decompose(c, b)
	}
	for _, w := range []int{1, 2, 4, 8} {
		naive := parallel.NaivePartition(jobs, w)
		sharing := parallel.SharingAwarePartition(jobs, w)
		fmt.Printf("   workers=%d: makespan naive %.0f  sharing-aware %.0f\n",
			w, naive.Makespan(), sharing.Makespan())
		if sharing.Makespan() > naive.Makespan()+1e-9 {
			return fmt.Errorf("sharing-aware worse at %d workers", w)
		}
	}
	return nil
}

func runE20() error {
	for _, smin := range []int{5, 100, 2000} {
		tr := dataset.KeywordTree(4, 5, map[string]int{"k0": smin, "k1": 2000}, 2)
		ix := xmltree.NewIndex(tr)
		terms := []string{"k0", "k1"}
		tILE := timeIt(5, func() { lca.SLCA(ix, terms, nil) })
		tScan := timeIt(5, func() { lca.SLCAScan(ix, terms) })
		tMulti := timeIt(5, func() { lca.SLCAMultiway(ix, terms) })
		a, b := lca.SLCA(ix, terms, nil), lca.SLCAScan(ix, terms)
		fmt.Printf("   |Smin|=%-5d: ILE %-10v scan %-10v multiway %-10v (results %d=%d)\n",
			smin, tILE, tScan, tMulti, len(a), len(b))
		if len(a) != len(b) {
			return fmt.Errorf("SLCA variants disagree at smin=%d", smin)
		}
	}
	return nil
}

func runE23() error {
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	g := datagraph.FromDB(db, nil)
	h := blinks.NewHubIndex(g, 8)
	n := g.Len()
	// Sample distances and compare with plain Dijkstra.
	pairs := [][2]datagraph.NodeID{{1, 99}, {5, 500}, {42, 1000}, {7, 7}}
	for _, p := range pairs {
		want, wok := g.Dijkstra(p[0], datagraph.Inf)[p[1]]
		got, gok := h.Distance(p[0], p[1])
		if wok != gok || (wok && !approxEqual(want, got)) {
			return fmt.Errorf("d(%d,%d): hub %v/%v vs dijkstra %v/%v", p[0], p[1], got, gok, want, wok)
		}
	}
	tHub := timeIt(20, func() { h.Distance(1, 99) })
	tDij := timeIt(20, func() { _ = g.Dijkstra(1, datagraph.Inf)[99] })
	fmt.Printf("   |V|=%d: hub index %d entries (APSP would be %d); query hub %v vs dijkstra %v\n",
		n, h.Entries(), n*n, tHub, tDij)
	return expect(h.Entries() < n*n, "hub index not smaller than APSP")
}
