// Benchmarks regenerating the performance experiments of DESIGN.md's index
// (one benchmark family per table/figure), plus the ablation benches for
// the design choices DESIGN.md calls out. Worked-example experiments are
// regenerated by cmd/benchrunner; these cover the timing shapes.
package kwsearch_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"kwsearch/internal/banks"
	"kwsearch/internal/blinks"
	"kwsearch/internal/cn"
	"kwsearch/internal/core"
	"kwsearch/internal/datagraph"
	"kwsearch/internal/dataset"
	"kwsearch/internal/exec"
	"kwsearch/internal/facet"
	"kwsearch/internal/invindex"
	"kwsearch/internal/lca"
	"kwsearch/internal/obs"
	"kwsearch/internal/parallel"
	"kwsearch/internal/plan"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
	"kwsearch/internal/steiner"
	"kwsearch/internal/xmltree"
)

// ---- shared fixtures -------------------------------------------------------

type dblpFixture struct {
	db *relstore.DB
	ix *invindex.Index
	g  *datagraph.Graph
	sg *schemagraph.Graph
}

var (
	dblpOnce sync.Once
	dblpFx   dblpFixture
)

func dblp() dblpFixture {
	dblpOnce.Do(func() {
		db := dataset.DBLP(dataset.DefaultDBLPConfig())
		dblpFx = dblpFixture{
			db: db,
			ix: invindex.FromDB(db),
			g:  datagraph.FromDB(db, nil),
			sg: schemagraph.FromDB(db),
		}
	})
	return dblpFx
}

// crossRelationGroups resolves terms that live in different relations
// (author names vs titles), so graph searches must actually expand.
func crossRelationGroups(fx dblpFixture, terms []string) [][]datagraph.NodeID {
	groups := make([][]datagraph.NodeID, len(terms))
	for i, t := range terms {
		for _, d := range fx.ix.Docs(t) {
			groups[i] = append(groups[i], datagraph.NodeID(d))
		}
	}
	return groups
}

func cnSetup(b *testing.B, terms []string, maxSize int) (*cn.Binding, []*cn.CN) {
	b.Helper()
	fx := dblp()
	ev := cn.NewBinder(fx.db, fx.ix).BindTraced(terms, nil)
	cns := cn.Enumerate(fx.sg, cn.EnumerateOptions{
		MaxSize:       maxSize,
		KeywordTables: ev.KeywordTables(),
		FreeTables:    []string{"write", "cite"},
	})
	if len(cns) == 0 {
		b.Fatal("no CNs")
	}
	return ev, cns
}

// ---- E1: assembling scattered matches (slide 7) ---------------------------

func BenchmarkE01SeltzerAssembly(b *testing.B) {
	db := dataset.SeltzerBerkeley()
	ix := invindex.FromDB(db)
	g := datagraph.FromDB(db, nil)
	groups := [][]datagraph.NodeID{}
	for _, term := range []string{"seltzer", "berkeley"} {
		var grp []datagraph.NodeID
		for _, d := range ix.Docs(term) {
			grp = append(grp, datagraph.NodeID(d))
		}
		groups = append(groups, grp)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answers, _ := banks.BackwardSearch(g, groups, banks.Options{K: 3})
		if len(answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

// ---- E3: group Steiner trees (slide 30) ------------------------------------

func BenchmarkE03GroupSteiner(b *testing.B) {
	fx := dblp()
	groups := crossRelationGroups(fx, []string{"wang", "steiner"})
	for _, grp := range groups {
		if len(grp) == 0 {
			b.Skip("terms missing in this seed")
		}
	}
	// Cap group sizes so the DP state space stays laptop-sized.
	for i := range groups {
		if len(groups[i]) > 20 {
			groups[i] = groups[i][:20]
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := steiner.GroupSteiner(fx.g, groups); !ok {
			b.Fatal("no tree")
		}
	}
}

// ---- E15: ELCA algorithms (slide 140) ---------------------------------------

func BenchmarkE15ELCA(b *testing.B) {
	for _, smin := range []int{5, 50, 500} {
		tr := dataset.KeywordTree(4, 5, map[string]int{"k0": smin, "k1": 2000}, 1)
		ix := xmltree.NewIndex(tr)
		terms := []string{"k0", "k1"}
		b.Run(fmt.Sprintf("indexed/smin=%d", smin), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lca.ELCA(ix, terms)
			}
		})
		b.Run(fmt.Sprintf("stack/smin=%d", smin), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lca.ELCAStack(ix, terms, nil)
			}
		})
	}
}

// ---- E16: graph search family (slides 113-114, 123) ------------------------

func BenchmarkE16GraphSearch(b *testing.B) {
	fx := dblp()
	terms := []string{"wang", "search"}
	groups := crossRelationGroups(fx, terms)
	kw := map[string][]datagraph.NodeID{}
	for i, t := range terms {
		kw[t] = groups[i]
	}
	const k = 10
	b.Run("banks1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			banks.BackwardSearch(fx.g, groups, banks.Options{K: k})
		}
	})
	b.Run("banks2-budgeted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			banks.BidirectionalSearch(fx.g, groups, banks.Options{K: k, MaxExpansions: 2000})
		}
	})
	b.Run("blinks-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blinks.NewIndex(fx.g, kw)
		}
	})
	ix := blinks.NewIndex(fx.g, kw)
	b.Run("blinks-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.TopK(terms, k)
		}
	})
	p := blinks.NewPartitionedIndex(fx.g, kw, 32)
	b.Run("blinks-partitioned-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.TopK(terms, k)
		}
	})
}

// ---- E17: DISCOVER top-k strategies (slide 116) ----------------------------

func BenchmarkE17CNTopK(b *testing.B) {
	ev, cns := cnSetup(b, []string{"keyword", "search"}, 5)
	for _, k := range []int{1, 5, 20} {
		b.Run(fmt.Sprintf("naive/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cn.TopKNaive(ev, cns, k)
			}
		})
		b.Run(fmt.Sprintf("sparse/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cn.TopKSparse(ev, cns, k)
			}
		})
		b.Run(fmt.Sprintf("globalpipeline/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = cn.TopKGlobalPipelineCtx(context.Background(), ev, cns, k, nil)
			}
		})
	}
}

// ---- E19: parallel CN computing (slides 129-133) ----------------------------

func BenchmarkE19Parallel(b *testing.B) {
	// Terms hitting two relations (authors and papers) produce many CNs of
	// varied cost, so partitioning has something to balance.
	ev, cns := cnSetup(b, []string{"wang", "search"}, 5)
	jobs := make([]parallel.Job, len(cns))
	for i, c := range cns {
		jobs[i] = parallel.Decompose(c, ev)
	}
	b.Run("partition/naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallel.NaivePartition(jobs, 4)
		}
	})
	b.Run("partition/sharing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallel.SharingAwarePartition(jobs, 4)
		}
	})
}

// ---- E20: SLCA algorithms (slides 112, 138) ---------------------------------

func BenchmarkE20SLCA(b *testing.B) {
	for _, smin := range []int{5, 100, 2000} {
		tr := dataset.KeywordTree(4, 5, map[string]int{"k0": smin, "k1": 2000}, 2)
		ix := xmltree.NewIndex(tr)
		terms := []string{"k0", "k1"}
		b.Run(fmt.Sprintf("ile/smin=%d", smin), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lca.SLCA(ix, terms, nil)
			}
		})
		b.Run(fmt.Sprintf("scan/smin=%d", smin), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lca.SLCAScan(ix, terms)
			}
		})
		b.Run(fmt.Sprintf("multiway/smin=%d", smin), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lca.SLCAMultiway(ix, terms)
			}
		})
	}
}

// ---- E21: faceted navigation (slides 84-91) ---------------------------------

func BenchmarkE21Facet(b *testing.B) {
	db := dataset.EventsDB()
	tbl := db.Table("event")
	log := []facet.LogQuery{
		{Conds: []facet.Condition{{Attr: "state", Value: relstore.String("TX")}}, Count: 6},
		{Conds: []facet.Condition{{Attr: "state", Value: relstore.String("MI")}}, Count: 5},
		{Conds: []facet.Condition{{Attr: "month", Value: relstore.String("Dec")}}, Count: 2},
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			facet.Build(tbl, tbl.Tuples(), []string{"month", "state"}, nil, log, facet.Options{})
		}
	})
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			facet.BuildFixedOrder(tbl, tbl.Tuples(), []string{"month", "state"}, nil, log, facet.Options{})
		}
	})
}

// ---- E23: hub proximity index (slides 121-122) ------------------------------

func BenchmarkE23Proximity(b *testing.B) {
	fx := dblp()
	h := blinks.NewHubIndex(fx.g, 8)
	b.Run("hub-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Distance(1, 99)
		}
	})
	b.Run("dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fx.g.Dijkstra(1, datagraph.Inf)[99]
		}
	})
}

// ---- ablations (DESIGN.md) ---------------------------------------------------

// BenchmarkAblationFreeTables: CN enumeration with link-only free tables
// (the slide-28 policy) vs all tables free (general DISCOVER).
func BenchmarkAblationFreeTables(b *testing.B) {
	fx := dblp()
	ev := cn.NewBinder(fx.db, fx.ix).BindTraced([]string{"keyword", "search"}, nil)
	b.Run("link-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cn.Enumerate(fx.sg, cn.EnumerateOptions{
				MaxSize:       5,
				KeywordTables: ev.KeywordTables(),
				FreeTables:    []string{"write", "cite"},
			})
		}
	})
	b.Run("all-tables", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cn.Enumerate(fx.sg, cn.EnumerateOptions{
				MaxSize:       5,
				KeywordTables: ev.KeywordTables(),
				FreeTables:    fx.db.TableNames(),
			})
		}
	})
}

// BenchmarkAblationBLINKSBlocks sweeps the partition granularity.
func BenchmarkAblationBLINKSBlocks(b *testing.B) {
	fx := dblp()
	terms := []string{"wang", "search"}
	groups := crossRelationGroups(fx, terms)
	kw := map[string][]datagraph.NodeID{}
	for i, t := range terms {
		kw[t] = groups[i]
	}
	for _, nb := range []int{4, 16, 64} {
		p := blinks.NewPartitionedIndex(fx.g, kw, nb)
		b.Run(fmt.Sprintf("blocks=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.TopK(terms, 10)
			}
		})
	}
}

// ---- exec: concurrent query-execution layer (internal/exec) -----------------

// freshExec builds a new executor over db and ix with b's timer stopped.
// Its result cache is empty, so its first TopK evaluates instead of
// replaying; its binder and plan cache are its own unless opts shares
// them.
func freshExec(b *testing.B, db *relstore.DB, ix *invindex.Index, opts exec.Options) *exec.Executor {
	b.StopTimer()
	defer b.StartTimer()
	return exec.New(db, ix, opts)
}

// BenchmarkExecParallelVsSerial compares full serial CN evaluation against
// the worker-pool executor (bound pruning + prefix reuse) at several pool
// sizes, plus the result-cache replay path.
func BenchmarkExecParallelVsSerial(b *testing.B) {
	fx := dblp()
	x := exec.New(fx.db, fx.ix, exec.Options{FreeTables: []string{"write", "cite"}})
	q := exec.Query{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.TopKSerial(q)
		}
	})
	for _, w := range []int{1, 2, 4, 8} {
		qq := q
		qq.Workers = w
		b.Run(fmt.Sprintf("pool/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Measure real execution, not replays.
				y := freshExec(b, fx.db, fx.ix, exec.Options{FreeTables: []string{"write", "cite"}})
				if _, _, err := y.TopK(context.Background(), qq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("result-cached", func(b *testing.B) {
		if _, _, err := x.TopK(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := x.TopK(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObsOverhead pairs the pool executor from
// BenchmarkExecParallelVsSerial with and without the observability layer
// (metrics registry attached + a live span tree per query), so the cost
// of instrumentation is a single benchstat comparison. The disabled arm
// is the nil-object fast path: no registry, nil trace span.
func BenchmarkObsOverhead(b *testing.B) {
	fx := dblp()
	q := exec.Query{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5, Workers: 4}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := freshExec(b, fx.db, fx.ix, exec.Options{FreeTables: []string{"write", "cite"}})
			if _, _, err := x.TopK(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		reg := obs.NewRegistry()
		for i := 0; i < b.N; i++ {
			x := freshExec(b, fx.db, fx.ix, exec.Options{FreeTables: []string{"write", "cite"}, Metrics: reg})
			qq := q
			root := obs.StartSpan("query")
			qq.Trace = root
			if _, _, err := x.TopK(context.Background(), qq); err != nil {
				b.Fatal(err)
			}
			root.End()
		}
	})
}

// BenchmarkObsSuiteOverhead prices the full production observability
// suite at the engine level, as kwsd deploys it: tail-sampling slow
// query log (every query runs a root span and is classified on
// completion), a structured logger and request id in the context, and
// the windowed latency/SLO series — against the same engine with none
// of it installed. Budget: the full arm within 5% of off
// (benchstat-comparable; benchrunner -obs-overhead gates the same pair
// in verify.sh). Both arms run in the warm-plan steady state: each
// iteration gets a fresh executor sharing the engine's binder and plan
// cache, so real evaluation is being priced, not cache replays.
func BenchmarkObsSuiteOverhead(b *testing.B) {
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	req := core.Request{Query: "keyword search", TopK: 10, MaxCNSize: 5, Workers: 4}
	run := func(b *testing.B, e *core.Engine, ctx context.Context) {
		b.Helper()
		if _, err := e.Query(ctx, req); err != nil {
			b.Fatal(err) // compile the plan once, outside the timing
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Exec = freshExec(b, e.DB, e.Index, exec.Options{
				FreeTables: e.FreeTables, Binder: e.Binder, Plans: e.Plans, Metrics: e.Metrics,
			})
			if _, err := e.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, core.NewRelational(db), context.Background())
	})
	b.Run("full", func(b *testing.B) {
		e := core.NewRelational(db)
		e.SetSlowLog(obs.NewSlowLog(64, 100*time.Millisecond))
		ctx := obs.WithLogger(context.Background(), obs.NewLogger(io.Discard, obs.LevelInfo))
		ctx = obs.WithRequestID(ctx, "bench-obs")
		run(b, e, ctx)
	})
}

// BenchmarkCtxOverhead pairs the pool executor under context.Background
// (Done() returns nil, every ctx check is a nil comparison) with a
// far-away deadline (a real done channel, so every boundary check does
// work), pinning the cost of the robustness layer's cancellation checks
// to a single benchstat comparison. The E35 budget is <= 3%. Both arms
// run in the warm-plan steady state (each iteration's fresh executor
// shares the compiled CN plans): the probe prices the evaluation path's
// ctx checks, and cold plan compilation per iteration would both dilute
// the measured ratio and add enumeration noise to it.
func BenchmarkCtxOverhead(b *testing.B) {
	fx := dblp()
	q := exec.Query{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5, Workers: 4}
	run := func(b *testing.B, ctx context.Context) {
		b.Helper()
		opts := exec.Options{FreeTables: []string{"write", "cite"}, Plans: plan.New(plan.Options{})}
		if _, _, err := exec.New(fx.db, fx.ix, opts).TopK(ctx, q); err != nil {
			b.Fatal(err) // compile the plan once, outside the timing
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := freshExec(b, fx.db, fx.ix, opts)
			if _, _, err := x.TopK(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("background", func(b *testing.B) {
		run(b, context.Background())
	})
	b.Run("deadline", func(b *testing.B) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		run(b, ctx)
	})
}

// BenchmarkExecParallelVsSerialLarge repeats the comparison on a bigger
// DBLP instance, where per-CN join work dominates scheduling overhead.
func BenchmarkExecParallelVsSerialLarge(b *testing.B) {
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Papers = 1200, 3000
	db := dataset.DBLP(cfg)
	ix := invindex.FromDB(db)
	x := exec.New(db, ix, exec.Options{FreeTables: []string{"write", "cite"}})
	q := exec.Query{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.TopKSerial(q)
		}
	})
	for _, w := range []int{4, 8} {
		qq := q
		qq.Workers = w
		b.Run(fmt.Sprintf("pool/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := freshExec(b, db, ix, exec.Options{FreeTables: []string{"write", "cite"}})
				if _, _, err := y.TopK(context.Background(), qq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dblpX10 is the benchmark module's ×10 corpus (≈54 000 tuples), where
// keyword sets are large enough for join work to dominate a query.
func dblpX10() (*relstore.DB, *invindex.Index) {
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Papers, cfg.Conferences = 10*cfg.Authors, 10*cfg.Papers, 10*cfg.Conferences
	db := dataset.DBLP(cfg)
	return db, invindex.FromDB(db)
}

// BenchmarkEvaluateCN times the served join kernel alone on ×10 DBLP:
// every candidate network of one query searched depth-first through the
// join indexes and finished, with no bound pruning and no pool — what
// allocs/op and B/op say about the search is not diluted by anything
// else.
func BenchmarkEvaluateCN(b *testing.B) {
	db, ix := dblpX10()
	ev := cn.NewBinder(db, ix).BindTraced([]string{"keyword", "search"}, nil)
	cns := cn.Enumerate(schemagraph.FromDB(db), cn.EnumerateOptions{
		MaxSize:       5,
		KeywordTables: ev.KeywordTables(),
		FreeTables:    []string{"write", "cite"},
	})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := 0
		for _, c := range cns {
			rs, err := ev.EvaluateCN(ctx, c)
			if err != nil {
				b.Fatal(err)
			}
			results += len(rs)
		}
		if results == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkTopK is the whole warm CN query on ×10 DBLP as cn_pool runs
// it — binder and plan cache warm, result cache missing — at one and
// two workers. Each iteration's executor is built untimed and shares the
// binder and plan cache, so allocs/op counts the query alone.
func BenchmarkTopK(b *testing.B) {
	db, ix := dblpX10()
	opts := exec.Options{
		FreeTables: []string{"write", "cite"},
		Binder:     cn.NewBinder(db, ix),
		Plans:      plan.New(plan.Options{}),
	}
	for _, w := range []int{1, 2} {
		q := exec.Query{Terms: []string{"keyword", "search"}, K: 10, MaxCNSize: 5, Workers: w}
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := freshExec(b, db, ix, opts)
				if _, _, err := x.TopK(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIntersectGallopVsMerge sweeps the length skew between two
// posting lists: linear merge is O(|a|+|b|) regardless, galloping is
// O(|a| log |b|) and wins past the crossover ratio.
func BenchmarkIntersectGallopVsMerge(b *testing.B) {
	const small = 1 << 10
	for _, ratio := range []int{1, 8, 64, 512} {
		a := make([]invindex.DocID, small)
		big := make([]invindex.DocID, small*ratio)
		for i := range a {
			a[i] = invindex.DocID(i * ratio * 2)
		}
		for i := range big {
			big[i] = invindex.DocID(i * 2)
		}
		b.Run(fmt.Sprintf("merge/ratio=%d", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				invindex.IntersectMerge(a, big)
			}
		})
		b.Run(fmt.Sprintf("gallop/ratio=%d", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				invindex.IntersectGallop(a, big)
			}
		})
	}
}

// BenchmarkSLCAParallel splits the shortest posting list across workers
// (Indexed-Lookup-Eager per range, boundary merge) vs the serial scan.
func BenchmarkSLCAParallel(b *testing.B) {
	tr := dataset.KeywordTree(5, 5, map[string]int{"k0": 1500, "k1": 2500}, 3)
	ix := xmltree.NewIndex(tr)
	terms := []string{"k0", "k1"}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lca.SLCA(ix, terms, nil)
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lca.SLCAParallel(context.Background(), ix, terms, w, nil)
			}
		})
	}
}

// BenchmarkAblationBanksBudget: quality of BANKS II under shrinking
// budgets, measured as answers found (reported via b.ReportMetric).
func BenchmarkAblationBanksBudget(b *testing.B) {
	fx := dblp()
	groups := crossRelationGroups(fx, []string{"wang", "search"})
	for _, budget := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			found := 0
			for i := 0; i < b.N; i++ {
				answers, _ := banks.BidirectionalSearch(fx.g, groups,
					banks.Options{K: 10, MaxExpansions: budget})
				found = len(answers)
			}
			b.ReportMetric(float64(found), "answers")
		})
	}
}
