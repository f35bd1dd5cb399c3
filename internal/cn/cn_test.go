package cn

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
)

// awpGraph is the slide-28 schema: author <- write -> paper.
func awpGraph(t *testing.T) *schemagraph.Graph {
	t.Helper()
	g, err := schemagraph.New(
		[]string{"author", "write", "paper"},
		[]schemagraph.Edge{
			{From: "write", FromCol: "aid", To: "author", ToCol: "aid"},
			{From: "write", FromCol: "pid", To: "paper", ToCol: "pid"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEnumerateSlide28 reproduces E2: Q = "Widom XML" on A-W-P yields
// exactly the five CNs of the slide table when only the text-free link
// table may act as a free tuple set.
func TestEnumerateSlide28(t *testing.T) {
	g := awpGraph(t)
	cns := Enumerate(g, EnumerateOptions{
		MaxSize:       5,
		KeywordTables: []string{"author", "paper"},
		FreeTables:    []string{"write"},
	})
	var got []string
	for _, c := range cns {
		got = append(got, c.Canonical())
	}
	if len(cns) != 5 {
		t.Fatalf("got %d CNs, want 5:\n%s", len(cns), strings.Join(got, "\n"))
	}
	// Size distribution: two singletons, one 3-node path, two 5-node paths.
	sizes := map[int]int{}
	for _, c := range cns {
		sizes[c.Size()]++
	}
	if sizes[1] != 2 || sizes[3] != 1 || sizes[5] != 2 {
		t.Errorf("size histogram = %v, want map[1:2 3:1 5:2]", sizes)
	}
	// CNs arrive in nondecreasing size order (breadth-first).
	for i := 1; i < len(cns); i++ {
		if cns[i-1].Size() > cns[i].Size() {
			t.Errorf("CNs not in size order: %v", sizes)
		}
	}
}

// TestEnumerateGeneralFreeTables checks the unrestricted DISCOVER
// behaviour: allowing author and paper as free fillers adds the two CNs
// A^Q - W - P^{} - W - A^Q (two authors of a shared non-matching paper)
// and its dual P^Q - W - A^{} - W - P^Q, for 7 total.
func TestEnumerateGeneralFreeTables(t *testing.T) {
	g := awpGraph(t)
	cns := Enumerate(g, EnumerateOptions{
		MaxSize:       5,
		KeywordTables: []string{"author", "paper"},
		FreeTables:    []string{"write", "author", "paper"},
	})
	if len(cns) != 7 {
		var all []string
		for _, c := range cns {
			all = append(all, c.Canonical())
		}
		t.Fatalf("got %d CNs, want 7:\n%s", len(cns), strings.Join(all, "\n"))
	}
}

// TestSameFKPruning: conference is referenced by paper via a single-valued
// FK, so C^Q <- P -> C^Q must be pruned (slide 115's duplicate-free
// requirement), while A^Q <- W -> P <- W -> A^Q stays (different W copies).
func TestSameFKPruning(t *testing.T) {
	g, err := schemagraph.New(
		[]string{"paper", "conference"},
		[]schemagraph.Edge{
			{From: "paper", FromCol: "cid", To: "conference", ToCol: "cid"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	cns := Enumerate(g, EnumerateOptions{
		MaxSize:       3,
		KeywordTables: []string{"conference"},
		FreeTables:    []string{"paper"},
	})
	for _, c := range cns {
		if c.Size() == 3 {
			t.Errorf("C-P-C must be pruned, got %s", c)
		}
	}
}

func TestCanonicalInvariantUnderConstruction(t *testing.T) {
	e1 := schemagraph.Edge{From: "write", FromCol: "aid", To: "author", ToCol: "aid", Weight: 1}
	e2 := schemagraph.Edge{From: "write", FromCol: "pid", To: "paper", ToCol: "pid", Weight: 1}
	// author - write - paper built in two different orders.
	a := &CN{
		Nodes: []NodeSpec{{Table: "author"}, {Table: "write", Free: true}, {Table: "paper"}},
		Edges: []EdgeSpec{{A: 0, B: 1, Via: e1}, {B: 2, A: 1, Via: e2}},
	}
	b := &CN{
		Nodes: []NodeSpec{{Table: "paper"}, {Table: "write", Free: true}, {Table: "author"}},
		Edges: []EdgeSpec{{A: 0, B: 1, Via: e2}, {A: 1, B: 2, Via: e1}},
	}
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical forms differ:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	if a.Canonical() == (&CN{Nodes: []NodeSpec{{Table: "author"}}}).Canonical() {
		t.Errorf("different CNs must differ")
	}
	if got := a.String(); !strings.Contains(got, "write") {
		t.Errorf("String() = %q", got)
	}
}

func TestKeywordNodesAndLeaves(t *testing.T) {
	g := awpGraph(t)
	cns := Enumerate(g, EnumerateOptions{
		MaxSize:       5,
		KeywordTables: []string{"author", "paper"},
		FreeTables:    []string{"write"},
	})
	for _, c := range cns {
		for _, li := range c.leaves() {
			if c.Nodes[li].Free {
				t.Errorf("free leaf in %s", c)
			}
		}
		if len(c.KeywordNodes()) == 0 {
			t.Errorf("no keyword nodes in %s", c)
		}
	}
}

// ruleTerms computes, independently of the enumerator, the left side
// of the m-term rule: c's keyword leaves plus 1 if a non-leaf node is a
// keyword node.
func ruleTerms(c *CN) int {
	leaf := map[int]bool{}
	for _, li := range c.leaves() {
		leaf[li] = true
	}
	n, inner := 0, 0
	for _, ki := range c.KeywordNodes() {
		if leaf[ki] {
			n++
		} else {
			inner = 1
		}
	}
	return n + inner
}

// TestEnumerateMinimalRule checks the m-term rule on the DBLP schema
// (keyword tables author and paper, then conference too, whose stars
// through paper have keyword middles; free tables write and cite,
// MaxSize 5) for m = 1…5: every CN generated satisfies it, and the
// generated list is exactly the Terms 0 list filtered by it, in the
// same order, so the growth cut-off drops nothing that could be
// minimal. FuzzKernelsAgree's self-referencing schema, every table both
// keyword and free, is checked the same way. One term leaves only the
// single-node CNs. Terms 0 keeps the slide-28 count of E2 (5) and the
// general-free-table count (7).
func TestEnumerateMinimalRule(t *testing.T) {
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Papers, cfg.Conferences = 4, 4, 2
	dblp := schemagraph.FromDB(dataset.DBLP(cfg))
	_, kernel := kernelCorpus(nil)
	for _, tc := range []struct {
		g        *schemagraph.Graph
		kw, free []string
	}{
		{dblp, []string{"author", "paper"}, []string{"write", "cite"}},
		{dblp, []string{"author", "conference", "paper"}, []string{"write", "cite"}},
		{kernel, []string{"dept", "emp"}, []string{"dept", "emp"}},
	} {
		g, kw := tc.g, tc.kw
		opts := EnumerateOptions{MaxSize: 5, KeywordTables: kw, FreeTables: tc.free}
		all := Enumerate(g, opts)
		for m := 1; m <= 5; m++ {
			opts.Terms = m
			var got, want []string
			for _, c := range Enumerate(g, opts) {
				if n := ruleTerms(c); c.Size() > 1 && n > m {
					t.Errorf("%v m=%d: %s needs %d terms", kw, m, c, n)
				}
				if m == 1 && c.Size() != 1 {
					t.Errorf("%v m=1: %s has %d nodes", kw, c, c.Size())
				}
				got = append(got, c.Canonical())
			}
			for _, c := range all {
				if c.Size() == 1 || ruleTerms(c) <= m {
					want = append(want, c.Canonical())
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v m=%d: %d CNs, want the %d of the unpruned %d that meet the rule:\n%s",
					kw, m, len(got), len(want), len(all), strings.Join(got, "\n"))
			}
			if m == 2 && len(got) == len(all) {
				t.Errorf("%v: m=2 prunes none of the %d CNs", kw, len(all))
			}
			t.Logf("%v m=%d: %d of %d CNs", kw, m, len(got), len(all))
		}
	}

	awp := awpGraph(t)
	for _, tc := range []struct {
		free  []string
		terms int
		want  int
	}{
		{[]string{"write"}, 0, 5},
		{[]string{"write", "author", "paper"}, 0, 7},
		{[]string{"write"}, 2, 3}, // the two five-node paths have a keyword middle
	} {
		cns := Enumerate(awp, EnumerateOptions{MaxSize: 5, KeywordTables: []string{"author", "paper"}, FreeTables: tc.free, Terms: tc.terms})
		if len(cns) != tc.want {
			t.Errorf("A-W-P, free %v, Terms %d: %d CNs, want %d", tc.free, tc.terms, len(cns), tc.want)
		}
	}
}

func TestEnumerateMaxCNs(t *testing.T) {
	g := awpGraph(t)
	cns := Enumerate(g, EnumerateOptions{
		MaxSize:       7,
		MaxCNs:        3,
		KeywordTables: []string{"author", "paper"},
		FreeTables:    []string{"write"},
	})
	if len(cns) != 3 {
		t.Fatalf("cap not honored: %d", len(cns))
	}
}

func widomBinding(t *testing.T) (*Binding, []*CN) {
	t.Helper()
	db := dataset.WidomBib()
	ix := invindex.FromDB(db)
	ev := NewBinder(db, ix).BindTraced([]string{"widom", "xml"}, nil)
	g := schemagraph.FromDB(db)
	cns := Enumerate(g, EnumerateOptions{
		MaxSize:       5,
		KeywordTables: ev.KeywordTables(),
		FreeTables:    []string{"write"},
	})
	return ev, cns
}

func TestEvaluatorTupleSets(t *testing.T) {
	ev, _ := widomBinding(t)
	if got := ev.KeywordTables(); !reflect.DeepEqual(got, []string{"author", "paper"}) {
		t.Fatalf("KeywordTables = %v", got)
	}
	if len(ev.KeywordSet("author")) != 1 {
		t.Errorf("author^Q = %d, want 1 (Widom)", len(ev.KeywordSet("author")))
	}
	if len(ev.KeywordSet("paper")) != 2 {
		t.Errorf("paper^Q = %d, want 2 (XML papers)", len(ev.KeywordSet("paper")))
	}
	free := 0
	for _, tp := range ev.db.Table("paper").Tuples() {
		if !ev.kw.Has(tp.ID) {
			free++
		}
	}
	if free != 1 {
		t.Errorf("paper^{} = %d, want 1 (Datalog paper)", free)
	}
	if ev.MaxNodeScore("author") <= 0 {
		t.Errorf("MaxNodeScore(author) must be positive")
	}
}

// mustEvaluate runs EvaluateCN under a context that never ends.
func mustEvaluate(t *testing.T, ev *Binding, c *CN) []Result {
	t.Helper()
	rs, err := ev.EvaluateCN(context.Background(), c)
	if err != nil {
		t.Fatalf("EvaluateCN(%s): %v", c, err)
	}
	return rs
}

// TestEvaluateCNHonoursCancelledContext: the depth-first evaluator
// checks ctx before any join work, so an already-cancelled context
// yields ctx's error and no results even for a CN with answers.
func TestEvaluateCNHonoursCancelledContext(t *testing.T) {
	ev, cns := widomBinding(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	answered := 0
	for _, c := range cns {
		if len(mustEvaluate(t, ev, c)) > 0 {
			answered++
		}
		rs, err := ev.EvaluateCN(ctx, c)
		if !errors.Is(err, context.Canceled) || rs != nil {
			t.Fatalf("EvaluateCN(%s) under a cancelled ctx = %d results, %v; want none, context.Canceled", c, len(rs), err)
		}
	}
	if answered == 0 {
		t.Fatal("fixture lost its shape: no CN has an answer")
	}
}

func TestEvaluateCNProducesJoinTrees(t *testing.T) {
	ev, cns := widomBinding(t)
	total := 0
	for _, c := range cns {
		rs := mustEvaluate(t, ev, c)
		total += len(rs)
		for _, r := range rs {
			if len(r.Tuples) != c.Size() {
				t.Fatalf("row arity %d != CN size %d", len(r.Tuples), c.Size())
			}
			// AND semantics: the result must cover both keywords.
			text := ""
			for i, tp := range r.Tuples {
				tbl := ev.db.Table(c.Nodes[i].Table)
				text += " " + tp.Text(tbl.Schema)
			}
			lower := strings.ToLower(text)
			if !strings.Contains(lower, "widom") || !strings.Contains(lower, "xml") {
				t.Errorf("result does not cover both terms: %q", text)
			}
			if r.Score <= 0 {
				t.Errorf("score must be positive")
			}
		}
	}
	// Widom wrote the XML streams paper: the A-W-P CN yields exactly that
	// result; no single tuple covers both keywords so singleton CNs are
	// empty.
	if total == 0 {
		t.Fatalf("no results at all")
	}
	for _, c := range cns {
		if c.Size() == 1 {
			if n := len(mustEvaluate(t, ev, c)); n != 0 {
				t.Errorf("singleton CN %s yielded %d results, want 0", c, n)
			}
		}
		if c.Size() == 3 {
			rs := mustEvaluate(t, ev, c)
			if len(rs) != 1 {
				t.Errorf("A-W-P yielded %d results, want 1 (Widom's XML streams)", len(rs))
			}
		}
	}
}

func TestMinimalityRejectsRedundantLeaves(t *testing.T) {
	ev, cns := widomBinding(t)
	// In the 5-node CN P^Q - W - A^Q - W - P^Q, valid results need the
	// author to contribute "widom" and each paper to contribute "xml"...
	// but any result whose two papers both match and author matches too
	// would stay total after dropping one paper; minimality must reject
	// rows where a leaf is redundant.
	for _, c := range cns {
		if c.Size() != 5 {
			continue
		}
		for _, r := range mustEvaluate(t, ev, c) {
			for _, li := range c.leaves() {
				cover := map[string]bool{}
				for i, tp := range r.Tuples {
					if i == li {
						continue
					}
					tbl := ev.db.Table(c.Nodes[i].Table)
					low := strings.ToLower(tp.Text(tbl.Schema))
					for _, term := range ev.terms {
						if strings.Contains(low, term) {
							cover[term] = true
						}
					}
				}
				if len(cover) == len(ev.terms) {
					t.Errorf("non-minimal result survived in %s", c)
				}
			}
		}
	}
}

// TestTopKStrategiesAgree: Sparse and Global Pipeline must return
// Naive's top-k byte for byte — score bits, CN and tuple IDs — for every
// logged query at k = 1, 3 and 10. Equal-score twins are where they
// could part: a strategy that stopped once the k-th score merely tied
// the best remaining bound could lose a twin that ranks earlier under
// Less, so each stops only when the k-th score dominates it.
func TestTopKStrategiesAgree(t *testing.T) {
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	ix := invindex.FromDB(db)
	g := schemagraph.FromDB(db)
	bd := NewBinder(db, ix)
	for _, le := range dataset.QueryLog(db, 400, 7) {
		ev := bd.BindTraced(le.Terms, nil)
		cns := Enumerate(g, EnumerateOptions{
			MaxSize:       4,
			KeywordTables: ev.KeywordTables(),
			FreeTables:    []string{"write", "cite"},
		})
		all := TopKNaive(ev, cns, 10)
		for _, k := range []int{1, 3, 10} {
			want := renderResults(all[:min(k, len(all))])
			if got := renderResults(TopKSparse(ev, cns, k)); got != want {
				t.Errorf("%v k=%d: sparse differs from naive:\n%s\nwant\n%s", le.Terms, k, got, want)
			}
			gp, err := TopKGlobalPipelineCtx(context.Background(), ev, cns, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderResults(gp); got != want {
				t.Errorf("%v k=%d: global pipeline differs from naive:\n%s\nwant\n%s", le.Terms, k, got, want)
			}
		}
	}
}

func TestTopKWithFewerResultsThanK(t *testing.T) {
	ev, cns := widomBinding(t)
	naive := TopKNaive(ev, cns, 50)
	sparse := TopKSparse(ev, cns, 50)
	gp, err := TopKGlobalPipelineCtx(context.Background(), ev, cns, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) != len(sparse) || len(naive) != len(gp) {
		t.Errorf("result counts differ: naive=%d sparse=%d gp=%d",
			len(naive), len(sparse), len(gp))
	}
}

// TestSelfLoopEdgeOrientation: the cite table references paper twice
// (citing, cited). The P-cite-P candidate network must bind the citing and
// cited sides correctly and not fabricate reversed citations.
func TestSelfLoopEdgeOrientation(t *testing.T) {
	db := relstore.NewDB()
	db.MustCreateTable(&relstore.TableSchema{
		Name: "paper",
		Columns: []relstore.Column{
			{Name: "pid", Type: relstore.KindInt},
			{Name: "title", Type: relstore.KindString, Text: true},
		},
		Key: "pid",
	})
	db.MustCreateTable(&relstore.TableSchema{
		Name: "cite",
		Columns: []relstore.Column{
			{Name: "citing", Type: relstore.KindInt},
			{Name: "cited", Type: relstore.KindInt},
		},
		ForeignKeys: []relstore.ForeignKey{
			{Column: "citing", RefTable: "paper", RefColumn: "pid"},
			{Column: "cited", RefTable: "paper", RefColumn: "pid"},
		},
	})
	a := db.MustInsert("paper", map[string]relstore.Value{"pid": relstore.Int(1), "title": relstore.String("xml processing")})
	bp := db.MustInsert("paper", map[string]relstore.Value{"pid": relstore.Int(2), "title": relstore.String("keyword search")})
	db.MustInsert("cite", map[string]relstore.Value{"citing": relstore.Int(1), "cited": relstore.Int(2)})

	ix := invindex.FromDB(db)
	ev := NewBinder(db, ix).BindTraced([]string{"xml", "keyword"}, nil)
	g := schemagraph.FromDB(db)
	cns := Enumerate(g, EnumerateOptions{
		MaxSize:       3,
		KeywordTables: ev.KeywordTables(),
		FreeTables:    []string{"cite"},
	})
	var results []Result
	for _, c := range cns {
		results = append(results, mustEvaluate(t, ev, c)...)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want exactly 1 (A cites B)", len(results))
	}
	// The bound papers are exactly A and B (each once).
	seen := map[relstore.TupleID]int{}
	for _, tp := range results[0].Tuples {
		if tp.Table == "paper" {
			seen[tp.ID]++
		}
	}
	if seen[a.ID] != 1 || seen[bp.ID] != 1 {
		t.Fatalf("paper bindings = %v", seen)
	}
	// Verify directionality: the citing node binds A ("xml"), the cited
	// node binds B — check by locating the Via columns.
	r := results[0]
	for _, e := range r.CN.Edges {
		node := e.A
		if r.CN.Nodes[node].Table != "paper" {
			node = e.B
		}
		tp := r.Tuples[node]
		if e.Via.FromCol == "citing" && tp.ID != a.ID {
			t.Errorf("citing side bound to %d, want %d", tp.ID, a.ID)
		}
		if e.Via.FromCol == "cited" && tp.ID != bp.ID {
			t.Errorf("cited side bound to %d, want %d", tp.ID, bp.ID)
		}
	}
	// No reversed citation exists: a second query direction must not
	// invent (B cites A).
	ev2 := NewBinder(db, ix).BindTraced([]string{"keyword", "xml"}, nil)
	total := 0
	for _, c := range cns {
		total += len(mustEvaluate(t, ev2, c))
	}
	if total != 1 {
		t.Fatalf("reversed-term query results = %d, want 1", total)
	}
}

// Property: Canonical is invariant under node/edge permutation — two CNs
// that differ only in construction order encode identically.
func TestCanonicalPermutationInvariant(t *testing.T) {
	e1 := schemagraph.Edge{From: "write", FromCol: "aid", To: "author", ToCol: "aid", Weight: 1}
	e2 := schemagraph.Edge{From: "write", FromCol: "pid", To: "paper", ToCol: "pid", Weight: 1}
	base := &CN{
		Nodes: []NodeSpec{
			{Table: "author"}, {Table: "write", Free: true}, {Table: "paper"},
			{Table: "write", Free: true}, {Table: "author"},
		},
		Edges: []EdgeSpec{
			{A: 0, B: 1, Via: e1}, {A: 1, B: 2, Via: e2},
			{A: 2, B: 3, Via: e2}, {A: 3, B: 4, Via: e1},
		},
	}
	want := base.Canonical()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(base.Nodes))
		inv := make([]int, len(perm))
		for i, p := range perm {
			inv[i] = p
		}
		c := &CN{Nodes: make([]NodeSpec, len(base.Nodes))}
		for i, p := range inv {
			c.Nodes[p] = base.Nodes[i]
		}
		edges := append([]EdgeSpec(nil), base.Edges...)
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			ne := EdgeSpec{A: inv[e.A], B: inv[e.B], Via: e.Via}
			if rng.Intn(2) == 0 {
				ne.A, ne.B = ne.B, ne.A
			}
			c.Edges = append(c.Edges, ne)
		}
		return c.Canonical() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
