package main

import (
	"fmt"
	"math"
	"strings"

	"kwsearch/internal/banks"
	"kwsearch/internal/cn"
	"kwsearch/internal/datagraph"
	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/lca"
	"kwsearch/internal/ntc"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
	"kwsearch/internal/steiner"
	"kwsearch/internal/xmltree"
	"kwsearch/internal/xreal"
	"kwsearch/internal/xseek"
)

func init() {
	register("E1", "slide 7 — 'Seltzer, Berkeley' assembled across relations", runE1)
	register("E2", "slide 28 — candidate networks for Q = 'Widom XML' on A-W-P", runE2)
	register("E3", "slide 30 — group Steiner tree a(b(c,d)) costs 10 vs star 13", runE3)
	register("E4", "slides 32-33 — CA vs SLCA pruning on the conf tree", runE4)
	register("E5", "slides 42-43 — NTC entropies H(A)=2.25 H(P)=1.92 I=1.59; I(E,P)=1.0", runE5)
	register("E6", "slide 52 — Précis path weight 0.36 < 0.4 excludes sponsor", runE6)
	register("E26", "slides 37-38 — XReal return type: conf/paper > journal/paper > phdthesis", runE26)
}

func runE1() error {
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
	answers, _ := banks.BackwardSearch(g, groups, banks.Options{K: 3})
	for _, a := range answers {
		root := db.TupleByID(int32AsTupleID(a.Root))
		fmt.Printf("   cost %.0f  root %s#%d  matches:", a.Cost, root.Table, root.ID)
		for _, m := range a.Matches {
			mt := db.TupleByID(int32AsTupleID(m))
			fmt.Printf(" %s#%d", mt.Table, mt.ID)
		}
		fmt.Println()
	}
	return firstErr(
		expect(len(answers) >= 2, "want >=2 assemblies, got %d", len(answers)),
		expect(len(answers) > 0 && answers[0].Cost == 1, "best assembly cost = %v, want 1", answers[0].Cost),
	)
}

func runE2() error {
	g, err := schemagraph.New(
		[]string{"author", "write", "paper"},
		[]schemagraph.Edge{
			{From: "write", FromCol: "aid", To: "author", ToCol: "aid"},
			{From: "write", FromCol: "pid", To: "paper", ToCol: "pid"},
		})
	if err != nil {
		return err
	}
	cns := cn.Enumerate(g, cn.EnumerateOptions{
		MaxSize:       5,
		KeywordTables: []string{"author", "paper"},
		FreeTables:    []string{"write"},
	})
	for i, c := range cns {
		fmt.Printf("   CN %d (size %d): %s\n", i+1, c.Size(), c)
	}
	return expect(len(cns) == 5, "want the slide's 5 CNs, got %d", len(cns))
}

func runE3() error {
	g := datagraph.New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 2)
	g.AddEdge(1, 3, 3)
	g.AddEdge(0, 2, 6)
	g.AddEdge(0, 3, 7)
	tree, ok := steiner.GroupSteiner(g, [][]datagraph.NodeID{{0}, {2}, {3}})
	if !ok {
		return fmt.Errorf("no GST")
	}
	fmt.Printf("   GST cost = %.0f (paper: 10), star a(c,d) = 13, edges = %v\n", tree.Cost, tree.Edges)
	return expect(tree.Cost == 10, "GST cost = %v, want 10", tree.Cost)
}

func runE4() error {
	ix := xmltree.NewIndex(dataset.ConfXML())
	terms := []string{"keyword", "mark"}
	cas := lca.CommonAncestors(ix, terms)
	slcas := lca.SLCA(ix, terms, nil)
	fmt.Printf("   CAs:  %s\n", nodeLabels(cas))
	fmt.Printf("   SLCA: %s\n", nodeLabels(slcas))
	return firstErr(
		expect(len(cas) == 2, "CAs = %d, want 2 (conf, paper)", len(cas)),
		expect(len(slcas) == 1 && slcas[0].Label == "paper", "SLCA = %v, want the keyword paper", nodeLabels(slcas)),
	)
}

func nodeLabels(ns []*xmltree.Node) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = fmt.Sprintf("%s(%s)", n.Label, n.Dewey)
	}
	return strings.Join(parts, " ")
}

func runE5() error {
	ap := ntc.NewJoint(2)
	ap.Add("A1", "P1")
	ap.Add("A2", "P1")
	ap.Add("A3", "P2")
	ap.Add("A4", "P2")
	ap.Add("A5", "P3")
	ap.Add("A5", "P4")
	ep := ntc.NewJoint(2)
	ep.Add("E1", "P1")
	ep.Add("E2", "P2")
	fmt.Printf("   author-paper: H(A)=%.2f H(P)=%.2f H(A,P)=%.2f I=%.2f I*=%.2f\n",
		ap.MarginalEntropy(0), ap.MarginalEntropy(1), ap.JointEntropy(),
		ap.TotalCorrelation(), ap.NormalizedTotalCorrelation())
	fmt.Printf("   editor-paper: H(E)=%.2f H(P)=%.2f H(E,P)=%.2f I=%.2f I*=%.2f\n",
		ep.MarginalEntropy(0), ep.MarginalEntropy(1), ep.JointEntropy(),
		ep.TotalCorrelation(), ep.NormalizedTotalCorrelation())
	near := func(got, want float64) bool { return math.Abs(got-want) < 0.01 }
	return firstErr(
		expect(near(ap.MarginalEntropy(0), 2.25), "H(A) = %v", ap.MarginalEntropy(0)),
		expect(near(ap.MarginalEntropy(1), 1.92), "H(P) = %v", ap.MarginalEntropy(1)),
		expect(near(ap.JointEntropy(), 2.58), "H(A,P) = %v", ap.JointEntropy()),
		expect(near(ap.TotalCorrelation(), 1.59), "I(A,P) = %v", ap.TotalCorrelation()),
		expect(near(ep.TotalCorrelation(), 1.00), "I(E,P) = %v", ep.TotalCorrelation()),
	)
}

func runE6() error {
	g, err := schemagraph.New(
		[]string{"person", "review", "conference", "sponsor"},
		[]schemagraph.Edge{
			{From: "person", To: "review", Weight: 0.8},
			{From: "review", To: "conference", Weight: 0.9},
			{From: "conference", To: "sponsor", Weight: 0.5},
		})
	if err != nil {
		return err
	}
	w := g.PathWeight([]string{"person", "review", "conference", "sponsor"})
	schema := xseek.PrecisSchema(g, "person", 0.4, 0)
	fmt.Printf("   path weight person→…→sponsor = %.2f (paper: 0.36); schema@0.4 = %v\n", w, schema)
	return firstErr(
		expect(math.Abs(w-0.36) < 1e-9, "weight = %v, want 0.36", w),
		expect(len(schema) == 3, "schema = %v, want sponsor excluded", schema),
	)
}

func runE26() error {
	b := xmltree.NewBuilder("bib")
	conf := b.Child(b.Root(), "conf", "")
	for _, ti := range []string{"XML streams", "XML views", "Datalog"} {
		p := b.Child(conf, "paper", "")
		b.Child(p, "title", ti)
		if strings.Contains(ti, "XML") {
			b.Child(p, "author", "Widom")
		} else {
			b.Child(p, "author", "Ullman")
		}
	}
	j := b.Child(b.Root(), "journal", "")
	p := b.Child(j, "paper", "")
	b.Child(p, "title", "XML integration")
	b.Child(p, "author", "Widom")
	th := b.Child(b.Root(), "phdthesis", "")
	tp := b.Child(th, "paper", "")
	b.Child(tp, "title", "Storage managers")
	b.Child(tp, "author", "Widom")

	ix := xmltree.NewIndex(b.Freeze())
	types := xreal.InferReturnType(ix, []string{"widom", "xml"}, xreal.DefaultOptions())
	scores := map[string]float64{}
	for _, t := range types {
		fmt.Printf("   %-22s %.3f\n", t.Path, t.Score)
		scores[t.Path] = t.Score
	}
	_, phd := scores["/bib/phdthesis/paper"]
	return firstErr(
		expect(scores["/bib/conf/paper"] > scores["/bib/journal/paper"],
			"conf/paper must outrank journal/paper"),
		expect(!phd, "phdthesis/paper must score 0 (omitted)"),
	)
}

func int32AsTupleID(n datagraph.NodeID) relstore.TupleID { return relstore.TupleID(n) }
