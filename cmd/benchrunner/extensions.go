package main

import (
	"context"
	"fmt"

	"kwsearch/internal/community"
	"kwsearch/internal/datagraph"
	"kwsearch/internal/dataset"
	"kwsearch/internal/forms"
	"kwsearch/internal/interp"
	"kwsearch/internal/invindex"
	"kwsearch/internal/reach"
	"kwsearch/internal/schemagraph"
	"kwsearch/internal/stream"
	"kwsearch/internal/xmltree"
	"kwsearch/internal/xpathgen"

	"kwsearch/internal/cn"
)

func init() {
	register("E27", "slides 44-46 — structured-query interpretation: bindings + template priors", runE27)
	register("E28", "slides 31, 126-128 — distinct-core communities and the EASE pair index", runE28)
	register("E29", "slides 26, 64 — QUnits: materialize semantic units, retrieve by keywords", runE29)
	register("E30", "slide 134 — keyword search over relational streams: exactly-once mesh emission", runE30)
	register("E31", "slides 47-48 — probabilistic XPath generation from keywords", runE31)
	register("E32", "slide 124 — D-reachability indexes prune hopeless seeds", runE32)
}

func runE27() error {
	db := dataset.WidomBib()
	in := interp.New(db, nil)
	its := in.Interpret("widom xml", 3)
	for _, it := range its {
		fmt.Printf("   %s\n", it)
	}
	if len(its) == 0 {
		return fmt.Errorf("no interpretations")
	}
	top := its[0]
	bound := map[string]string{}
	for _, b := range top.Bindings {
		bound[b.Keyword] = b.Table + "." + b.Column
	}
	if err := expect(bound["widom"] == "author.name" && bound["xml"] == "paper.title",
		"top bindings = %v", bound); err != nil {
		return err
	}
	// A log favouring the paper-only template reorders single-keyword
	// interpretations (slide 46: probabilities from the query log).
	withLog := interp.New(db, []interp.LogEntry{
		{Template: "paper", Bound: [][2]string{{"paper", "title"}}, Count: 9},
	})
	its2 := withLog.Interpret("xml", 1)
	return expect(len(its2) == 1 && its2[0].Template() == "paper",
		"log-informed interpretation = %v", its2)
}

func runE28() error {
	db := dataset.SeltzerBerkeley()
	ix := invindex.FromDB(db)
	g := datagraph.FromDB(db, nil)
	groups := [][]datagraph.NodeID{}
	terms := []string{"seltzer", "berkeley"}
	matches := map[string][]datagraph.NodeID{}
	for _, t := range terms {
		var grp []datagraph.NodeID
		for _, d := range ix.Docs(t) {
			grp = append(grp, datagraph.NodeID(d))
		}
		groups = append(groups, grp)
		matches[t] = grp
	}
	comms := community.DistinctCore(g, groups, 3, 0)
	for _, c := range comms {
		fmt.Printf("   core %v: %d centers, cost %.0f\n", c.Core, len(c.Centers), c.Cost)
	}
	if err := expect(len(comms) == 2,
		"want 2 distinct cores (Seltzer×{university, project}), got %d", len(comms)); err != nil {
		return err
	}
	pix := community.BuildPairIndex(g, matches, 3)
	centers := pix.Lookup("seltzer", "berkeley")
	fmt.Printf("   EASE pair index: %d entries; (seltzer,berkeley) -> %d centers, best sim %.2f\n",
		pix.Entries(), len(centers), centers[0].Sim)
	return expect(len(centers) > 0, "pair index missing the term pair")
}

func runE29() error {
	db := dataset.WidomBib()
	g := schemagraph.FromDB(db)
	f := &forms.Form{Tables: []string{"author", "paper", "write"}}
	units := forms.MaterializeQUnits(db, g, f, 0)
	hits := forms.SearchQUnits(units, []string{"widom", "xml"}, 3)
	fmt.Printf("   materialized %d author-paper units; 'widom xml' retrieves %d\n",
		len(units), len(hits))
	for _, h := range hits {
		fmt.Printf("   %.2f  %s\n", h.Score, h.QUnit.Text)
	}
	return firstErr(
		expect(len(units) == 6, "units = %d, want 6", len(units)),
		expect(len(hits) == 1, "hits = %d, want 1", len(hits)),
	)
}

func runE30() error {
	db := dataset.WidomBib()
	ix := invindex.FromDB(db)
	terms := []string{"widom", "xml"}
	ev := cn.NewEvaluator(db, ix, terms)
	g := schemagraph.FromDB(db)
	cns := cn.Enumerate(g, cn.EnumerateOptions{
		MaxSize:       5,
		KeywordTables: ev.KeywordTables(),
		FreeTables:    []string{"write"},
	})
	batch := 0
	for _, c := range cns {
		rs, _ := ev.EvaluateCN(context.Background(), c) // Background never ends: no error
		batch += len(rs)
	}
	m := stream.NewMesh(db, terms, cns)
	emitted := 0
	for _, name := range db.TableNames() {
		for _, tp := range db.Table(name).Tuples() {
			emitted += len(m.Arrive(tp))
		}
	}
	fmt.Printf("   %d CNs armed; streamed %d tuples; emitted %d results (batch: %d)\n",
		len(cns), m.Seen(), emitted, batch)
	return expect(emitted == batch, "stream emitted %d, batch %d", emitted, batch)
}

func runE31() error {
	// The slide 47-48 pipeline: bindings → operators → valid scored XPath.
	b := xmltree.NewBuilder("bib")
	conf := b.Child(b.Root(), "conf", "")
	for _, row := range [][2]string{{"XML streams", "Widom"}, {"XML views", "Widom"}, {"Datalog", "Ullman"}} {
		p := b.Child(conf, "paper", "")
		b.Child(p, "title", row[0])
		b.Child(p, "author", row[1])
	}
	tr := b.Freeze()
	got := xpathgen.Generate(tr, []string{"widom", "xml"}, 3)
	for _, sc := range got {
		fmt.Printf("   %.4f  %s  (%d results)\n", sc.Prob, sc.Query, len(sc.Results))
	}
	if err := expect(len(got) > 0, "no queries generated"); err != nil {
		return err
	}
	return expect(got[0].Query.Target == "paper",
		"top target = %s, want paper (IG prefers the discriminating element)", got[0].Query.Target)
}

func runE32() error {
	db := dataset.SeltzerBerkeley()
	g := datagraph.FromDB(db, nil)
	ix := invindex.FromDB(db)
	rix := reach.Build(db, g, 1)
	terms := []string{"seltzer", "berkeley"}
	groups := make([][]datagraph.NodeID, len(terms))
	for i, term := range terms {
		for _, d := range ix.Docs(term) {
			groups[i] = append(groups[i], datagraph.NodeID(d))
		}
	}
	pruned, n := rix.PruneSeeds(groups, terms)
	fmt.Printf("   D=1 index (%d entries) pruned %d of %d seeds before any expansion\n",
		rix.Entries(), n, len(groups[0])+len(groups[1]))
	return firstErr(
		expect(n > 0, "nothing pruned"),
		expect(len(pruned[0]) > 0 && len(pruned[1]) > 0, "over-pruned: %v", pruned),
	)
}
