package main

import (
	"fmt"
	"strings"

	"kwsearch/internal/aggregate"
	"kwsearch/internal/cluster"
	"kwsearch/internal/dataset"
	"kwsearch/internal/diff"
	"kwsearch/internal/eval"
	"kwsearch/internal/lca"
	"kwsearch/internal/xmltree"
)

func init() {
	register("E10", "slides 16/164-165 — table analysis: {pool, motorcycle, american food} → (Dec,TX), (*,MI)", runE10)
	register("E11", "slides 150-153 — result differentiation: comparison table DoD", runE11)
	register("E12", "slides 108-109 — query-consistency axiom catches a broken engine", runE12)
	register("E13", "slides 161-162 — describable clustering of 'auction seller buyer Tom'", runE13)
	register("E14", "slides 166-167 — text cube top cells for 'powerful laptop'", runE14)
	register("E25", "slides 105-106 — INEX gP/AgP with tolerance-window reading", runE25)
}

func runE10() error {
	db := dataset.EventsDB()
	tbl := db.Table("event")
	cells := aggregate.MinimalGroupBys(tbl, tbl.Tuples(), []string{"month", "state"},
		[]string{"pool", "motorcycle", "american food"})
	for _, c := range cells {
		fmt.Printf("   minimal cell %s\n", c)
	}
	joined := ""
	for _, c := range cells {
		joined += c.String()
	}
	return firstErr(
		expect(len(cells) == 2, "cells = %d, want 2", len(cells)),
		expect(strings.Contains(joined, "(Dec, TX)") && strings.Contains(joined, "(*, MI)"),
			"cells = %s", joined),
	)
}

func runE11() error {
	rs := []diff.ResultFeatures{
		{Name: "ICDE 2000", Features: []diff.Feature{
			{Type: "conf:year", Value: "2000"},
			{Type: "paper:title", Value: "OLAP"},
			{Type: "paper:title", Value: "data mining"},
			{Type: "paper:title", Value: "query"},
			{Type: "author:country", Value: "USA"},
		}},
		{Name: "ICDE 2010", Features: []diff.Feature{
			{Type: "conf:year", Value: "2010"},
			{Type: "paper:title", Value: "cloud"},
			{Type: "paper:title", Value: "scalability"},
			{Type: "paper:title", Value: "query"},
			{Type: "author:country", Value: "USA"},
		}},
	}
	slideTable := diff.Table{Selected: [][]diff.Feature{
		{{Type: "conf:year", Value: "2000"}, {Type: "paper:title", Value: "OLAP"}, {Type: "paper:title", Value: "data mining"}},
		{{Type: "conf:year", Value: "2010"}, {Type: "paper:title", Value: "cloud"}, {Type: "paper:title", Value: "scalability"}},
	}}
	weak := diff.WeakLocalOptimal(rs, 3)
	strong := diff.StrongLocalOptimal(rs, 3)
	opt := diff.Exhaustive(rs, 3)
	fmt.Printf("   DoD: slide table=%d  weak=%d  strong=%d  optimum=%d\n",
		diff.DoD(slideTable), diff.DoD(weak), diff.DoD(strong), diff.DoD(opt))
	return firstErr(
		expect(diff.DoD(slideTable) == 2, "slide table DoD = %d, want 2", diff.DoD(slideTable)),
		expect(diff.DoD(strong) == diff.DoD(opt), "strong local optimum %d below optimum %d",
			diff.DoD(strong), diff.DoD(opt)),
	)
}

func runE12() error {
	ix := xmltree.NewIndex(dataset.ConfDemoXML())
	slca := func(ix *xmltree.Index, terms []string) []*xmltree.Node {
		return lca.SLCA(ix, terms, nil)
	}
	broken := func(ix2 *xmltree.Index, terms []string) []*xmltree.Node {
		if len(terms) >= 3 {
			return ix2.Tree().NodesByLabel("demo")
		}
		return lca.SLCA(ix2, terms, nil)
	}
	vGood := eval.CheckQueryConsistency(slca, ix, []string{"paper", "mark"}, "sigmod")
	vBad := eval.CheckQueryConsistency(broken, ix, []string{"paper", "mark"}, "sigmod")
	fmt.Printf("   SLCA violations: %d; broken-engine violations: %d\n", len(vGood), len(vBad))
	for _, v := range vBad {
		fmt.Printf("   caught: %s — %s\n", v.Axiom, v.Detail)
	}
	return firstErr(
		expect(len(vGood) == 0, "SLCA violated consistency: %v", vGood),
		expect(len(vBad) > 0, "broken engine not caught"),
	)
}

func runE13() error {
	tr := dataset.AuctionsXML()
	var rs []cluster.Result
	for _, n := range tr.Root.Children {
		rs = append(rs, cluster.Result{Root: n})
	}
	clusters := cluster.ByRole(rs, []string{"auction", "seller", "buyer", "tom"})
	for _, c := range clusters {
		fmt.Printf("   %s\n", cluster.Describe(c))
	}
	if len(clusters) != 3 {
		return fmt.Errorf("clusters = %d, want 3 roles", len(clusters))
	}
	sub := cluster.SplitByContext(clusters[0], 0)
	for _, c := range sub {
		fmt.Printf("   split: %s\n", cluster.Describe(c))
	}
	return expect(len(sub) == 2, "seller cluster splits into %d contexts, want 2", len(sub))
}

func runE14() error {
	var docs []aggregate.Doc
	for _, r := range dataset.Laptops() {
		docs = append(docs, aggregate.Doc{
			Dims: map[string]string{"Brand": r.Brand, "Model": r.Model, "CPU": r.CPU, "OS": r.OS},
			Text: r.Description,
		})
	}
	cells := aggregate.TopCells(docs, []string{"Brand", "Model", "CPU", "OS"},
		[]string{"powerful", "laptop"}, 2, 5)
	joined := ""
	for _, c := range cells {
		fmt.Printf("   cell {%s} support=%d relevance=%.2f\n", c, c.Support, c.Relevance)
		joined += c.String() + "|"
	}
	return firstErr(
		expect(strings.Contains(joined, "CPU:1.7GHz"), "missing CPU:1.7GHz cell"),
		expect(strings.Contains(joined, "Brand:Acer") || strings.Contains(joined, "Model:AOA110"),
			"missing Acer/AOA110 cell"),
	)
}

func runE25() error {
	b := xmltree.NewBuilder("doc")
	r := b.Root()
	s1 := b.Child(r, "sec", "relevant passage here")
	s2 := b.Child(r, "sec", "irrelevant filler text")
	s3 := b.Child(r, "sec", "another relevant bit")
	tr := b.Freeze()
	relevant := map[xmltree.NodeID]bool{s1.ID: true, s3.ID: true}
	scored := eval.JudgeResults([]*xmltree.Node{s1, s2, s3}, relevant, tr)
	fmt.Printf("   gP(1)=%.3f gP(2)=%.3f gP(3)=%.3f AgP=%.3f\n",
		eval.GP(scored, 1), eval.GP(scored, 2), eval.GP(scored, 3), eval.AgP(scored))
	cut := eval.TruncateAtTolerance(
		eval.JudgeResults([]*xmltree.Node{s2, s1, s3}, relevant, tr), 1)
	fmt.Printf("   tolerance-1 reading stops after %d result(s)\n", len(cut))
	return firstErr(
		expect(eval.GP(scored, 1) > eval.GP(scored, 2), "gP must drop after the irrelevant result"),
		expect(len(cut) == 1, "tolerance window = %d, want 1", len(cut)),
	)
}
