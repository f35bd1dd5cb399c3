// Interpretation scenario: the structured-query inference side of the
// tutorial — SUITS/IQP interpretations over relational data, probabilistic
// XPath generation over XML, QUnit retrieval, D-reachability pruning,
// distinct-core communities, and keyword search over a tuple stream.
package main

import (
	"fmt"

	"kwsearch/internal/cn"
	"kwsearch/internal/community"
	"kwsearch/internal/datagraph"
	"kwsearch/internal/dataset"
	"kwsearch/internal/forms"
	"kwsearch/internal/interp"
	"kwsearch/internal/invindex"
	"kwsearch/internal/reach"
	"kwsearch/internal/schemagraph"
	"kwsearch/internal/stream"
	"kwsearch/internal/xpathgen"
)

func main() {
	db := dataset.WidomBib()
	g := schemagraph.FromDB(db)
	ix := invindex.FromDB(db)

	// --- Structured interpretations of a keyword query ---------------------
	in := interp.New(db, nil)
	fmt.Println("interpretations of 'widom xml':")
	for _, it := range in.Interpret("widom xml", 3) {
		fmt.Printf("  %s\n", it)
	}

	// --- Probabilistic XPath over the XML view -----------------------------
	tr := dataset.BibXML(dataset.DefaultBibConfig())
	fmt.Println("\nXPath interpretations of 'keyword search' over the XML bib:")
	for i, sc := range xpathgen.Generate(tr, []string{"keyword", "search"}, 3) {
		fmt.Printf("  %d. %.4f  %s (%d results)\n", i+1, sc.Prob, sc.Query, len(sc.Results))
	}

	// --- QUnits -------------------------------------------------------------
	f := &forms.Form{Tables: []string{"author", "paper", "write"}}
	units := forms.MaterializeQUnits(db, g, f, 0)
	fmt.Printf("\n%d author-paper QUnits; retrieval for 'widom xml':\n", len(units))
	for _, h := range forms.SearchQUnits(units, []string{"widom", "xml"}, 3) {
		fmt.Printf("  %.2f  %s\n", h.Score, h.QUnit.Text)
	}

	// --- D-reachability pruning + communities over Seltzer ------------------
	sdb := dataset.SeltzerBerkeley()
	sg := datagraph.FromDB(sdb, nil)
	six := invindex.FromDB(sdb)
	terms := []string{"seltzer", "berkeley"}
	groups := make([][]datagraph.NodeID, len(terms))
	for i, t := range terms {
		for _, d := range six.Docs(t) {
			groups[i] = append(groups[i], datagraph.NodeID(d))
		}
	}
	rix := reach.Build(sdb, sg, 1)
	pruned, n := rix.PruneSeeds(groups, terms)
	fmt.Printf("\nreachability pruning at D=1: removed %d hopeless seed(s)\n", n)
	for _, c := range community.DistinctCore(sg, pruned, 3, 0) {
		fmt.Printf("  community core %v: %d centers, cost %.0f\n", c.Core, len(c.Centers), c.Cost)
	}

	// --- Streaming search ----------------------------------------------------
	b := cn.NewBinder(db, ix).BindTraced([]string{"widom", "xml"}, nil)
	cns := cn.Enumerate(g, cn.EnumerateOptions{
		MaxSize:       5,
		KeywordTables: b.KeywordTables(),
		FreeTables:    []string{"write"},
	})
	mesh := stream.NewMesh(db, []string{"widom", "xml"}, cns)
	fmt.Println("\nstreaming the bibliography tuple by tuple:")
	for _, name := range db.TableNames() {
		for _, tp := range db.Table(name).Tuples() {
			for _, r := range mesh.Arrive(tp) {
				fmt.Printf("  emitted on %s#%d arrival: %s\n", tp.Table, tp.ID, r.CN)
			}
		}
	}
}
