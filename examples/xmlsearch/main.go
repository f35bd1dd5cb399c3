// XML scenario: SLCA/ELCA search over documents, XSeek return-node
// inference, XReal return-type inference, query-biased snippets and
// describable result clustering — the XML half of the tutorial in one run.
package main

import (
	"context"
	"fmt"

	"kwsearch/internal/cluster"
	"kwsearch/internal/dataset"
	"kwsearch/internal/lca"
	"kwsearch/internal/snippet"
	"kwsearch/internal/xmltree"
	"kwsearch/internal/xreal"
	"kwsearch/internal/xseek"
)

func main() {
	// --- SLCA vs ELCA on the conf document -------------------------------
	conf := dataset.ConfDemoXML()
	ix := xmltree.NewIndex(conf)
	terms := []string{"paper", "mark"}
	fmt.Printf("Q = %v on the conf document\n", terms)
	fmt.Println("SLCA results:")
	for _, n := range lca.SLCA(ix, terms, nil) {
		fmt.Printf("  %s (%s)\n", n.LabelPath(), n.Dewey)
	}
	fmt.Println("ELCA results:")
	elcas, _ := lca.ELCAStack(context.Background(), ix, terms, nil) // Background never ends: no error
	for _, n := range elcas {
		fmt.Printf("  %s (%s)\n", n.LabelPath(), n.Dewey)
	}

	// --- XSeek return nodes ----------------------------------------------
	cats := xseek.Classify(conf)
	qa := xseek.AnalyzeQuery(conf, terms)
	fmt.Printf("\nXSeek: return labels %v, predicates %v\n", qa.ReturnLabels, qa.Predicates)
	for _, r := range lca.SLCA(ix, terms, nil) {
		for _, rn := range xseek.InferReturnNodes(conf, cats, qa, r) {
			kind := "implicit entity"
			if rn.Explicit {
				kind = "explicit"
			}
			fmt.Printf("  return %s (%s): %q\n", rn.Node.LabelPath(), kind, xmltree.SubtreeText(rn.Node))
		}
	}

	// --- XReal return-type inference on the generated bibliography --------
	bib := xmltree.NewIndex(dataset.BibXML(dataset.DefaultBibConfig()))
	fmt.Println("\nXReal return types for Q = [keyword search] on generated bib:")
	for i, ts := range xreal.InferReturnType(bib, []string{"keyword", "search"}, xreal.DefaultOptions()) {
		if i == 3 {
			break
		}
		fmt.Printf("  %-24s %.3f\n", ts.Path, ts.Score)
	}

	// --- Snippets and describable clustering over the auctions ------------
	auctions := dataset.AuctionsXML()
	var results []cluster.Result
	for _, n := range auctions.Root.Children {
		results = append(results, cluster.Result{Root: n})
	}
	q := []string{"auction", "seller", "buyer", "tom"}
	fmt.Printf("\nQ = %v on the auctions document\n", q)
	for _, c := range cluster.ByRole(results, q) {
		fmt.Printf("cluster %s\n", cluster.Describe(c))
		for _, r := range c.Results {
			items := snippet.Generate(r.Root, q, 3)
			fmt.Printf("  %s:", r.Root.Label)
			for _, it := range items {
				fmt.Printf(" %s=%s", it.Label, it.Value)
			}
			fmt.Println()
		}
	}
}
