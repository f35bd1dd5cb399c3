package eval

import (
	"math"
	"testing"

	"kwsearch/internal/dataset"
	"kwsearch/internal/lca"
	"kwsearch/internal/xmltree"
)

// slcaEngine adapts the SLCA search to the Engine interface.
func slcaEngine(ix *xmltree.Index, terms []string) []*xmltree.Node {
	return lca.SLCA(ix, terms, nil)
}

// brokenEngine deliberately violates query consistency (the slide-109
// pathology): for the larger query it returns subtrees that do NOT contain
// the added keyword.
func brokenEngine(ix *xmltree.Index, terms []string) []*xmltree.Node {
	res := lca.SLCA(ix, terms, nil)
	if len(terms) < 3 {
		return res
	}
	// Swap in results that ignore the last keyword entirely and that were
	// not results of the shorter query: the demo subtree.
	extra := terms[len(terms)-1]
	var out []*xmltree.Node
	for _, n := range ix.Tree().NodesByLabel("demo") {
		out = append(out, n)
	}
	_ = extra
	return out
}

// TestSlide109QueryConsistency reproduces E12: SLCA passes, the broken
// engine is caught when "sigmod" is added to {paper, mark}.
func TestSlide109QueryConsistency(t *testing.T) {
	ix := xmltree.NewIndex(dataset.ConfDemoXML())
	terms := []string{"paper", "mark"}
	if v := CheckQueryConsistency(slcaEngine, ix, terms, "sigmod"); len(v) != 0 {
		t.Errorf("SLCA violated query consistency: %v", v)
	}
	v := CheckQueryConsistency(brokenEngine, ix, terms, "sigmod")
	if len(v) == 0 {
		t.Fatalf("broken engine not caught")
	}
	if v[0].Axiom != "query-consistency" {
		t.Errorf("violation = %+v", v[0])
	}
}

func TestQueryMonotonicity(t *testing.T) {
	ix := xmltree.NewIndex(dataset.ConfDemoXML())
	if v := CheckQueryMonotonicity(slcaEngine, ix, []string{"paper"}, "mark"); len(v) != 0 {
		t.Errorf("SLCA violated query monotonicity: %v", v)
	}
	grower := func(ix *xmltree.Index, terms []string) []*xmltree.Node {
		// Returns more results for longer queries — violates monotonicity.
		return ix.Tree().Nodes()[:len(terms)+1]
	}
	if v := CheckQueryMonotonicity(grower, ix, []string{"paper"}, "mark"); len(v) == 0 {
		t.Errorf("growing engine not caught")
	}
}

// buildBeforeAfter returns the demo tree and an extension of it with one
// more matching paper appended (IDs of existing nodes preserved).
func buildBeforeAfter() (*xmltree.Index, *xmltree.Index) {
	mk := func(extended bool) *xmltree.Tree {
		b := xmltree.NewBuilder("conf")
		r := b.Root()
		b.Child(r, "name", "SIGMOD")
		p1 := b.Child(r, "paper", "")
		b.Child(p1, "title", "keyword")
		b.Child(p1, "author", "Mark")
		if extended {
			p2 := b.Child(r, "paper", "")
			b.Child(p2, "title", "keyword engines")
			b.Child(p2, "author", "Mark")
		}
		return b.Freeze()
	}
	return xmltree.NewIndex(mk(false)), xmltree.NewIndex(mk(true))
}

func TestDataAxioms(t *testing.T) {
	before, after := buildBeforeAfter()
	terms := []string{"keyword", "mark"}
	if v := CheckDataMonotonicity(slcaEngine, before, after, terms); len(v) != 0 {
		t.Errorf("SLCA violated data monotonicity: %v", v)
	}
	if v := CheckDataConsistency(slcaEngine, before, after, terms); len(v) != 0 {
		t.Errorf("SLCA violated data consistency: %v", v)
	}
	// An engine that drops results when data is added is caught.
	shrinker := func(ix *xmltree.Index, terms []string) []*xmltree.Node {
		if ix.Tree().Len() > before.Tree().Len() {
			return nil // drops everything once data is added
		}
		return lca.SLCA(ix, terms, nil)
	}
	if v := CheckDataMonotonicity(shrinker, before, after, terms); len(v) == 0 {
		t.Errorf("shrinking engine not caught")
	}
	// An engine inventing unrelated new results is caught by consistency.
	inventor := func(ix *xmltree.Index, terms []string) []*xmltree.Node {
		if ix.Tree().Len() > before.Tree().Len() {
			// Returns the old name node, which was not a result before and
			// does not touch the inserted data.
			return append(lca.SLCA(ix, terms, nil), ix.Tree().NodesByLabel("name")...)
		}
		return lca.SLCA(ix, terms, nil)
	}
	if v := CheckDataConsistency(inventor, before, after, terms); len(v) == 0 {
		t.Errorf("inventing engine not caught")
	}
}

func TestCheckAllAggregates(t *testing.T) {
	before, after := buildBeforeAfter()
	v := CheckAll(slcaEngine, before, after, []string{"keyword"}, []string{"mark"})
	if len(v) != 0 {
		t.Errorf("SLCA violated axioms: %v", v)
	}
}

func inexSetup() (*xmltree.Tree, []*xmltree.Node, map[xmltree.NodeID]bool) {
	b := xmltree.NewBuilder("doc")
	r := b.Root()
	s1 := b.Child(r, "sec", "relevant passage here")
	s2 := b.Child(r, "sec", "irrelevant filler text")
	s3 := b.Child(r, "sec", "another relevant bit")
	tr := b.Freeze()
	relevant := map[xmltree.NodeID]bool{s1.ID: true, s3.ID: true}
	return tr, []*xmltree.Node{s1, s2, s3}, relevant
}

func TestJudgeResultsAndGP(t *testing.T) {
	tr, results, rel := inexSetup()
	scored := JudgeResults(results, rel, tr)
	if scored[0].Precision != 1 || scored[1].Precision != 0 || scored[2].Precision != 1 {
		t.Fatalf("precisions = %+v", scored)
	}
	if scored[0].Recall >= 1 || scored[0].Recall <= 0 {
		t.Errorf("recall = %v, want partial", scored[0].Recall)
	}
	// gP(1) = F of first result; gP(2) averages in the zero.
	if !(GP(scored, 1) > GP(scored, 2)) {
		t.Errorf("gP(1)=%v gP(2)=%v", GP(scored, 1), GP(scored, 2))
	}
	agp := AgP(scored)
	if agp <= 0 || agp > 1 {
		t.Errorf("AgP = %v", agp)
	}
	// AgP is the mean of gP(k).
	want := (GP(scored, 1) + GP(scored, 2) + GP(scored, 3)) / 3
	if math.Abs(agp-want) > 1e-12 {
		t.Errorf("AgP = %v, want %v", agp, want)
	}
	if GP(nil, 3) != 0 || AgP(nil) != 0 || GP(scored, 0) != 0 {
		t.Errorf("empty-input metrics must be 0")
	}
}

func TestTruncateAtTolerance(t *testing.T) {
	tr, results, rel := inexSetup()
	// Order with the irrelevant one first: tolerance 1 cuts immediately.
	scored := JudgeResults([]*xmltree.Node{results[1], results[0], results[2]}, rel, tr)
	cut := TruncateAtTolerance(scored, 1)
	if len(cut) != 1 {
		t.Fatalf("tolerance cut = %d results, want 1", len(cut))
	}
	// Tolerance 2: one irrelevant is forgiven.
	cut = TruncateAtTolerance(scored, 2)
	if len(cut) != 3 {
		t.Fatalf("tolerance-2 cut = %d results, want 3", len(cut))
	}
	if got := TruncateAtTolerance(scored, 0); len(got) != 3 {
		t.Errorf("tolerance 0 must disable truncation")
	}
}

func TestFMeasure(t *testing.T) {
	if FMeasure(0, 0) != 0 {
		t.Errorf("F(0,0) != 0")
	}
	if math.Abs(FMeasure(1, 1)-1) > 1e-12 {
		t.Errorf("F(1,1) != 1")
	}
	if math.Abs(FMeasure(0.5, 1)-2.0/3) > 1e-12 {
		t.Errorf("F(0.5,1) = %v", FMeasure(0.5, 1))
	}
}
