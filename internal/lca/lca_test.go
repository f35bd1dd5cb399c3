package lca

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"kwsearch/internal/dataset"
	"kwsearch/internal/xmltree"
)

func ids(nodes []*xmltree.Node) []int {
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = int(n.ID)
	}
	return out
}

func sameNodes(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSlide33SLCA reproduces E4: on the conf tree with Q = {keyword, Mark},
// the common ancestors are {conf, paper1} and the SLCA is {paper1}; the
// ancestor conf is pruned by the minimality rule.
func TestSlide33SLCA(t *testing.T) {
	ix := xmltree.NewIndex(dataset.ConfXML())
	terms := []string{"keyword", "mark"}

	cas := CommonAncestors(ix, terms)
	if len(cas) != 2 {
		t.Fatalf("CAs = %v, want conf and paper1", ids(cas))
	}
	if cas[0].Label != "conf" || cas[1].Label != "paper" {
		t.Fatalf("CAs = %s,%s", cas[0].Label, cas[1].Label)
	}

	slca := SLCA(ix, terms, nil)
	if len(slca) != 1 || slca[0].Label != "paper" {
		t.Fatalf("SLCA = %v", ids(slca))
	}
	// It is the first paper (the one whose title contains "keyword").
	if slca[0].Dewey.String() != "2" {
		t.Errorf("SLCA dewey = %s, want 2", slca[0].Dewey)
	}
}

// TestSlide33BothPapers: Q = {Mark} alone matches authors in both papers;
// the SLCAs are the two author nodes themselves.
func TestSlide33BothPapers(t *testing.T) {
	ix := xmltree.NewIndex(dataset.ConfXML())
	slca := SLCA(ix, []string{"mark"}, nil)
	if len(slca) != 2 {
		t.Fatalf("SLCA = %v", ids(slca))
	}
	for _, n := range slca {
		if n.Label != "author" {
			t.Errorf("SLCA label = %s, want author", n.Label)
		}
	}
}

func TestNoMatchTerms(t *testing.T) {
	ix := xmltree.NewIndex(dataset.ConfXML())
	if got := SLCA(ix, []string{"keyword", "nosuch"}, nil); got != nil {
		t.Errorf("SLCA with unmatched term = %v", ids(got))
	}
	if got := ELCA(ix, []string{"nosuch"}); got != nil {
		t.Errorf("ELCA with unmatched term = %v", ids(got))
	}
	if got := SLCA(ix, nil, nil); got != nil {
		t.Errorf("SLCA with empty query = %v", ids(got))
	}
}

// TestELCAIncludesAncestorWithOwnWitness: the canonical SLCA-vs-ELCA
// difference. conf has papers (keyword+mark) and ALSO its own direct
// matches, making conf an ELCA but not an SLCA.
func TestELCAIncludesAncestorWithOwnWitness(t *testing.T) {
	b := xmltree.NewBuilder("conf")
	r := b.Root()
	b.Child(r, "name", "keyword workshop") // conf-level witness for "keyword"
	b.Child(r, "chair", "Mark")            // conf-level witness for "mark"
	p := b.Child(r, "paper", "")
	b.Child(p, "title", "keyword search")
	b.Child(p, "author", "Mark")
	ix := xmltree.NewIndex(b.Freeze())
	terms := []string{"keyword", "mark"}

	slca := SLCA(ix, terms, nil)
	if len(slca) != 1 || slca[0].Label != "paper" {
		t.Fatalf("SLCA = %v", ids(slca))
	}
	elca := elcaStack(ix, terms)
	if len(elca) != 2 {
		t.Fatalf("ELCA = %v, want paper and conf", ids(elca))
	}
	labels := map[string]bool{}
	for _, n := range elca {
		labels[n.Label] = true
	}
	if !labels["paper"] || !labels["conf"] {
		t.Errorf("ELCA labels = %v", labels)
	}
}

// TestELCAExclusionSemantics: a keyword occurrence inside a child that
// covers all keywords must not serve as a witness for the parent
// (the CA-descendant exclusion).
func TestELCAExclusionSemantics(t *testing.T) {
	// u -> c -> d(k1,k2), c -> e(k1); u -> f(k2).
	// c covers all via d, so e's k1 cannot help u; u is NOT an ELCA.
	b := xmltree.NewBuilder("u")
	c := b.Child(b.Root(), "c", "")
	b.Child(c, "d", "k1 k2")
	b.Child(c, "e", "k1")
	b.Child(b.Root(), "f", "k2")
	ix := xmltree.NewIndex(b.Freeze())
	terms := []string{"k1", "k2"}

	for name, fn := range map[string]func(*xmltree.Index, []string) []*xmltree.Node{
		"stack": elcaStack, "indexed": ELCA, "brute": ELCABrute,
	} {
		got := fn(ix, terms)
		if len(got) != 1 || got[0].Label != "d" {
			t.Errorf("%s: ELCA = %v, want only d", name, ids(got))
		}
	}
}

// elcaStack is untraced ELCAStack in the candidates-function shape.
func elcaStack(ix *xmltree.Index, terms []string) []*xmltree.Node {
	ns, _ := ELCAStack(context.Background(), ix, terms, nil) // Background never ends: no error
	return ns
}

func randomTreeIndex(seed int64) *xmltree.Index {
	rng := rand.New(rand.NewSource(seed))
	terms := []string{"k0", "k1", "k2"}
	b := xmltree.NewBuilder("root")
	nodes := []*xmltree.Node{b.Root()}
	n := 5 + rng.Intn(40)
	for i := 0; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		val := ""
		if rng.Intn(2) == 0 {
			val = terms[rng.Intn(len(terms))]
			if rng.Intn(5) == 0 {
				val += " " + terms[rng.Intn(len(terms))]
			}
		}
		nodes = append(nodes, b.Child(parent, "n", val))
	}
	return xmltree.NewIndex(b.Freeze())
}

// Property: all SLCA algorithms agree with the brute-force oracle.
func TestSLCAAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		ix := randomTreeIndex(seed)
		for _, terms := range [][]string{{"k0", "k1"}, {"k0", "k1", "k2"}, {"k2"}} {
			want := SLCABrute(ix, terms)
			if !sameNodes(SLCA(ix, terms, nil), want) {
				return false
			}
			if !sameNodes(SLCAScan(ix, terms), want) {
				return false
			}
			if !sameNodes(SLCAMultiway(ix, terms), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: both ELCA algorithms agree with the brute-force oracle, and
// every SLCA is an ELCA.
func TestELCAAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		ix := randomTreeIndex(seed)
		for _, terms := range [][]string{{"k0", "k1"}, {"k0", "k1", "k2"}} {
			want := ELCABrute(ix, terms)
			if !sameNodes(elcaStack(ix, terms), want) {
				return false
			}
			if !sameNodes(ELCA(ix, terms), want) {
				return false
			}
			// SLCA ⊆ ELCA.
			inELCA := map[xmltree.NodeID]bool{}
			for _, n := range want {
				inELCA[n.ID] = true
			}
			for _, n := range SLCABrute(ix, terms) {
				if !inELCA[n.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// The generated keyword trees used by the E15/E20 benchmarks must also
// agree across algorithms.
func TestAlgorithmsAgreeOnKeywordTree(t *testing.T) {
	tr := dataset.KeywordTree(3, 4, map[string]int{"k0": 8, "k1": 120}, 3)
	ix := xmltree.NewIndex(tr)
	terms := []string{"k0", "k1"}
	want := SLCABrute(ix, terms)
	if len(want) == 0 {
		t.Fatal("no SLCAs in benchmark tree")
	}
	if !sameNodes(SLCA(ix, terms, nil), want) || !sameNodes(SLCAScan(ix, terms), want) ||
		!sameNodes(SLCAMultiway(ix, terms), want) {
		t.Fatal("SLCA variants disagree on benchmark tree")
	}
	wantE := ELCABrute(ix, terms)
	if !sameNodes(elcaStack(ix, terms), wantE) || !sameNodes(ELCA(ix, terms), wantE) {
		t.Fatal("ELCA variants disagree on benchmark tree")
	}
}

func TestTopKRanksTighterResultsFirst(t *testing.T) {
	// Two SLCAs: one with witnesses right below the root (tight), one with
	// witnesses deep inside (loose). The tight result ranks first.
	b := xmltree.NewBuilder("root")
	tight := b.Child(b.Root(), "r", "")
	b.Child(tight, "x", "k0")
	b.Child(tight, "y", "k1")
	loose := b.Child(b.Root(), "r", "")
	l1 := b.Child(loose, "g", "")
	l2 := b.Child(l1, "h", "")
	b.Child(l2, "x", "k0")
	m1 := b.Child(loose, "g2", "")
	m2 := b.Child(m1, "h", "")
	b.Child(m2, "y", "k1")
	ix := xmltree.NewIndex(b.Freeze())
	terms := []string{"k0", "k1"}

	got := TopK(ix, terms, 0, nil)
	if len(got) != 2 {
		t.Fatalf("results = %d, want 2", len(got))
	}
	if got[0].Node != tight {
		t.Errorf("tight result should rank first")
	}
	if !(got[0].Score > got[1].Score) {
		t.Errorf("scores = %v / %v", got[0].Score, got[1].Score)
	}
	// k caps output; ELCA semantics pluggable.
	if topped := TopK(ix, terms, 1, elcaStack); len(topped) != 1 {
		t.Errorf("k cap ignored: %d", len(topped))
	}
	if none := TopK(ix, []string{"absent"}, 3, nil); none != nil {
		t.Errorf("unmatched query = %v", none)
	}
}
