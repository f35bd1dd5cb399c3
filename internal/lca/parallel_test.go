package lca

import (
	"context"
	"testing"

	"kwsearch/internal/dataset"
	"kwsearch/internal/xmltree"
)

// TestSLCAParallelMatchesSerial asserts SLCAParallel returns exactly the
// serial SLCA node set for every worker count, on trees large enough to
// engage the parallel path and small enough to fall back.
func TestSLCAParallelMatchesSerial(t *testing.T) {
	shapes := []map[string]int{
		{"k0": 5, "k1": 200},    // below the fallback threshold
		{"k0": 300, "k1": 2000}, // parallel path engaged
		{"k0": 1000, "k1": 1000},
	}
	for _, counts := range shapes {
		tr := dataset.KeywordTree(4, 5, counts, 3)
		ix := xmltree.NewIndex(tr)
		terms := []string{"k0", "k1"}
		want := SLCA(ix, terms, nil)
		for _, workers := range []int{0, 1, 2, 3, 4, 8, 64} {
			got, err := SLCAParallel(context.Background(), ix, terms, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("counts=%v workers=%d: %d results, want %d", counts, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("counts=%v workers=%d: result %d = %v, want %v",
						counts, workers, i, got[i].Dewey, want[i].Dewey)
				}
			}
		}
	}
}

// TestSLCAParallelBoundaries pins the boundary-merge behaviour: anchors
// that are split across worker ranges but share one SLCA must still
// collapse to a single result.
func TestSLCAParallelBoundaries(t *testing.T) {
	// One deep subtree holds every k0 anchor; k1 appears once at the root
	// subtree, so all anchors resolve to the same shallow SLCA no matter
	// which range computed them.
	tr := dataset.KeywordTree(3, 6, map[string]int{"k0": 500, "k1": 1}, 9)
	ix := xmltree.NewIndex(tr)
	terms := []string{"k0", "k1"}
	want := SLCA(ix, terms, nil)
	got, err := SLCAParallel(context.Background(), ix, terms, 7, nil) // worker count that does not divide 500
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("boundary merge broke: %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d differs: %v vs %v", i, got[i].Dewey, want[i].Dewey)
		}
	}
	// No-match terms short-circuit identically.
	if got, _ := SLCAParallel(context.Background(), ix, []string{"k0", "absent"}, 4, nil); got != nil {
		t.Fatal("missing term should yield nil")
	}
}
