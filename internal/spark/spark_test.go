package spark

import (
	"context"
	"testing"

	"kwsearch/internal/cn"
	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
)

func setup(t *testing.T, terms []string, seed int64) (*Scorer, []*cn.CN) {
	t.Helper()
	db := dataset.DBLP(dataset.DBLPConfig{
		Authors: 80, Papers: 200, Conferences: 6, AuthorsPerPaper: 2,
		CitesPerPaper: 1, TitleTermCount: 3, ExtraVocab: 40, Seed: seed,
	})
	ix := invindex.FromDB(db)
	ev := cn.NewBinder(db, ix).BindTraced(terms, nil)
	g := schemagraph.FromDB(db)
	cns := cn.Enumerate(g, cn.EnumerateOptions{
		MaxSize:       4,
		KeywordTables: ev.KeywordTables(),
		FreeTables:    []string{"write", "cite"},
	})
	return NewScorer(ev, ix), cns
}

func TestDampProperties(t *testing.T) {
	if damp(0) != 0 {
		t.Errorf("damp(0) = %v", damp(0))
	}
	if damp(1) != 1 {
		t.Errorf("damp(1) = %v, want 1", damp(1))
	}
	prev := 0.0
	for tf := 1; tf < 100; tf++ {
		d := damp(tf)
		if d < prev {
			t.Fatalf("damp not monotone at %d", tf)
		}
		prev = d
	}
	// Subadditive on tf >= 1: damp(a+b) <= damp(a)+damp(b), so a virtual
	// document never outscores its tuples scored apart.
	for a := 1; a < 40; a++ {
		for b := 1; b < 40; b++ {
			if damp(a+b) > damp(a)+damp(b)+1e-12 {
				t.Fatalf("damp not subadditive at %d,%d", a, b)
			}
		}
	}
}

func TestScoreIsNonMonotonic(t *testing.T) {
	// Two tuples matching the same term: the virtual-document score is
	// less than the sum of their individual scores (slide 117's reason
	// monotone top-k machinery breaks for SPARK).
	s, _ := setup(t, []string{"keyword"}, 5)
	set := s.b.KeywordSet("paper")
	if len(set) < 2 {
		t.Fatalf("need two matching papers, got %d", len(set))
	}
	a, b := set[0], set[1]
	joint := s.ScoreA([]*relstore.Tuple{a, b})
	sum := s.ScoreA([]*relstore.Tuple{a}) + s.ScoreA([]*relstore.Tuple{b})
	if !(joint < sum) {
		t.Errorf("ScoreA(joint)=%v should be < per-tuple sum=%v", joint, sum)
	}
	if joint <= 0 {
		t.Errorf("joint score must be positive")
	}
}

func TestEmptyQueryAndNoMatches(t *testing.T) {
	s, cns := setup(t, []string{"zzzznomatch"}, 5)
	got, err := TopK(context.Background(), s, cns, 3)
	if err != nil || len(got) != 0 {
		t.Errorf("no-match query returned %v, %v", got, err)
	}
}
