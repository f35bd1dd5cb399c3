package invindex

import (
	"math/rand"
	"sync"
	"testing"
)

// shuffledIndex adds 200 documents in a random order, some of them
// twice, each holding one shared term and one of seven rarer ones. It
// returns the index with the term frequencies a reader should find.
func shuffledIndex(seed int64) (*Index, map[string]map[DocID]int32) {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	want := map[string]map[DocID]int32{}
	ix := New()
	docs := rng.Perm(200)
	docs = append(docs, docs[:50]...) // a quarter come back, far from their first Add
	for _, d := range docs {
		rare := vocab[rng.Intn(len(vocab))]
		ix.Add(DocID(d), "common "+rare+" "+rare)
		for term, tf := range map[string]int32{"common": 1, rare: 2} {
			if want[term] == nil {
				want[term] = map[DocID]int32{}
			}
			want[term][DocID(d)] += tf
		}
	}
	return ix, want
}

// TestAddKeepsPostingsAscending: whatever order documents arrive in,
// and however often one comes back, every posting list is strictly
// ascending by Doc — one posting per document — with the term
// frequencies of the repeated Adds summed.
func TestAddKeepsPostingsAscending(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ix, want := shuffledIndex(seed)
		if ix.NumDocs() != 200 {
			t.Fatalf("seed %d: NumDocs = %d, want 200", seed, ix.NumDocs())
		}
		for term, tfs := range want {
			ps := ix.Postings(term)
			if len(ps) != len(tfs) {
				t.Fatalf("seed %d: %d postings of %q, want %d", seed, len(ps), term, len(tfs))
			}
			for i, p := range ps {
				if i > 0 && ps[i-1].Doc >= p.Doc {
					t.Fatalf("seed %d: postings of %q not strictly ascending at %d: %d then %d", seed, term, i, ps[i-1].Doc, p.Doc)
				}
				if p.TF != tfs[p.Doc] {
					t.Fatalf("seed %d: TF(%q, %d) = %d, want %d", seed, term, p.Doc, p.TF, tfs[p.Doc])
				}
			}
		}
	}
}

// TestConcurrentPostingsReaders reads the lists of an index built out of
// order from eight goroutines with no reader having gone first. Postings
// used to sort a list in place the first time it was read; it is a plain
// lookup now, which -race confirms.
func TestConcurrentPostingsReaders(t *testing.T) {
	ix, want := shuffledIndex(7)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for term, tfs := range want {
				if got := len(ix.Postings(term)); got != len(tfs) {
					t.Errorf("%d postings of %q, want %d", got, term, len(tfs))
				}
				for doc, tf := range tfs {
					if got := ix.TF(term, doc); got != int(tf) {
						t.Errorf("TF(%q, %d) = %d, want %d", term, doc, got, tf)
					}
				}
			}
		}()
	}
	wg.Wait()
}
