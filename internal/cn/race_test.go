package cn

import (
	"context"
	"sync"
	"testing"

	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/schemagraph"
)

// TestConcurrentEvaluationOnFreshBinding evaluates every CN from eight
// goroutines at once — depth-first (EvaluateCN) on the even ones,
// level-wise (EvaluatePrefix + BindingResults) on the odd — over an
// evaluator nothing has touched since its binding was built, binder-backed
// and scan-backed. A binding is immutable and its join table
// synchronised, so there is no warm-up call to forget: under -race this
// finds any lazy write left on the evaluation path, and every goroutine
// must see the serial answer.
func TestConcurrentEvaluationOnFreshBinding(t *testing.T) {
	db := dataset.DBLP(dataset.DBLPConfig{
		Authors: 60, Papers: 150, Conferences: 5, AuthorsPerPaper: 2,
		CitesPerPaper: 1, TitleTermCount: 3, ExtraVocab: 30, Seed: 17,
	})
	ix := invindex.FromDB(db)
	terms := []string{"keyword", "search"}
	oracle := NewScanEvaluator(db, ix, terms)
	cns := Enumerate(schemagraph.FromDB(db), EnumerateOptions{
		MaxSize:       5,
		KeywordTables: oracle.KeywordTables(),
		FreeTables:    []string{"write", "cite"},
	})
	want := make([]map[string]int, len(cns))
	total := 0
	for i, c := range cns {
		want[i] = sigSet(mustEvaluate(t, oracle, c))
		total += len(want[i])
	}
	if len(cns) < 4 || total == 0 {
		t.Fatalf("fixture lost its shape: %d CNs, %d results", len(cns), total)
	}

	fresh := map[string]func() *Evaluator{
		"binder": func() *Evaluator {
			return NewEvaluatorFrom(db, ix, NewBinder(db, ix, BinderOptions{}).BindTraced(terms, nil))
		},
		"scan": func() *Evaluator { return NewScanEvaluator(db, ix, terms) },
	}
	for name, build := range fresh {
		ev := build()
		ctx := context.Background()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i, c := range cns {
					var rs []Result
					var err error
					if g%2 == 0 {
						rs, err = ev.EvaluateCN(ctx, c)
					} else {
						var rows Rows
						if rows, err = ev.EvaluatePrefix(ctx, c, Rows{}, len(c.Nodes)); err == nil {
							rs, err = ev.BindingResults(ctx, c, rows)
						}
					}
					if err != nil {
						t.Errorf("%s goroutine %d CN %d: %v", name, g, i, err)
						return
					}
					got := sigSet(rs)
					if len(got) != len(want[i]) {
						t.Errorf("%s goroutine %d CN %d (%s): %d distinct results, want %d", name, g, i, c, len(got), len(want[i]))
						return
					}
					for sig, n := range want[i] {
						if got[sig] != n {
							t.Errorf("%s goroutine %d CN %d (%s): result %s seen %d times, want %d", name, g, i, c, sig, got[sig], n)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestConcurrentStringOnSharedCN renders each enumerated CN from eight
// goroutines at once, the way every served answer of a plan-cached CN
// names it. String is memoised on first use, so under -race this finds
// an unsynchronised write, and every goroutine must read the text a
// fresh clone renders.
func TestConcurrentStringOnSharedCN(t *testing.T) {
	cns := Enumerate(awpGraph(t), EnumerateOptions{
		MaxSize:       5,
		KeywordTables: []string{"author", "paper"},
		FreeTables:    []string{"write", "author", "paper"},
	})
	if len(cns) < 4 {
		t.Fatalf("fixture lost its shape: %d CNs", len(cns))
	}
	want := make([]string, len(cns))
	for i, c := range cns {
		want[i] = c.clone().String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, c := range cns {
				if got := c.String(); got != want[i] {
					t.Errorf("goroutine %d CN %d: String() = %q, want %q", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
