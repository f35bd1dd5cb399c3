package plan

import (
	"context"
	"sync"
	"testing"

	"kwsearch/internal/cn"
)

// TestConcurrentGetStress hammers one cache from many goroutines with
// overlapping signatures — meaningful under -race, where it guards the share-safe PlanSet
// contract (one *PlanSet handed to many readers at once).
func TestConcurrentGetStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	g := awpGraph(t)
	c := New(Options{})
	sigs := []cn.EnumerateOptions{
		{MaxSize: 5, KeywordTables: []string{"author", "paper"}, FreeTables: []string{"write"}},
		{MaxSize: 5, KeywordTables: []string{"author", "paper"}, FreeTables: []string{"write", "author", "paper"}},
		{MaxSize: 4, KeywordTables: []string{"author"}, FreeTables: []string{"write"}},
		{MaxSize: 3, KeywordTables: []string{"paper", "write"}, FreeTables: []string{"write"}},
	}
	want := make([]string, len(sigs))
	for i, o := range sigs {
		cns, err := cn.EnumerateCtx(context.Background(), g, o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = render(cns)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				si := (w + i) % len(sigs)
				ps, _, err := c.Get(context.Background(), g, sigs[si])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if render(ps.CNs()) != want[si] {
					t.Errorf("worker %d sig %d: plan differs from serial enumeration", w, si)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
