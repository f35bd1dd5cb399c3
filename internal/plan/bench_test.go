package plan

import (
	"context"
	"testing"

	"kwsearch/internal/cn"
	"kwsearch/internal/dataset"
	"kwsearch/internal/schemagraph"
)

// dblpGraph is the DBLP schema graph (A ↔ W ↔ P, P → C, P ↔ Cite ↔ P),
// the heaviest enumeration workload the repo's datasets produce.
func dblpGraph(b *testing.B) *schemagraph.Graph {
	b.Helper()
	return schemagraph.FromDB(dataset.DBLP(dataset.DefaultDBLPConfig()))
}

// dblpOpts is a three-keyword-table signature on the DBLP schema at the
// engine's default MaxSize, the shape of a real "keyword in author,
// paper and conference" query.
func dblpOpts() cn.EnumerateOptions {
	return cn.EnumerateOptions{
		MaxSize:       5,
		KeywordTables: []string{"author", "paper", "conference"},
		FreeTables:    []string{"write", "cite"},
	}
}

// BenchmarkPlanCacheWarm measures the steady-state hit path: key
// derivation plus one sharded LRU lookup, the cost a warm query pays
// instead of full enumeration.
func BenchmarkPlanCacheWarm(b *testing.B) {
	g := dblpGraph(b)
	c := New(Options{})
	if _, _, err := c.Get(context.Background(), g, dblpOpts()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, err := c.Get(context.Background(), g, dblpOpts())
		if err != nil || !hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkPlanCacheCold measures a full compile per iteration (each
// Get goes to a fresh, untimed cache), i.e. the miss path a schema
// change or first-seen signature pays.
func BenchmarkPlanCacheCold(b *testing.B) {
	g := dblpGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(Options{})
		b.StartTimer()
		if _, _, err := c.Get(context.Background(), g, dblpOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerate measures cn.EnumerateCtx alone, the work a cold
// Get adds to the hit path.
func BenchmarkEnumerate(b *testing.B) {
	g := dblpGraph(b)
	opts := dblpOpts()
	for i := 0; i < b.N; i++ {
		if _, err := cn.EnumerateCtx(context.Background(), g, opts); err != nil {
			b.Fatal(err)
		}
	}
}
