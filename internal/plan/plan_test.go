package plan

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kwsearch/internal/cn"
	"kwsearch/internal/obs"
	"kwsearch/internal/schemagraph"
)

// awpGraph is the slide-28 schema used across the repo's enumeration
// tests: author <- write -> paper.
func awpGraph(t testing.TB) *schemagraph.Graph {
	t.Helper()
	g, err := schemagraph.New(
		[]string{"author", "write", "paper"},
		[]schemagraph.Edge{
			{From: "write", FromCol: "aid", To: "author", ToCol: "aid"},
			{From: "write", FromCol: "pid", To: "paper", ToCol: "pid"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// render flattens a CN slice to its canonical emission sequence, the
// byte-identity currency of every equivalence assertion in this package.
func render(cns []*cn.CN) string {
	var b strings.Builder
	for _, c := range cns {
		b.WriteString(c.Canonical())
		b.WriteByte('\n')
	}
	return b.String()
}

// awpOpts is the standard slide-28 enumeration request.
func awpOpts() cn.EnumerateOptions {
	return cn.EnumerateOptions{
		MaxSize:       5,
		KeywordTables: []string{"author", "paper"},
		FreeTables:    []string{"write"},
	}
}

// TestCacheHitMiss checks the basic contract: first Get compiles (miss),
// second Get returns the same immutable *PlanSet (hit), and the plan
// matches fresh serial enumeration byte-for-byte.
func TestCacheHitMiss(t *testing.T) {
	g := awpGraph(t)
	c := New(Options{})
	ps1, hit, err := c.Get(context.Background(), g, awpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first Get reported a cache hit")
	}
	ps2, hit, err := c.Get(context.Background(), g, awpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second Get missed")
	}
	if ps1 != ps2 {
		t.Error("hit returned a different *PlanSet than the build")
	}
	want, _ := cn.EnumerateCtx(context.Background(), g, awpOpts())
	if render(ps1.CNs()) != render(want) {
		t.Errorf("cached plan differs from fresh enumeration:\n%s\nwant:\n%s", render(ps1.CNs()), render(want))
	}
	if ps1.Len() != len(want) || ps1.Len() != 5 {
		t.Errorf("Len() = %d, want 5", ps1.Len())
	}
	if c.Builds() != 1 {
		t.Errorf("Builds() = %d, want 1", c.Builds())
	}
}

// TestKeyNormalization checks that option bundles compiling to the same
// plan share a key: table order, duplicates and unknown tables are
// normalized away, and MaxSize <= 0 collapses to the enumerator's
// default of 5.
func TestKeyNormalization(t *testing.T) {
	g := awpGraph(t)
	base := Key(g, awpOpts())
	same := []cn.EnumerateOptions{
		{MaxSize: 5, KeywordTables: []string{"paper", "author"}, FreeTables: []string{"write"}},
		{MaxSize: 5, KeywordTables: []string{"author", "author", "paper"}, FreeTables: []string{"write", "nosuch"}},
		{MaxSize: 0, KeywordTables: []string{"author", "paper"}, FreeTables: []string{"write"}},
		// From MaxSize terms on the m-term rule prunes nothing.
		{MaxSize: 5, KeywordTables: []string{"author", "paper"}, FreeTables: []string{"write"}, Terms: 5},
		{MaxSize: 5, KeywordTables: []string{"author", "paper"}, FreeTables: []string{"write"}, Terms: 9},
	}
	for i, o := range same {
		if got := Key(g, o); got != base {
			t.Errorf("variant %d: key %q != base %q", i, got, base)
		}
	}
	diff := []cn.EnumerateOptions{
		{MaxSize: 4, KeywordTables: []string{"author", "paper"}, FreeTables: []string{"write"}},
		{MaxSize: 5, KeywordTables: []string{"author"}, FreeTables: []string{"write"}},
		{MaxSize: 5, KeywordTables: []string{"author", "paper"}},
		{MaxSize: 5, KeywordTables: []string{"author", "paper"}, FreeTables: []string{"write"}, Terms: 4},
	}
	for i, o := range diff {
		if got := Key(g, o); got == base {
			t.Errorf("variant %d: key unexpectedly equals base", i)
		}
	}
}

// TestSchemaChangeNeverServesStalePlan mutates the schema (a new Graph,
// as every schema change produces — Graph is immutable) and checks the
// fingerprint in the key forces a fresh compile whose output matches the
// new schema.
func TestSchemaChangeNeverServesStalePlan(t *testing.T) {
	g := awpGraph(t)
	c := New(Options{})
	ps1, _, err := c.Get(context.Background(), g, awpOpts())
	if err != nil {
		t.Fatal(err)
	}

	// The "schema change": a direct author→paper foreign key appears, so
	// the same membership signature now admits shorter author–paper CNs.
	g2, err := schemagraph.New(
		[]string{"author", "write", "paper"},
		[]schemagraph.Edge{
			{From: "write", FromCol: "aid", To: "author", ToCol: "aid"},
			{From: "write", FromCol: "pid", To: "paper", ToCol: "pid"},
			{From: "author", FromCol: "favpid", To: "paper", ToCol: "pid"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() == g2.Fingerprint() {
		t.Fatal("distinct schemas share a fingerprint")
	}
	ps2, hit, err := c.Get(context.Background(), g2, awpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("new schema hit the old schema's plan")
	}
	want, _ := cn.EnumerateCtx(context.Background(), g2, awpOpts())
	if render(ps2.CNs()) != render(want) {
		t.Error("plan for mutated schema differs from fresh enumeration")
	}
	if render(ps1.CNs()) == render(ps2.CNs()) {
		t.Error("schema change did not alter the compiled plan (test is vacuous)")
	}
}

// TestCancelledBuildNotCached checks a failed compile is never cached:
// the next Get with a live context retries and succeeds.
func TestCancelledBuildNotCached(t *testing.T) {
	g := awpGraph(t)
	c := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Get(ctx, g, awpOpts()); err != context.Canceled {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
	ps, hit, err := c.Get(context.Background(), g, awpOpts())
	if err != nil || hit {
		t.Fatalf("retry after failed build: hit=%v err=%v", hit, err)
	}
	if ps.Len() != 5 {
		t.Errorf("retry compiled %d CNs, want 5", ps.Len())
	}
}

// TestMetricsWired checks the plan.* counters land in the registry.
func TestMetricsWired(t *testing.T) {
	g := awpGraph(t)
	reg := obs.NewRegistry()
	c := New(Options{Metrics: reg})
	c.Get(context.Background(), g, awpOpts())
	c.Get(context.Background(), g, awpOpts())
	snap := reg.Snapshot().String()
	for _, want := range []string{"plan.hits", "plan.misses", "plan.builds", "plan.build_us"} {
		if !strings.Contains(snap, want) {
			t.Errorf("metrics snapshot missing %s:\n%s", want, snap)
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// randomSchema builds a connected random schema graph: a random tree
// over n tables plus extra random edges, the shape space candidate
// networks actually live in.
func randomSchema(rng *rand.Rand, n int) *schemagraph.Graph {
	tables := make([]string, n)
	for i := range tables {
		tables[i] = fmt.Sprintf("t%02d", i)
	}
	var edges []schemagraph.Edge
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		edges = append(edges, schemagraph.Edge{
			From: tables[i], FromCol: "fk" + tables[j], To: tables[j], ToCol: "id",
		})
	}
	for extra := rng.Intn(3); extra > 0; extra-- {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		edges = append(edges, schemagraph.Edge{
			From: tables[i], FromCol: fmt.Sprintf("x%d", extra), To: tables[j], ToCol: "id",
		})
	}
	g, err := schemagraph.New(tables, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// randomMembership draws a random keyword→relation membership signature:
// a non-empty keyword table subset and a random free table subset.
func randomMembership(rng *rand.Rand, g *schemagraph.Graph) cn.EnumerateOptions {
	tables := g.Tables()
	opts := cn.EnumerateOptions{MaxSize: 2 + rng.Intn(4)}
	for _, t := range tables {
		if rng.Intn(2) == 0 {
			opts.KeywordTables = append(opts.KeywordTables, t)
		}
		if rng.Intn(2) == 0 {
			opts.FreeTables = append(opts.FreeTables, t)
		}
	}
	if len(opts.KeywordTables) == 0 {
		opts.KeywordTables = []string{tables[rng.Intn(len(tables))]}
	}
	if rng.Intn(2) == 0 {
		opts.Terms = 1 + rng.Intn(opts.MaxSize)
	}
	return opts
}

// TestPropertyCachedPlanEqualsFreshEnumeration is the package's central
// property: over randomized schema graphs and membership signatures, the
// cached PlanSet is byte-identical to fresh EnumerateCtx output (same
// CNs, same order), on the build and on every subsequent hit, and a
// request of MaxSize terms or more is served the plan built for Terms 0
// (its key's m field), which equals its own fresh enumeration.
func TestPropertyCachedPlanEqualsFreshEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(Options{})
	for trial := 0; trial < 60; trial++ {
		g := randomSchema(rng, 3+rng.Intn(6))
		opts := randomMembership(rng, g)
		want, err := cn.EnumerateCtx(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		cold, hit, err := c.Get(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("trial %d: cold signature hit (key collision?)", trial)
		}
		if render(cold.CNs()) != render(want) {
			t.Fatalf("trial %d: cold plan differs from serial enumeration\nopts=%+v\ngot:\n%swant:\n%s",
				trial, opts, render(cold.CNs()), render(want))
		}
		warm, hit, err := c.Get(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !hit || render(warm.CNs()) != render(want) {
			t.Fatalf("trial %d: warm plan differs (hit=%v)", trial, hit)
		}
		if opts.Terms == 0 {
			more := opts
			more.Terms = opts.MaxSize + rng.Intn(3)
			fresh, err := cn.EnumerateCtx(context.Background(), g, more)
			if err != nil {
				t.Fatal(err)
			}
			shared, hit, err := c.Get(context.Background(), g, more)
			if err != nil || !hit || render(shared.CNs()) != render(fresh) {
				t.Fatalf("trial %d: %d terms (hit=%v, err %v) not served the Terms 0 plan, or it differs from its own enumeration", trial, more.Terms, hit, err)
			}
		}
	}
}
