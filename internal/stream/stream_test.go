package stream

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"kwsearch/internal/cn"
	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
)

func setup(t *testing.T) (*relstore.DB, []*cn.CN, []string) {
	t.Helper()
	db := dataset.WidomBib()
	ix := invindex.FromDB(db)
	terms := []string{"widom", "xml"}
	ev := cn.NewEvaluator(db, ix, terms)
	g := schemagraph.FromDB(db)
	cns := cn.Enumerate(g, cn.EnumerateOptions{
		MaxSize:       5,
		KeywordTables: ev.KeywordTables(),
		FreeTables:    []string{"write"},
	})
	return db, cns, terms
}

func resultKey(r cn.Result) string {
	ids := make([]int, len(r.Tuples))
	for i, tp := range r.Tuples {
		ids[i] = int(tp.ID)
	}
	sort.Ints(ids)
	key := r.CN.Canonical() + "|"
	for _, id := range ids {
		key += strconv.Itoa(id) + ","
	}
	return key
}

// streamAll feeds every tuple in the given order and returns all emitted
// result keys.
func streamAll(db *relstore.DB, cns []*cn.CN, terms []string, order []*relstore.Tuple) map[string]int {
	m := NewMesh(db, terms, cns)
	emitted := map[string]int{}
	for _, tp := range order {
		for _, r := range m.Arrive(tp) {
			emitted[resultKey(r)]++
		}
	}
	return emitted
}

func batchResults(t *testing.T, db *relstore.DB, cns []*cn.CN, terms []string) map[string]bool {
	t.Helper()
	ix := invindex.FromDB(db)
	ev := cn.NewEvaluator(db, ix, terms)
	out := map[string]bool{}
	for _, c := range cns {
		rs, err := ev.EvaluateCN(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			out[resultKey(r)] = true
		}
	}
	return out
}

// TestStreamMatchesBatch: streaming all tuples (any order) emits exactly
// the batch evaluation's results, each exactly once.
func TestStreamMatchesBatch(t *testing.T) {
	db, cns, terms := setup(t)
	want := batchResults(t, db, cns, terms)
	if len(want) == 0 {
		t.Fatal("batch produced nothing")
	}
	var all []*relstore.Tuple
	for _, name := range db.TableNames() {
		all = append(all, db.Table(name).Tuples()...)
	}
	for seed := int64(0); seed < 5; seed++ {
		order := append([]*relstore.Tuple(nil), all...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		emitted := streamAll(db, cns, terms, order)
		if len(emitted) != len(want) {
			t.Fatalf("seed %d: emitted %d results, want %d", seed, len(emitted), len(want))
		}
		for key, n := range emitted {
			if !want[key] {
				t.Fatalf("seed %d: spurious result %s", seed, key)
			}
			if n != 1 {
				t.Fatalf("seed %d: result %s emitted %d times", seed, key, n)
			}
		}
	}
}

func TestStreamIncrementalEmission(t *testing.T) {
	db, cns, terms := setup(t)
	// Feed author Widom, paper XML streams, then the connecting write:
	// the result must appear only on the final arrival.
	authors := db.Table("author").Tuples()
	papers := db.Table("paper").Tuples()
	writes := db.Table("write").Tuples()
	m := NewMesh(db, terms, cns)
	if got := m.Arrive(authors[0]); len(got) != 0 {
		t.Fatalf("premature emission: %v", got)
	}
	if got := m.Arrive(papers[0]); len(got) != 0 {
		t.Fatalf("premature emission after paper: %v", got)
	}
	got := m.Arrive(writes[0]) // (widom, xml streams)
	if len(got) != 1 {
		t.Fatalf("expected the A-W-P result on the write arrival, got %d", len(got))
	}
	if m.Seen() != 3 {
		t.Errorf("Seen = %d", m.Seen())
	}
}

func TestStreamWindowEviction(t *testing.T) {
	db, cns, terms := setup(t)
	m := NewMesh(db, terms, cns)
	m.Window = 1
	authors := db.Table("author").Tuples()
	papers := db.Table("paper").Tuples()
	writes := db.Table("write").Tuples()
	m.Arrive(authors[0])
	m.Arrive(authors[1]) // evicts Widom from the author buffer
	m.Arrive(papers[0])
	got := m.Arrive(writes[0])
	if len(got) != 0 {
		t.Fatalf("evicted tuple still joined: %v", got)
	}
}

func TestStreamIgnoresForeignTuples(t *testing.T) {
	db, cns, terms := setup(t)
	m := NewMesh(db, terms, cns)
	alien := &relstore.Tuple{ID: 999, Table: "nosuch"}
	if got := m.Arrive(alien); got != nil {
		t.Fatalf("alien tuple produced %v", got)
	}
}
