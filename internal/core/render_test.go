package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"kwsearch/internal/cn"
	"kwsearch/internal/dataset"
	"kwsearch/internal/relstore"
)

// resultStringFmt is the fmt rendering Result.String's CN case replaced.
// It stays here as the oracle: the served text of every answer must not
// change by a byte.
func resultStringFmt(r Result) string {
	parts := make([]string, len(r.Tuples))
	for i, tp := range r.Tuples {
		parts[i] = fmt.Sprintf("%s#%d", tp.Table, tp.ID)
	}
	return fmt.Sprintf("%.3f  %s  via %s", r.Score, strings.Join(parts, " ⋈ "), r.CN)
}

// TestResultStringMatchesFmt compares Result.String with the fmt oracle
// on every answer of 300 logged queries over DBLP, then on hand-built
// edges: zero and negative zero, scores that round at the fourth
// decimal, extreme tuple IDs, a one-node CN and a five-node star.
func TestResultStringMatchesFmt(t *testing.T) {
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	e := NewRelational(db)
	checked := 0
	for _, le := range dataset.QueryLog(db, 300, 1) {
		resp, err := e.Query(context.Background(), Request{Query: strings.Join(le.Terms, " "), Semantics: CandidateNetworks})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resp.Results {
			if got, want := r.String(), resultStringFmt(r); got != want {
				t.Fatalf("%q: String() = %q, fmt = %q", le.Terms, got, want)
			}
			checked++
		}
	}
	if checked < 300 {
		t.Fatalf("only %d results checked; the query log lost its shape", checked)
	}

	single := &cn.CN{Nodes: []cn.NodeSpec{{Table: "author"}}}
	star := &cn.CN{Nodes: []cn.NodeSpec{
		{Table: "paper"}, {Table: "write", Free: true}, {Table: "cite", Free: true},
		{Table: "author"}, {Table: "conference"},
	}}
	for i := 1; i < len(star.Nodes); i++ {
		star.Edges = append(star.Edges, cn.EdgeSpec{A: 0, B: i})
	}
	tup := func(table string, id relstore.TupleID) *relstore.Tuple {
		return &relstore.Tuple{Table: table, ID: id}
	}
	scores := []float64{0, math.Copysign(0, -1), 0.0005, 0.0015, 1.2345, 2.9995, 0.9999, -3.14159, 1e9 + 0.0005, 123456789.123456}
	tuples := [][]*relstore.Tuple{
		{tup("author", 0)},
		{tup("author", math.MaxInt32)},
		{tup("author", math.MinInt32)},
		{tup("paper", 7), tup("write", 1<<30), tup("cite", 12), tup("author", 99999), tup("conference", -1)},
	}
	for _, c := range []*cn.CN{single, star} {
		for _, s := range scores {
			for _, ts := range tuples {
				r := Result{Score: s, Tuples: ts, CN: c}
				if got, want := r.String(), resultStringFmt(r); got != want {
					t.Errorf("String() = %q, fmt = %q", got, want)
				}
			}
		}
	}
}
