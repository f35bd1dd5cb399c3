package core

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"kwsearch/internal/dataset"
)

// search runs a Request and returns just the results, the shape most of
// these tests assert on.
func search(t *testing.T, e *Engine, req Request) []Result {
	t.Helper()
	resp, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Results
}

func TestRelationalCNSearch(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	rs := search(t, e, Request{Query: "Widom XML", TopK: 5})
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	// The top result joins Widom to an XML paper through write.
	top := rs[0]
	if top.CN == nil || len(top.Tuples) != 3 {
		t.Fatalf("top = %+v", top)
	}
	if s := top.String(); !strings.Contains(s, "author") {
		t.Errorf("render = %q", s)
	}
}

func TestRelationalSparkSearch(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	rs := search(t, e, Request{Query: "Widom XML", TopK: 5, Semantics: SparkNetworks})
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Score > rs[i-1].Score {
			t.Fatalf("not sorted")
		}
	}
}

func TestBanksAndSteinerSearch(t *testing.T) {
	e := NewRelational(dataset.SeltzerBerkeley())
	rs := search(t, e, Request{Query: "Seltzer Berkeley", TopK: 3, Semantics: DistinctRoot})
	if len(rs) == 0 || rs[0].Cost != 1 {
		t.Fatalf("banks results = %+v", rs)
	}
	if rs[0].Root == nil {
		t.Fatalf("root tuple not resolved")
	}
	st := search(t, e, Request{Query: "Seltzer Berkeley", Semantics: SteinerTree})
	if len(st) != 1 || st[0].Cost != 1 || len(st[0].Tuples) != 2 {
		t.Fatalf("steiner = %+v", st)
	}
}

func TestSearchWithCleaning(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	// Misspelled query is cleaned before searching.
	rs := search(t, e, Request{Query: "Widon XLM", TopK: 5, Clean: true})
	if len(rs) == 0 {
		t.Fatal("cleaned query found nothing")
	}
}

func TestXMLSearch(t *testing.T) {
	e := NewXML(dataset.ConfXML())
	rs := search(t, e, Request{Query: "keyword Mark"})
	if len(rs) != 1 || rs[0].Node.Label != "paper" {
		t.Fatalf("slca results = %+v", rs)
	}
	rs = search(t, e, Request{Query: "keyword Mark", Semantics: ELCA})
	if len(rs) == 0 {
		t.Fatal("elca results empty")
	}
	if s := rs[0].String(); !strings.Contains(s, "/conf/paper") {
		t.Errorf("render = %q", s)
	}
}

func TestReturnNodes(t *testing.T) {
	e := NewXML(dataset.ConfXML())
	rs := search(t, e, Request{Query: "keyword Mark"})
	rns := e.ReturnNodes([]string{"keyword", "mark"}, rs[0].Node)
	if len(rns) == 0 {
		t.Fatal("no return nodes inferred")
	}
}

func TestSemanticsErrors(t *testing.T) {
	ctx := context.Background()
	rel := NewRelational(dataset.WidomBib())
	if _, err := rel.Query(ctx, Request{Query: "widom", Semantics: SLCA}); err == nil {
		t.Errorf("SLCA on relational engine must error")
	}
	xml := NewXML(dataset.ConfXML())
	if _, err := xml.Query(ctx, Request{Query: "mark", Semantics: CandidateNetworks}); err == nil {
		t.Errorf("CN on XML engine must error")
	}
	if _, err := rel.Query(ctx, Request{Query: ""}); err == nil {
		t.Errorf("empty query must error")
	}
	resp, err := rel.Query(ctx, Request{Query: "nosuchterm widom", Semantics: DistinctRoot})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results != nil {
		t.Errorf("unmatched keyword should yield no graph results: %v", resp.Results)
	}
}

func TestSemanticsString(t *testing.T) {
	names := map[Semantics]string{
		Auto: "auto", CandidateNetworks: "cn", SparkNetworks: "spark",
		DistinctRoot: "banks", SteinerTree: "steiner", SLCA: "slca", ELCA: "elca",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %s", int(s), s)
		}
	}
}

func TestFreeTablesDefaultToLinkTables(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	if len(e.FreeTables) != 1 || e.FreeTables[0] != "write" {
		t.Errorf("FreeTables = %v, want [write]", e.FreeTables)
	}
}

// TestServedSLCAFanOutCapped: Request.Workers arrives unvalidated from
// outside (POST /query "workers"), and the range-split SLCA starts one
// goroutine, with one span, per range up to the anchor count ("title
// author" on the bibliography has hundreds of anchors). The served call
// caps the ranges at GOMAXPROCS: a 1<<20-worker query has at most that
// many children under evaluate and answers the same nodes as Workers 1.
func TestServedSLCAFanOutCapped(t *testing.T) {
	e := NewXML(dataset.BibXML(dataset.DefaultBibConfig()))
	nodes := func(rs []Result) []string {
		var out []string
		for _, r := range rs {
			out = append(out, r.Node.Dewey.String())
		}
		return out
	}
	req := Request{Query: "title author", Semantics: SLCA, TopK: 1 << 20, Trace: true}
	want := nodes(search(t, e, req))
	req.Workers = 1 << 20
	resp, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := nodes(resp.Results); len(want) == 0 || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Workers 1<<20 answers %d nodes, Workers 1 %d (or they differ)", len(got), len(want))
	}
	for _, sp := range resp.Trace.Children() {
		if sp.Name() != "evaluate" {
			continue
		}
		if n, max := len(sp.Children()), runtime.GOMAXPROCS(0); n > max {
			t.Errorf("Workers 1<<20: %d spans under evaluate, want <= GOMAXPROCS (%d)", n, max)
		}
		return
	}
	t.Fatal("trace has no evaluate span")
}
