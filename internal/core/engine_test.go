package core

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"kwsearch/internal/dataset"
	"kwsearch/internal/lca"
	"kwsearch/internal/obs"
	"kwsearch/internal/resilience"
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

// TestServedSLCAFanOutCapped: the engine picks SLCA's range count from
// GOMAXPROCS whatever Request.Workers says ("title author" on the
// bibliography has hundreds of anchors, enough to split). At Workers 0,
// 1, 2 and 1<<20 the answers are identical and equal to serial ILE's
// node set, and evaluate carries at most GOMAXPROCS range spans.
func TestServedSLCAFanOutCapped(t *testing.T) {
	e := NewXML(dataset.BibXML(dataset.DefaultBibConfig()))
	var want []string
	for _, n := range lca.SLCA(e.XIndex, []string{"title", "author"}, nil) {
		want = append(want, n.Dewey.String())
	}
	sort.Strings(want)
	var first string
	for _, workers := range []int{0, 1, 2, 1 << 20} {
		req := Request{Query: "title author", Semantics: SLCA, TopK: 1 << 20, Workers: workers, Trace: true}
		resp, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range resp.Results {
			got = append(got, r.Node.Dewey.String())
		}
		ranked := strings.Join(got, " ")
		if first == "" {
			first = ranked
		}
		sort.Strings(got)
		if len(want) == 0 || strings.Join(got, " ") != strings.Join(want, " ") || ranked != first {
			t.Errorf("Workers %d: %d nodes differ from serial ILE's %d or from Workers 0's ranking", workers, len(got), len(want))
		}
		var evaluate *obs.Span
		for _, sp := range resp.Trace.Children() {
			if sp.Name() == "evaluate" {
				evaluate = sp
			}
		}
		if evaluate == nil {
			t.Fatalf("Workers %d: trace has no evaluate span", workers)
		}
		if n, max := len(evaluate.Children()), runtime.GOMAXPROCS(0); n > max {
			t.Errorf("Workers %d: %d spans under evaluate, want <= GOMAXPROCS (%d)", workers, n, max)
		}
	}
}

// TestServedSLCAInjectedRangeFault: an SLCA query at the default Workers
// runs the range scan, so an armed StageSLCARange fault fails it with the
// injected error, on a long anchor list and on a short one.
func TestServedSLCAInjectedRangeFault(t *testing.T) {
	boom := errors.New("injected range fault")
	for _, tc := range []struct {
		e     *Engine
		query string
	}{
		{NewXML(dataset.BibXML(dataset.DefaultBibConfig())), "title author"},
		{NewXML(dataset.ConfXML()), "keyword Mark"},
	} {
		in := resilience.NewInjector(1).Arm(resilience.StageSLCARange, resilience.Fault{Err: boom})
		ctx := resilience.WithInjector(context.Background(), in)
		resp, err := tc.e.Query(ctx, Request{Query: tc.query})
		if !errors.Is(err, boom) || resp != nil {
			t.Errorf("%q: err = %v, resp = %v; want the injected fault and no response", tc.query, err, resp)
		}
	}
}

// TestServedELCAHonoursDeadline: "title author" on the bibliography
// under ELCA stops at its deadline: a 50 µs budget comes back as an
// empty partial answer (ELCA has no sound partial top-k) with the
// evaluate span cancelled, sooner than the full run, and an armed
// StageELCA fault fails the query with the injected error.
func TestServedELCAHonoursDeadline(t *testing.T) {
	e := NewXML(dataset.BibXML(dataset.DefaultBibConfig()))
	req := Request{Query: "title author", Semantics: ELCA, Trace: true}
	start := time.Now()
	resp, err := e.Query(context.Background(), req)
	full := time.Since(start)
	if err != nil || resp.Partial || len(resp.Results) == 0 {
		t.Fatalf("undeadlined run: %d results, partial %v, err %v", len(resp.Results), resp.Partial, err)
	}

	req.Deadline = 50 * time.Microsecond
	start = time.Now()
	resp, err = e.Query(context.Background(), req)
	returned := time.Since(start)
	if err != nil || !resp.Partial || len(resp.Results) != 0 {
		t.Fatalf("deadlined run: %d results, partial %v, err %v; want an empty partial answer", len(resp.Results), resp.Partial, err)
	}
	if returned >= full {
		t.Errorf("deadlined run took %v, the full run %v", returned, full)
	}
	cancelled := false
	for _, sp := range resp.Trace.Children() {
		if sp.Name() == "evaluate" {
			cancelled = strings.Contains(sp.Shape(), "cancelled")
		}
	}
	if !cancelled {
		t.Errorf("evaluate span not marked cancelled:\n%s", resp.Trace.Shape())
	}

	boom := errors.New("injected elca fault")
	in := resilience.NewInjector(1).Arm(resilience.StageELCA, resilience.Fault{Err: boom})
	if resp, err := e.Query(resilience.WithInjector(context.Background(), in), Request{Query: "title author", Semantics: ELCA}); !errors.Is(err, boom) || resp != nil {
		t.Errorf("armed fault: err = %v, resp = %v; want the injected fault and no response", err, resp)
	}
}
