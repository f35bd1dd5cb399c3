package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"kwsearch/internal/cn"
	"kwsearch/internal/dataset"
	"kwsearch/internal/resilience"
)

// renderCN serializes CN results bit-exactly (tuple IDs in CN node order
// plus raw score bits), so prefix comparisons are byte-level.
func renderCN(rs []Result) string {
	var b strings.Builder
	for _, r := range rs {
		if r.CN != nil {
			b.WriteString(r.CN.Canonical())
		}
		for _, tp := range r.Tuples {
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(int(tp.ID)))
		}
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.Score), 16))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestQueryCancellationIsPromptAndLeakFree is acceptance criterion (a):
// cancelling a Query blocked on an injected 10s evaluation delay must
// return within 50ms of the cancellation, and the goroutine count must
// settle back — no pool worker may outlive the query.
func TestQueryCancellationIsPromptAndLeakFree(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	before := runtime.NumGoroutine()

	in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Delay: 10 * time.Second})
	ctx, cancel := context.WithCancel(resilience.WithInjector(context.Background(), in))
	defer cancel()

	type outcome struct {
		resp *Response
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := e.Query(ctx, Request{Query: "Widom XML", TopK: 10000, Workers: 2})
		done <- outcome{resp, err}
	}()

	// Wait until a worker is actually parked inside the injected delay.
	waitUntil := time.Now().Add(5 * time.Second)
	for in.Hits(resilience.StageEval) == 0 && time.Now().Before(waitUntil) {
		time.Sleep(time.Millisecond)
	}
	if in.Hits(resilience.StageEval) == 0 {
		t.Fatal("query never reached the evaluation stage")
	}

	cancelled := time.Now()
	cancel()
	select {
	case o := <-done:
		if took := time.Since(cancelled); took > 50*time.Millisecond {
			t.Errorf("Query returned %v after cancellation, want <= 50ms", took)
		}
		if !errors.Is(o.err, context.Canceled) {
			t.Errorf("err = %v, want Canceled", o.err)
		}
		if o.resp != nil {
			t.Errorf("cancelled query returned a response: %+v", o.resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Query ignored cancellation")
	}

	// Goroutines must settle back to the pre-query level (the runtime may
	// keep a few of its own alive; allow a short drain window).
	settleBy := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(settleBy) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after drain", before, n)
	}
}

// TestDeadlinePartialIsPrefixOfFullAnswer is acceptance criterion (b): a
// deadline that expires mid-CN-evaluation yields Partial=true with a
// byte-exact prefix of the undeadlined answer, and a nil error. The
// fault stalls the third job claimed, so the query has three jobs: "XML
// Widom Datalog" has two results over three CNs, one job each.
func TestDeadlinePartialIsPrefixOfFullAnswer(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	req := Request{Query: "XML Widom Datalog", TopK: 10000, Workers: 2}

	// Partial run first so the full run cannot seed the result cache.
	in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Delay: 2 * time.Second, After: 2})
	pctx := resilience.WithInjector(context.Background(), in)
	preq := req
	preq.Deadline = 250 * time.Millisecond
	partial, err := e.Query(pctx, preq)
	if err != nil {
		t.Fatalf("deadlined query errored: %v", err)
	}
	if !partial.Partial || !partial.Stats.Partial {
		t.Fatalf("Partial not set (resp=%v stats=%v)", partial.Partial, partial.Stats.Partial)
	}

	full, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("undeadlined query claims Partial")
	}
	fullS, partS := renderCN(full.Results), renderCN(partial.Results)
	if !strings.HasPrefix(fullS, partS) {
		t.Errorf("partial answer is not a prefix of the full answer\npartial:\n%sfull:\n%s", partS, fullS)
	}
	if len(partial.Results) >= len(full.Results) && partial.Stats.Exec != nil && partial.Stats.Exec.Skipped == 0 {
		t.Log("deadline expired only after the pool finished; prefix check was trivial")
	}
}

// TestAdmissionShedsExcessQueries is acceptance criterion (c): with
// Admit(1, 0), a second concurrent query is shed with ErrOverloaded while
// the first holds the only slot, and the shed counter advances.
func TestAdmissionShedsExcessQueries(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	e.Admit(1, 0)

	in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Delay: 10 * time.Second})
	ctx, cancel := context.WithCancel(resilience.WithInjector(context.Background(), in))
	done := make(chan error, 1)
	go func() {
		_, err := e.Query(ctx, Request{Query: "Widom XML", TopK: 10000, Workers: 2})
		done <- err
	}()
	waitUntil := time.Now().Add(5 * time.Second)
	for in.Hits(resilience.StageEval) == 0 && time.Now().Before(waitUntil) {
		time.Sleep(time.Millisecond)
	}
	if in.Hits(resilience.StageEval) == 0 {
		cancel()
		t.Fatal("first query never reached evaluation")
	}

	if _, err := e.Query(context.Background(), Request{Query: "Widom XML"}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("second query err = %v, want ErrOverloaded", err)
	}
	if got := e.Metrics.Snapshot().Counters["admission.shed"]; got != 1 {
		t.Errorf("admission.shed = %d, want 1", got)
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("first query err = %v, want Canceled", err)
	}

	// With queue room, a queued query that outlives its deadline fails
	// with the typed deadline error instead of being shed.
	e.Admit(1, 4)
	ctx2, cancel2 := context.WithCancel(resilience.WithInjector(context.Background(), in))
	defer cancel2()
	go func() {
		_, _ = e.Query(ctx2, Request{Query: "Widom XML", TopK: 10000, Workers: 2})
	}()
	waitUntil = time.Now().Add(5 * time.Second)
	for e.Gate().Queued() == 0 && time.Now().Before(waitUntil) {
		if _, err := e.Query(context.Background(), Request{Query: "Widom", Deadline: 5 * time.Millisecond}); errors.Is(err, ErrDeadlineExceeded) {
			cancel2()
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Error("queued query never failed with ErrDeadlineExceeded")
}

// TestBadQueryTyped: malformed requests match ErrBadQuery, and their
// text carries its prefix once, before the cause.
func TestBadQueryTyped(t *testing.T) {
	rel := NewRelational(dataset.WidomBib())
	for _, tc := range []struct {
		req  Request
		want string
	}{
		{Request{Query: "   "}, "core: bad query: empty query"},
		{Request{Query: "widom", Semantics: SLCA}, "core: bad query: semantics slca requires an XML engine"},
		{Request{Query: "widom", MaxCNSize: 12}, "core: bad query: max_cn_size 12, candidate networks take at most 8"},
	} {
		if _, err := rel.Query(context.Background(), tc.req); !errors.Is(err, ErrBadQuery) || err.Error() != tc.want {
			t.Errorf("%+v: err = %v, want ErrBadQuery as %q", tc.req, err, tc.want)
		}
	}
	// A candidate-network size past MaxCNSizeLimit; the deadline only
	// keeps an engine without the check from enumerating for long. The
	// limit itself runs, and banks builds no networks.
	for _, sem := range []Semantics{CandidateNetworks, SparkNetworks} {
		req := Request{Query: "widom xml", Semantics: sem, MaxCNSize: MaxCNSizeLimit}
		if _, err := rel.Query(context.Background(), req); err != nil {
			t.Errorf("%v, size %d: %v", sem, req.MaxCNSize, err)
		}
		for _, size := range []int{MaxCNSizeLimit + 1, 1e9} {
			req := Request{Query: "widom xml", Semantics: sem, MaxCNSize: size, Deadline: 50 * time.Millisecond}
			if _, err := rel.Query(context.Background(), req); !errors.Is(err, ErrBadQuery) {
				t.Errorf("%v, size %d: err = %v, want ErrBadQuery", sem, size, err)
			}
		}
	}
	if _, err := rel.Query(context.Background(), Request{Query: "widom xml", Semantics: DistinctRoot, MaxCNSize: 64}); err != nil {
		t.Errorf("banks with size 64: %v", err)
	}
}

// TestTooManyKeywordsIsBadQuery pins the coverage-mask bugfix: term
// masks hold 32 bits, so a 33rd keyword used to shift out of the mask
// and silently drop out of the AND — "adaptive"×32 + "ziyang" answered
// with ten results, none containing ziyang, where "adaptive ziyang" has
// none. Such a query is now refused; 32 keywords still work and still
// mean AND.
func TestTooManyKeywordsIsBadQuery(t *testing.T) {
	rel := NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	ctx := context.Background()
	pair, err := rel.Query(ctx, Request{Query: "adaptive ziyang", Semantics: CandidateNetworks})
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []Semantics{CandidateNetworks, SparkNetworks} {
		full := strings.Repeat("adaptive ", cn.MaxTerms-1) + "ziyang"
		resp, err := rel.Query(ctx, Request{Query: full, Semantics: sem})
		if err != nil {
			t.Fatalf("%v, %d keywords: %v", sem, cn.MaxTerms, err)
		}
		if len(resp.Results) != len(pair.Results) {
			t.Errorf("%v, %d keywords: %d results, want the %d of the two-keyword AND",
				sem, cn.MaxTerms, len(resp.Results), len(pair.Results))
		}
		if _, err := rel.Query(ctx, Request{Query: "adaptive " + full, Semantics: sem}); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%v, %d keywords: err = %v, want ErrBadQuery", sem, cn.MaxTerms+1, err)
		}
	}
}
