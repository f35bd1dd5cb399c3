package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/obs"
	"kwsearch/internal/resilience"
)

// newTestServer builds a warm DBLP engine and an httptest server over
// its handler. The injector (when non-nil) is carried into every
// request's context via BaseContext, the same hook kwsd exposes.
func newTestServer(t *testing.T, in *resilience.Injector, opts Options) (*core.Engine, *httptest.Server) {
	t.Helper()
	e := core.NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	s := New(e, opts)
	ts := httptest.NewUnstartedServer(s.Handler())
	if in != nil {
		ts.Config.BaseContext = func(net.Listener) context.Context {
			return resilience.WithInjector(context.Background(), in)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return e, ts
}

// postQuery sends one POST /query and decodes the envelope, whose
// status must mirror the HTTP status. The returned response's body is
// already closed; its header is still readable.
func postQuery(url string, q QueryRequest) (QueryResponse, *http.Response, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return QueryResponse{}, nil, err
	}
	httpResp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return QueryResponse{}, nil, fmt.Errorf("POST /query: %w", err)
	}
	defer httpResp.Body.Close()
	var resp QueryResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return QueryResponse{}, httpResp, fmt.Errorf("status %d: decode response: %w", httpResp.StatusCode, err)
	}
	if resp.Status != httpResp.StatusCode {
		return resp, httpResp, fmt.Errorf("envelope status %d != HTTP status %d", resp.Status, httpResp.StatusCode)
	}
	return resp, httpResp, nil
}

// post is postQuery that fails the test on error.
func post(t *testing.T, url string, q QueryRequest) (QueryResponse, *http.Response) {
	t.Helper()
	resp, httpResp, err := postQuery(url, q)
	if err != nil {
		t.Fatal(err)
	}
	return resp, httpResp
}

// reference runs q in-process (no deadline) on e and renders the
// canonical answer a served response must reproduce byte for byte.
func reference(e core.Searcher, q QueryRequest) (string, error) {
	sem, err := core.ParseSemantics(q.Semantics)
	if err != nil {
		return "", err
	}
	resp, err := e.Query(context.Background(), core.Request{
		Query: q.Query, Semantics: sem, TopK: q.TopK,
		MaxCNSize: q.MaxCNSize, Clean: q.Clean, Workers: q.Workers,
	})
	if err != nil {
		return "", fmt.Errorf("in-process reference for %q: %w", q.Query, err)
	}
	if resp.Partial {
		return "", fmt.Errorf("in-process reference for %q unexpectedly partial", q.Query)
	}
	return RenderResults(toWireResults(resp.Results)), nil
}

// requireExemplar fails t unless sl retains an exemplar of outcome for
// query that carries a well-formed span tree and the query's keywords
// hash.
func requireExemplar(t *testing.T, sl *obs.SlowLog, outcome obs.Outcome, query string) {
	t.Helper()
	for _, en := range sl.Entries() {
		if en.Outcome != outcome {
			continue
		}
		if en.Trace == nil {
			t.Fatalf("%s exemplar has no trace", outcome)
		}
		if err := en.Trace.WellFormed(time.Minute); err != nil {
			t.Fatalf("%s exemplar trace malformed: %v", outcome, err)
		}
		if en.KeywordsHash != obs.KeywordsHash(query) {
			t.Fatalf("%s exemplar keywords hash %q, want %q", outcome, en.KeywordsHash, obs.KeywordsHash(query))
		}
		return
	}
	t.Fatalf("slowlog holds no %s exemplar", outcome)
}

func TestQueryMatchesInProcess(t *testing.T) {
	e, ts := newTestServer(t, nil, Options{})
	for _, q := range []QueryRequest{
		{Query: "keyword search"},
		{Query: "keyword search", Workers: 2},
		{Query: "wang search", TopK: 3, Semantics: "cn"},
		{Query: "wang search", Semantics: "banks"},
	} {
		resp, httpResp := post(t, ts.URL, q)
		if httpResp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d (%s)", q, httpResp.StatusCode, resp.Error)
		}
		if resp.Partial {
			t.Fatalf("%+v: unexpected partial", q)
		}
		want, err := reference(e, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := RenderResults(resp.Results); got != want {
			t.Fatalf("%+v: served answer differs from in-process\nserved:\n%s\nwant:\n%s", q, got, want)
		}
		if len(resp.Results) == 0 {
			t.Fatalf("%+v: no results", q)
		}
	}
}

// TestStatsBlockKeys decodes a "stats": true response as raw JSON: the
// engine block and its "exec" sub-block use snake_case keys only, carry
// no always-zero or duplicated field, and the pool's job counts add up.
func TestStatsBlockKeys(t *testing.T) {
	_, ts := newTestServer(t, nil, Options{})
	httpResp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"query":"keyword search","workers":2,"stats":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	var ex map[string]json.RawMessage
	if err := json.Unmarshal(resp.Stats["exec"], &ex); err != nil {
		t.Fatalf("stats.exec: %v", err)
	}
	snake := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	for block, keys := range map[string]map[string]json.RawMessage{"stats": resp.Stats, "stats.exec": ex} {
		for k := range keys {
			if !snake.MatchString(k) {
				t.Errorf("%s key %q is not snake_case", block, k)
			}
		}
	}
	for _, k := range []string{"semantics", "terms", "results", "elapsed_ns", "plan_signature", "exec"} {
		if _, ok := resp.Stats[k]; !ok {
			t.Errorf("stats lacks %q", k)
		}
	}
	for _, k := range []string{"workers", "jobs_per_worker", "cns", "jobs", "evaluated", "skipped",
		"join_rows", "rows_finished", "result_cache_hit", "plan_cache_hit", "worker_busy_ns", "worker_idle_ns"} {
		if _, ok := ex[k]; !ok {
			t.Errorf("stats.exec lacks %q", k)
		}
	}
	for _, k := range []string{"merge_ns", "prefix_reuses", "plan_key"} {
		if _, ok := resp.Stats[k]; ok {
			t.Errorf("stats carries %q", k)
		}
		if _, ok := ex[k]; ok {
			t.Errorf("stats.exec carries %q", k)
		}
	}
	var jobs, evaluated, skipped int
	for k, v := range map[string]*int{"jobs": &jobs, "evaluated": &evaluated, "skipped": &skipped} {
		if err := json.Unmarshal(ex[k], v); err != nil {
			t.Fatalf("stats.exec.%s: %v", k, err)
		}
	}
	if jobs == 0 || evaluated+skipped != jobs {
		t.Errorf("evaluated %d + skipped %d != jobs %d (or no jobs)", evaluated, skipped, jobs)
	}
}

func TestStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, nil, Options{})
	for _, tc := range []struct {
		name   string
		q      QueryRequest
		status int
		code   string
		msg    string // the wire error, one prefix and the cause
	}{
		{"empty query", QueryRequest{Query: "   "}, http.StatusBadRequest, CodeBadQuery,
			"core: bad query: empty query"},
		{"unknown semantics", QueryRequest{Query: "a", Semantics: "nope"}, http.StatusBadRequest, CodeBadQuery,
			`core: bad query: unknown semantics "nope"`},
		{"xml semantics on relational data", QueryRequest{Query: "keyword", Semantics: "slca"}, http.StatusBadRequest, CodeBadQuery,
			"core: bad query: semantics slca requires an XML engine"},
		{"negative deadline", QueryRequest{Query: "a", DeadlineMS: -1}, http.StatusBadRequest, CodeBadQuery,
			"core: bad query: negative deadline_ms -1"},
		// The deadlines only keep a server without the size check from
		// enumerating for long.
		{"oversized max_cn_size", QueryRequest{Query: "keyword search", MaxCNSize: core.MaxCNSizeLimit + 1, DeadlineMS: 50}, http.StatusBadRequest, CodeBadQuery,
			"core: bad query: max_cn_size 9, candidate networks take at most 8"},
		{"oversized spark max_cn_size", QueryRequest{Query: "keyword search", Semantics: "spark", MaxCNSize: 64, DeadlineMS: 50}, http.StatusBadRequest, CodeBadQuery,
			"core: bad query: max_cn_size 64, candidate networks take at most 8"},
	} {
		resp, httpResp := post(t, ts.URL, tc.q)
		if httpResp.StatusCode != tc.status || resp.Code != tc.code || resp.Error != tc.msg {
			t.Errorf("%s: status %d code %q error %q, want %d %q %q", tc.name, httpResp.StatusCode, resp.Code, resp.Error, tc.status, tc.code, tc.msg)
		}
	}

	// Transport-level failures: wrong method, malformed body, unknown field.
	httpResp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, httpResp.Body)
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", httpResp.StatusCode)
	}
	for _, body := range []string{"{not json", `{"query": "a", "unknown_field": 1}`} {
		httpResp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, httpResp.Body)
		httpResp.Body.Close()
		if httpResp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, httpResp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
}

func TestObsEndpointsMounted(t *testing.T) {
	_, ts := newTestServer(t, nil, Options{})
	post(t, ts.URL, QueryRequest{Query: "keyword search"})
	for path, status := range map[string]int{"/metrics": http.StatusOK, "/debug/pprof/": http.StatusOK, "/debug/vars": http.StatusNotFound} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, status)
		}
		if path == "/metrics" && !strings.Contains(string(body), "server.requests") {
			t.Fatalf("/metrics missing serving counters:\n%s", body)
		}
	}
}

// parkQuery fires a query that blocks inside an injected evaluation
// delay and returns once a worker is provably parked there, plus the
// cancel releasing it.
func parkQuery(t *testing.T, ts *httptest.Server, in *resilience.Injector) (cancel func(), done <-chan error) {
	t.Helper()
	req := QueryRequest{Query: "keyword database", TopK: 10000, Workers: 2}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		cancelCtx()
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(httpReq)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		ch <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for in.Hits(resilience.StageEval) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if in.Hits(resilience.StageEval) == 0 {
		cancelCtx()
		t.Fatal("query never reached the evaluation stage")
	}
	return cancelCtx, ch
}

// TestOverloadSheds429 pins the load-shedding path: with the engine's
// only slot parked on an injected delay and no queue, a second query is
// shed with 429 + Retry-After, the envelope carries the typed code, and
// the slow-query log keeps a shed exemplar.
func TestOverloadSheds429(t *testing.T) {
	in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Delay: time.Minute})
	sl := obs.NewSlowLog(8, time.Hour)
	e, ts := newTestServer(t, in, Options{SlowLog: sl})
	e.Admit(1, 0)
	cancel, done := parkQuery(t, ts, in)
	defer func() { cancel(); <-done }()

	resp, httpResp := post(t, ts.URL, QueryRequest{Query: "keyword search"})
	if httpResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", httpResp.StatusCode, resp.Error)
	}
	if resp.Code != CodeOverloaded {
		t.Errorf("code %q, want %q", resp.Code, CodeOverloaded)
	}
	if httpResp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	requireExemplar(t, sl, obs.OutcomeShed, "keyword search")
}

// TestDeadlineWhileQueued503 pins the queued-deadline path: a query that
// joins the wait queue and dies there returns 503, distinct from both
// 429 (shed instantly) and a 200 partial (deadline mid-evaluation), and
// leaves a deadline exemplar.
func TestDeadlineWhileQueued503(t *testing.T) {
	in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Delay: time.Minute})
	sl := obs.NewSlowLog(8, time.Hour)
	e, ts := newTestServer(t, in, Options{SlowLog: sl})
	e.Admit(1, 1)
	cancel, done := parkQuery(t, ts, in)
	defer func() { cancel(); <-done }()

	resp, httpResp := post(t, ts.URL, QueryRequest{Query: "keyword search", DeadlineMS: 50})
	if httpResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", httpResp.StatusCode, resp.Error)
	}
	if resp.Code != CodeDeadline {
		t.Errorf("code %q, want %q", resp.Code, CodeDeadline)
	}
	if httpResp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	requireExemplar(t, sl, obs.OutcomeDeadline, "keyword search")
}

// TestDeadlinePartial200 pins the certified-prefix contract on the wire:
// an expiring per-request deadline is a success — 200, "partial": true,
// and the results are a byte-exact prefix of the full answer. The
// slow-query log keeps a partial exemplar.
func TestDeadlinePartial200(t *testing.T) {
	sl := obs.NewSlowLog(8, time.Hour)
	e, ts := newTestServer(t, nil, Options{SlowLog: sl})
	heavy := QueryRequest{Query: "keyword search www", TopK: 10000, MaxCNSize: 6, DeadlineMS: 1}
	resp, httpResp := post(t, ts.URL, heavy)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (%s)", httpResp.StatusCode, resp.Error)
	}
	if !resp.Partial {
		t.Fatal("deadline did not produce a partial response")
	}
	full := heavy
	full.DeadlineMS = 0
	want, err := reference(e, full)
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderResults(resp.Results); !strings.HasPrefix(want, got) {
		t.Fatalf("partial answer is not a prefix of the full answer\npartial:\n%s\nfull:\n%s", got, want)
	}
	requireExemplar(t, sl, obs.OutcomePartial, heavy.Query)
}

func TestBatch(t *testing.T) {
	e, ts := newTestServer(t, nil, Options{})
	batch := BatchRequest{Queries: []QueryRequest{
		{Query: "keyword search"},
		{Query: "bogus", Semantics: "nope"},
		{Query: "wang search", Workers: 2},
	}}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", httpResp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 3 {
		t.Fatalf("got %d responses, want 3", len(out.Responses))
	}
	wantStatus := []int{200, 400, 200}
	for i, r := range out.Responses {
		if r.Status != wantStatus[i] {
			t.Errorf("item %d: status %d, want %d (%s)", i, r.Status, wantStatus[i], r.Error)
		}
	}
	for _, i := range []int{0, 2} {
		want, err := reference(e, batch.Queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := RenderResults(out.Responses[i].Results); got != want {
			t.Errorf("item %d differs from in-process answer", i)
		}
	}

	// Fan-out bound: an oversized batch is rejected whole.
	over := BatchRequest{Queries: make([]QueryRequest, 65)}
	for i := range over.Queries {
		over.Queries[i] = QueryRequest{Query: "keyword"}
	}
	body, _ = json.Marshal(over)
	httpResp, err = http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, httpResp.Body)
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", httpResp.StatusCode)
	}
}

// TestDrainFinishesInFlight pins graceful drain on a Start-based server:
// a request parked mid-evaluation when Drain begins completes with its
// full, correct answer; the drain then refuses new connections and
// returns nil within its deadline.
func TestDrainFinishesInFlight(t *testing.T) {
	e := core.NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Delay: 100 * time.Millisecond, After: 0, Every: 4})
	s := New(e, Options{BaseContext: func() context.Context {
		return resilience.WithInjector(context.Background(), in)
	}})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.Addr()

	q := QueryRequest{Query: "keyword database", TopK: 10000, Workers: 2}
	var resp QueryResponse
	var reqErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _, reqErr = postQuery(url, q)
		if reqErr == nil && resp.Status != http.StatusOK {
			reqErr = fmt.Errorf("in-flight request status %d, want 200", resp.Status)
		}
	}()

	// Wait until the query is provably mid-evaluation, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for in.Hits(resilience.StageEval) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if in.Hits(resilience.StageEval) == 0 {
		t.Fatal("query never reached evaluation")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	wg.Wait()
	if reqErr != nil {
		t.Fatalf("in-flight request failed across drain: %v", reqErr)
	}
	if resp.Partial {
		t.Fatal("in-flight request came back partial; drain must not impose a deadline")
	}
	want, err := reference(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderResults(resp.Results); got != want {
		t.Fatal("in-flight request's drained answer differs from in-process reference")
	}

	// Drained means drained.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("connection accepted after Drain")
	}
}
