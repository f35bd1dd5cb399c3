package server

// Tests for the serving layer's observability surface: request ids and
// the access log, the per-request logger reaching the engine, the
// Prometheus exposition and slowlog endpoints, readiness during drain,
// the server-latency SLO and the registry's instrument inventory.

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
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/obs"
	"kwsearch/internal/resilience"
)

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	_, ts := newTestServer(t, nil, Options{})
	_, httpResp := post(t, ts.URL, QueryRequest{Query: "keyword search"})
	id := httpResp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("response missing X-Request-Id")
	}
	_, httpResp2 := post(t, ts.URL, QueryRequest{Query: "keyword search"})
	if id2 := httpResp2.Header.Get("X-Request-Id"); id2 == "" || id2 == id {
		t.Fatalf("second request id %q not distinct from first %q", id2, id)
	}
}

func TestRequestIDAdoptedFromClient(t *testing.T) {
	_, ts := newTestServer(t, nil, Options{})
	body, _ := json.Marshal(QueryRequest{Query: "keyword search"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "upstream-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "upstream-42" {
		t.Fatalf("X-Request-Id = %q, want the client-supplied upstream-42", got)
	}
}

func TestAccessLogLine(t *testing.T) {
	var buf bytes.Buffer
	lg := obs.NewLogger(&buf, obs.LevelInfo)
	_, ts := newTestServer(t, nil, Options{Logger: lg})

	_, httpResp := post(t, ts.URL, QueryRequest{Query: "keyword search"})
	id := httpResp.Header.Get("X-Request-Id")
	out := buf.String()
	for _, want := range []string{
		`"msg":"request"`,
		`"request_id":"` + id + `"`,
		`"route":"/query"`,
		`"status":200`,
		`"keywords_hash":"` + obs.KeywordsHash("keyword search") + `"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("access log missing %s:\n%s", want, out)
		}
	}
}

func TestPerRequestLoggerReachesEngine(t *testing.T) {
	// A debug-level server logger must flow through the request context
	// into the engine's "query executed" line, carrying the request id.
	var buf bytes.Buffer
	lg := obs.NewLogger(&buf, obs.LevelDebug)
	_, ts := newTestServer(t, nil, Options{Logger: lg})
	_, httpResp := post(t, ts.URL, QueryRequest{Query: "keyword search"})
	id := httpResp.Header.Get("X-Request-Id")
	out := buf.String()
	if !strings.Contains(out, `"msg":"query executed"`) {
		t.Fatalf("engine debug line missing:\n%s", out)
	}
	// Every engine line derived from the request logger carries the id.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(line, `"msg":"query executed"`) && !strings.Contains(line, `"request_id":"`+id+`"`) {
			t.Errorf("engine line lost the request id:\n%s", line)
		}
	}
}

// promCommentRe / promSampleRe are the exposition-format line shapes: a
// line is a # HELP/# TYPE comment or a sample
// `name{label="v",...} value`.
var (
	promCommentRe = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	promSampleRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$`)
)

func TestMetricsPromServedAndGrammatical(t *testing.T) {
	_, ts := newTestServer(t, nil, Options{})
	post(t, ts.URL, QueryRequest{Query: "keyword search"})

	resp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/prom: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q is not the 0.0.4 text exposition", ct)
	}
	text := string(body)
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !promCommentRe.MatchString(line) {
				t.Errorf("line %d: malformed comment %q", i+1, line)
			}
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Errorf("line %d: malformed sample %q", i+1, line)
		}
	}
	for _, want := range []string{
		"kwsearch_server_requests_total ",
		`kwsearch_server_latency_us_window{window="1m",quantile="0.5"}`,
		`kwsearch_slo_burn_rate{slo="server_latency",window="1m"}`,
		`kwsearch_slo_burn_rate{slo="query_latency",window="5m"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestSlowLogEndToEnd(t *testing.T) {
	sl := obs.NewSlowLog(8, time.Nanosecond) // every query is "slow"
	e, ts := newTestServer(t, nil, Options{SlowLog: sl})
	if e.SlowLog() != sl {
		t.Fatal("Options.SlowLog not installed on the engine")
	}
	_, httpResp := post(t, ts.URL, QueryRequest{Query: "keyword search"})
	id := httpResp.Header.Get("X-Request-Id")

	entries := sl.Entries()
	if len(entries) == 0 {
		t.Fatal("served query left no exemplar")
	}
	if entries[0].RequestID != id {
		t.Errorf("exemplar request id = %q, want %q", entries[0].RequestID, id)
	}
	if entries[0].Outcome != obs.OutcomeSlow {
		t.Errorf("outcome = %q, want slow", entries[0].Outcome)
	}

	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slowlog: status %d", resp.StatusCode)
	}
	var page struct {
		Cap     int `json:"cap"`
		Entries []struct {
			RequestID    string          `json:"request_id"`
			Outcome      string          `json:"outcome"`
			KeywordsHash string          `json:"keywords_hash"`
			Trace        json.RawMessage `json:"trace"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatalf("decode /debug/slowlog: %v", err)
	}
	if page.Cap != 8 || len(page.Entries) == 0 {
		t.Fatalf("page = %+v", page)
	}
	en := page.Entries[0]
	if en.RequestID != id || en.KeywordsHash != obs.KeywordsHash("keyword search") {
		t.Errorf("endpoint entry = %+v", en)
	}
	if len(en.Trace) == 0 || string(en.Trace) == "null" {
		t.Error("endpoint entry lost the span tree")
	}
}

func TestSlowLogCapAndThresholdUnderLoad(t *testing.T) {
	// Cap: a tiny ring under concurrent captures keeps exactly the cap
	// newest entries while counting every capture.
	sl := obs.NewSlowLog(4, time.Nanosecond)
	_, ts := newTestServer(t, nil, Options{SlowLog: sl})
	const clients, perClient = 8, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body, _ := json.Marshal(QueryRequest{Query: fmt.Sprintf("keyword search %d", c)})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()
	if sl.Len() != 4 {
		t.Errorf("ring holds %d entries, want cap 4", sl.Len())
	}
	if got := sl.Captured(); got != clients*perClient {
		t.Errorf("captured %d, want %d", got, clients*perClient)
	}
	entries := sl.Entries()
	for i, en := range entries {
		if i > 0 && entries[i-1].Seq <= en.Seq {
			t.Errorf("entries not newest-first: %d then %d", entries[i-1].Seq, en.Seq)
		}
		if en.Trace == nil || en.Trace.WellFormed(time.Minute) != nil {
			t.Errorf("entry %d trace missing or malformed", en.Seq)
		}
	}

	// Threshold: a log that considers nothing slow captures nothing on
	// the same healthy traffic.
	quiet := obs.NewSlowLog(4, time.Hour)
	_, ts2 := newTestServer(t, nil, Options{SlowLog: quiet})
	post(t, ts2.URL, QueryRequest{Query: "keyword search"})
	if quiet.Len() != 0 {
		t.Errorf("healthy query captured below threshold: %+v", quiet.Entries())
	}
}

// TestHealthReadyFlipOnDrain pins the probe endpoints around drain:
// both answer 200 while serving and 503 + Retry-After the instant the
// draining flag is set — which is Drain's first action, before the
// listener closes, so balancers watching either probe stop routing
// first. (The full Start→Drain lifecycle is covered by
// TestDrainFinishesInFlight.)
func TestHealthReadyFlipOnDrain(t *testing.T) {
	e := core.NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	s := New(e, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s while serving: status %d", path, resp.StatusCode)
		}
	}

	s.draining.Store(true)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while draining: status %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s while draining: missing Retry-After", path)
		}
	}
}

func TestServerLatencySLORegistered(t *testing.T) {
	e, ts := newTestServer(t, nil, Options{})
	post(t, ts.URL, QueryRequest{Query: "keyword search"})
	s := e.Metrics.Snapshot()
	h, ok := s.Histograms["server.latency_us"]
	if !ok || h.Last1m.Count == 0 {
		t.Fatalf("windowed server latency missing or empty: %+v", h)
	}
	slo, ok := s.SLOs["server_latency"]
	if !ok {
		t.Fatal("server_latency SLO missing from snapshot")
	}
	if slo.Series != "server.latency_us" || slo.Threshold != float64(core.DefaultSLOThreshold.Microseconds()) || slo.Objective != 0.99 {
		t.Errorf("SLO = %+v", slo)
	}
}

// TestMetricInventory pins the registry a served engine carries, wired
// as kwsd wires it (admission gate, slowlog, info access log): the exact
// set of instrument names, one latency observation per query in each of
// query.elapsed_us and server.latency_us, and one count per admission
// outcome. A new or removed instrument is a deliberate diff here and in
// DESIGN.md's instrument table.
func TestMetricInventory(t *testing.T) {
	in := resilience.NewInjector(1).Arm(resilience.StageEval, resilience.Fault{Delay: 2 * time.Second})
	e := core.NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	e.Admit(1, 0)
	s := New(e, Options{
		Logger:  obs.NewLogger(io.Discard, obs.LevelInfo),
		SlowLog: obs.NewSlowLog(64, core.DefaultSLOThreshold),
	})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.BaseContext = func(net.Listener) context.Context {
		return resilience.WithInjector(context.Background(), in)
	}
	ts.Start()
	defer ts.Close()
	counter := func(name string) uint64 { return e.Metrics.Snapshot().Counters[name] }
	want := func(q QueryRequest, status int) QueryResponse {
		t.Helper()
		resp, httpResp := post(t, ts.URL, q)
		if httpResp.StatusCode != status {
			t.Fatalf("%+v: status %d, want %d (%s)", q, httpResp.StatusCode, status, resp.Error)
		}
		return resp
	}

	// One miss parks on the only admission slot; a query arriving then
	// is shed. The parked miss then completes normally.
	_, done := parkQuery(t, ts, in)
	shed := counter("admission.shed")
	want(QueryRequest{Query: "keyword search"}, http.StatusTooManyRequests)
	in.Disarm(resilience.StageEval)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := counter("admission.shed") - shed; got != 1 {
		t.Errorf("one shed query moved admission.shed by %d, want 1", got)
	}

	misses := []string{"keyword search", "xml query", "database systems"}
	for _, q := range misses {
		want(QueryRequest{Query: q}, http.StatusOK)
	}
	const hits = 4
	cached := counter("cache.results.hits")
	for i := 0; i < hits; i++ {
		want(QueryRequest{Query: misses[0]}, http.StatusOK)
	}
	if got := counter("cache.results.hits") - cached; got != hits {
		t.Fatalf("%d repeats hit the result cache %d times", hits, got)
	}
	n, m := 1+len(misses), hits // the parked query is a miss too

	partial, deadline := counter("query.partial"), counter("admission.deadline")
	if resp := want(QueryRequest{Query: "keyword search", TopK: 10000, MaxCNSize: 6, DeadlineMS: 1}, http.StatusOK); !resp.Partial {
		t.Fatal("deadline did not produce a partial response")
	}
	if got := counter("query.partial") - partial; got != 1 {
		t.Errorf("one partial query moved query.partial by %d, want 1", got)
	}
	if got := counter("admission.deadline") - deadline; got != 0 {
		t.Errorf("a mid-evaluation deadline moved admission.deadline by %d, want 0", got)
	}

	snap := e.Metrics.Snapshot()
	for _, name := range []string{"query.elapsed_us", "server.latency_us"} {
		h := snap.Histograms[name]
		if w := uint64(n + m + 2); h.Count != w || h.Last1m.Count != w {
			t.Errorf("%s: lifetime count %d, 1m count %d; want %d each (one per query)", name, h.Count, h.Last1m.Count, w)
		}
	}

	inventory := map[string][]string{
		"counter": {
			"admission.admitted", "admission.deadline", "admission.shed",
			"cache.results.evictions", "cache.results.hits", "cache.results.misses",
			"exec.evaluated", "exec.skipped",
			"invindex.intersect_gallop", "invindex.intersect_merge", "invindex.lookups", "invindex.postings_scanned",
			"plan.builds", "plan.evictions", "plan.hits", "plan.misses",
			"query.partial",
			"server.batches", "server.requests", "server.status.200", "server.status.429",
			"slowlog.captured", "slowlog.evicted",
		},
		"gauge":     {"admission.queued", "server.inflight"},
		"histogram": {"admission.wait_us", "plan.build_us", "query.elapsed_us", "server.latency_us"},
		"slo":       {"query_latency", "server_latency"},
	}
	for kind, names := range map[string][]string{
		"counter":   sortedNames(snap.Counters),
		"gauge":     sortedNames(snap.Gauges),
		"histogram": sortedNames(snap.Histograms),
		"slo":       sortedNames(snap.SLOs),
	} {
		if fmt.Sprint(names) != fmt.Sprint(inventory[kind]) {
			t.Errorf("%s names:\n got %q\nwant %q", kind, names, inventory[kind])
		}
	}
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
