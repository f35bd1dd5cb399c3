package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/obs"
)

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so an allocation count sees the handler and not the recorder.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestServedHitAllocs pins what serving a result-cache hit costs: a
// warm POST /query through Handler() on a server wired as kwsd's
// defaults are (admission gate, capped deadline, info access log,
// slowlog). The answer's text, the body encoding and the access-log
// line are all built on this path.
func TestServedHitAllocs(t *testing.T) {
	e := core.NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	e.Admit(8, 16)
	h := New(e, Options{
		DefaultWorkers: 1,
		MaxDeadline:    time.Minute,
		Logger:         obs.NewLogger(io.Discard, obs.LevelInfo),
		SlowLog:        obs.NewSlowLog(64, 100*time.Millisecond),
	}).Handler()
	body := []byte(`{"query":"keyword search","k":10}`)
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		clear(w.h)
		w.status = 0
		req.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	serve() // warm the result cache
	allocs := testing.AllocsPerRun(200, serve)
	if allocs > 107 {
		t.Errorf("served result-cache hit allocates %.0f times, want <= 107", allocs)
	}
	t.Logf("served result-cache hit: %.0f allocs", allocs)
}

// TestBodiesAreCompactJSON pins the wire format: /query and /batch
// bodies are one line of JSON, carrying exactly the fields and values
// of the response (re-marshalling the decoded body reproduces it byte
// for byte, and the answers match the in-process ones), while the
// human-facing /debug/slowlog stays indented.
func TestBodiesAreCompactJSON(t *testing.T) {
	e, ts := newTestServer(t, nil, Options{SlowLog: obs.NewSlowLog(8, time.Nanosecond)})
	get := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
		}
		return data
	}
	// oneLine checks that data is compact JSON ending in one newline and,
	// when v is non-nil, that re-marshalling its decoded value gives data
	// back (stats and trace blocks do not decode into their Go types).
	oneLine := func(path string, data []byte, v interface{}) {
		t.Helper()
		if i := bytes.IndexByte(data, '\n'); i != len(data)-1 {
			t.Fatalf("%s: newline at byte %d of %d, want only the trailing one:\n%s", path, i, len(data), data)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if compact.String()+"\n" != string(data) {
			t.Errorf("%s: body carries insignificant whitespace:\n%s", path, data)
		}
		if v == nil {
			return
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		again, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(again)+"\n" != string(data) {
			t.Errorf("%s: body is not the encoding of its own value:\n%s\n%s", path, data, again)
		}
	}

	q := QueryRequest{Query: "keyword search"}
	want, err := reference(e, q)
	if err != nil {
		t.Fatal(err)
	}
	var one QueryResponse
	oneLine("/query", get(http.MethodPost, "/query", `{"query":"keyword search"}`), &one)
	if one.Query != q.Query || one.Status != http.StatusOK {
		t.Errorf("/query envelope = %+v", one)
	}
	if got := RenderResults(one.Results); got != want {
		t.Errorf("/query answer differs from in-process:\n%s\nwant:\n%s", got, want)
	}
	oneLine("/query", get(http.MethodPost, "/query", `{"query":"keyword search","stats":true,"trace":true}`), nil)

	var batch BatchResponse
	oneLine("/batch", get(http.MethodPost, "/batch", `{"queries":[{"query":"keyword search"},{"query":"bogus","semantics":"nope"}]}`), &batch)
	if len(batch.Responses) != 2 || batch.Responses[1].Code != CodeBadQuery {
		t.Fatalf("/batch = %+v", batch)
	}
	if got := RenderResults(batch.Responses[0].Results); got != want {
		t.Errorf("/batch item 0 differs from in-process:\n%s\nwant:\n%s", got, want)
	}

	if page := get(http.MethodGet, "/debug/slowlog", ""); !bytes.Contains(page, []byte("\n  \"")) {
		t.Errorf("/debug/slowlog lost its indentation:\n%s", page)
	}
}
