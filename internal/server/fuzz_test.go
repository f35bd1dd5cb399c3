package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
)

// fuzzStatuses are the statuses a wire response may carry: success,
// a bad request, a wrong method, load shedding, a client that went
// away, and a deadline that lapsed in the admission queue.
var fuzzStatuses = map[int]bool{
	http.StatusOK:                 true,
	http.StatusBadRequest:         true,
	http.StatusMethodNotAllowed:   true,
	http.StatusTooManyRequests:    true,
	statusClientClosedRequest:     true,
	http.StatusServiceUnavailable: true,
}

// fuzzSeeds are bodies at the decoders' edges: absurd knob values,
// more keywords than a coverage mask holds, unknown fields, wrong
// shapes and truncations.
var fuzzSeeds = []struct {
	batch bool
	body  string
}{
	{false, `{"query":"widom xml","stats":true,"trace":true}`},
	{false, `{"query":"widom xml","workers":2147483647,"k":1000000000,"max_cn_size":1000000000,"deadline_ms":9223372036854775807,"stats":true}`},
	{false, `{"query":"widom xml","workers":-3,"k":-5,"max_cn_size":-1,"deadline_ms":1}`},
	{false, `{"query":"widom xml","deadline_ms":-9223372036854775808}`},
	{false, `{"query":"xml","semantics":"spark","max_cn_size":64,"deadline_ms":9300000000000}`},
	{false, `{"query":"` + strings.Repeat("widom ", 40) + `","stats":true}`},
	{false, `{"query":"` + strings.Repeat("widom ", 40) + `","semantics":"steiner"}`},
	{false, `{"query":"` + strings.Repeat("xml ", 33) + `","semantics":"banks","k":100000}`},
	{false, `{"query":"widom","clean":true,"semantics":"elca"}`},
	{false, `{"query":"widom","bogus":1}`},
	{false, `{"query":"wid`},
	{false, `{"query":"widom"} trailing`},
	{false, `null`},
	{false, `[]`},
	{false, ``},
	{true, `{"queries":[{"query":"widom xml","stats":true},{"query":""},{"query":"xml","semantics":"spark","workers":100000}]}`},
	{true, `{"queries":[` + strings.Repeat(`{"query":"widom xml","max_cn_size":99,"stats":true},`, 20) + `{"query":"x"}]}`},
	{true, `{"queries":[]}`},
	{true, `{"queries":[{"query":"widom","k":"ten"}]}`},
	{true, `{"queries":[{"query":"widom"}`},
}

// FuzzServeQuery posts arbitrary bodies to /query and /batch on a small
// engine behind an admission gate: every response must be valid JSON
// whose status is one the wire defines, no 5xx other than a 503 for a
// deadline that lapsed while queued, and a stats block carries no
// registry delta.
func FuzzServeQuery(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.batch, []byte(s.body))
	}
	e := core.NewRelational(dataset.WidomBib())
	e.Admit(2, 4)
	h := New(e, Options{MaxDeadline: 50 * time.Millisecond}).Handler()
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/query"
		if batch {
			path = "/batch"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		out := rec.Body.Bytes()
		if !json.Valid(out) {
			t.Fatalf("POST %s %q: status %d, body not JSON: %q", path, body, rec.Code, out)
		}
		if batch && rec.Code == http.StatusOK {
			var br struct {
				Responses []json.RawMessage `json:"responses"`
			}
			if err := json.Unmarshal(out, &br); err != nil {
				t.Fatalf("POST /batch %q: %v", body, err)
			}
			for i, item := range br.Responses {
				checkFuzzResponse(t, path, body, i, 0, item)
			}
			return
		}
		checkFuzzResponse(t, path, body, -1, rec.Code, out)
	})
}

// TestHugeDeadlineClamped: a deadline_ms whose nanosecond product
// overflows int64 used to wrap negative, which no deadline was applied
// for and MaxDeadline did not clamp. It saturates and is clamped now.
func TestHugeDeadlineClamped(t *testing.T) {
	s := New(core.NewRelational(dataset.WidomBib()), Options{MaxDeadline: 50 * time.Millisecond})
	for _, ms := range []int64{math.MaxInt64, 9_300_000_000_000} {
		req, err := s.toRequest(QueryRequest{Query: "widom", DeadlineMS: ms})
		if err != nil || req.Deadline != 50*time.Millisecond {
			t.Errorf("deadline_ms %d: deadline %v (err %v), want the 50ms cap", ms, req.Deadline, err)
		}
	}
}

// checkFuzzResponse validates one QueryResponse envelope (item i of a
// batch, or the whole /query body when i < 0, whose envelope status must
// equal the HTTP status httpStatus).
func checkFuzzResponse(t *testing.T, path string, body []byte, i, httpStatus int, raw []byte) {
	t.Helper()
	var resp struct {
		Status int                        `json:"status"`
		Code   string                     `json:"code"`
		Error  string                     `json:"error"`
		Stats  map[string]json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("POST %s %q item %d: %v in %s", path, body, i, err, raw)
	}
	if i < 0 && resp.Status != httpStatus {
		t.Fatalf("POST %s %q: envelope status %d, HTTP %d", path, body, resp.Status, httpStatus)
	}
	if !fuzzStatuses[resp.Status] {
		t.Fatalf("POST %s %q item %d: status %d (%s)", path, body, i, resp.Status, resp.Error)
	}
	if resp.Status == http.StatusServiceUnavailable && resp.Code != CodeDeadline {
		t.Fatalf("POST %s %q item %d: 503 with code %q (%s), want %q", path, body, i, resp.Code, resp.Error, CodeDeadline)
	}
	if _, ok := resp.Stats["metrics"]; ok {
		t.Fatalf("POST %s %q item %d: stats carry a metrics key", path, body, i)
	}
}
