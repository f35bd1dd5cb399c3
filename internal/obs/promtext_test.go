package obs

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The exposition-format grammar the tests parse against (text format
// 0.0.4): comment/TYPE lines and sample lines with optional labels.
var (
	promMetricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promTypeLineRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
	promSampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
)

// parsePromText validates text line-by-line against the grammar and
// returns sample values keyed by "name{labels}". A histogram's _bucket
// lines must rise in le, never decrease, and end at le="+Inf" with the
// value of its _count line.
func parsePromText(t *testing.T, text string) (map[string]float64, map[string]string) {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	type bucketRun struct{ le, count float64 }
	buckets := map[string]bucketRun{} // histogram family → its last bucket
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			m := promTypeLineRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed comment line %q", ln+1, line)
			}
			if _, dup := types[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, m[1])
			}
			types[m[1]] = m[2]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample line %q", ln+1, line)
		}
		name, labels, value := m[1], m[3], m[4]
		if !promMetricNameRe.MatchString(name) {
			t.Fatalf("line %d: bad metric name %q", ln+1, name)
		}
		le := ""
		if labels != "" {
			for _, pair := range strings.Split(labels, ",") {
				eq := strings.Index(pair, "=")
				if eq < 0 {
					t.Fatalf("line %d: label pair %q missing '='", ln+1, pair)
				}
				lname, lval := pair[:eq], pair[eq+1:]
				if !promLabelNameRe.MatchString(lname) {
					t.Fatalf("line %d: bad label name %q", ln+1, lname)
				}
				if len(lval) < 2 || lval[0] != '"' || lval[len(lval)-1] != '"' {
					t.Fatalf("line %d: label value %q not quoted", ln+1, lval)
				}
				if lname == "le" {
					le = lval[1 : len(lval)-1]
				}
			}
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("line %d: unparsable value %q: %v", ln+1, value, err)
		}
		key := name
		if labels != "" {
			key += "{" + labels + "}"
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %q", ln+1, key)
		}
		samples[key] = v
		// Samples must follow their family's TYPE line. Only a
		// histogram's _bucket/_sum/_count series share its family name.
		if _, ok := types[name]; ok {
			continue
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			family = strings.TrimSuffix(family, suffix)
		}
		if types[family] != "histogram" {
			t.Fatalf("line %d: sample %q precedes its TYPE line", ln+1, name)
		}
		last, started := buckets[family]
		switch name {
		case family + "_bucket":
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("line %d: bucket le %q: %v", ln+1, le, err)
			}
			if started && (bound <= last.le || v < last.count) {
				t.Fatalf("line %d: bucket le=%v count %v after le=%v count %v", ln+1, bound, v, last.le, last.count)
			}
			buckets[family] = bucketRun{bound, v}
		case family + "_count":
			if !started || !math.IsInf(last.le, 1) || last.count != v {
				t.Fatalf("line %d: %s = %v, but the last bucket is %+v (want le=+Inf with the same count)", ln+1, name, v, last)
			}
		}
	}
	return samples, types
}

func promFixture() *Registry {
	reg := NewRegistry()
	reg.Counter("cache.hits").Add(42)
	reg.Counter("admission.shed").Add(3)
	reg.Gauge("gate.queued").Set(-2)
	for i := 1; i <= 100; i++ {
		reg.Histogram("query.elapsed_us").Observe(float64(i))
	}
	for i := 0; i < 50; i++ {
		reg.Histogram("server.latency_us").Observe(200)
	}
	return reg
}

func TestPromTextGrammarAndContent(t *testing.T) {
	var sb strings.Builder
	n, err := WritePromText(&sb, promFixture().Snapshot())
	if err != nil {
		t.Fatalf("WritePromText: %v", err)
	}
	text := sb.String()
	if n != len(text) {
		t.Errorf("reported %d bytes, wrote %d", n, len(text))
	}

	samples, types := parsePromText(t, text)

	if v := samples["kwsearch_cache_hits_total"]; v != 42 {
		t.Errorf("cache hits = %v, want 42", v)
	}
	if types["kwsearch_cache_hits_total"] != "counter" {
		t.Errorf("counter TYPE = %q", types["kwsearch_cache_hits_total"])
	}
	if v := samples["kwsearch_gate_queued"]; v != -2 {
		t.Errorf("gauge = %v, want -2", v)
	}
	for _, name := range []string{"kwsearch_query_elapsed_us", "kwsearch_server_latency_us"} {
		if types[name] != "histogram" {
			t.Errorf("%s TYPE = %q, want histogram", name, types[name])
		}
	}
	// Observations 1..100: the bounds 50 and 100 split them exactly.
	for key, want := range map[string]float64{
		`kwsearch_query_elapsed_us_bucket{le="1"}`:    1,
		`kwsearch_query_elapsed_us_bucket{le="50"}`:   50,
		`kwsearch_query_elapsed_us_bucket{le="100"}`:  100,
		`kwsearch_query_elapsed_us_bucket{le="+Inf"}`: 100,
		`kwsearch_query_elapsed_us_count`:             100,
		`kwsearch_query_elapsed_us_sum`:               5050,
		`kwsearch_server_latency_us_bucket{le="100"}`: 0,
		`kwsearch_server_latency_us_bucket{le="200"}`: 50,
		`kwsearch_server_latency_us_count`:            50,
	} {
		if v, ok := samples[key]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", key, v, ok, want)
		}
	}
	if got := strings.Count(text, "kwsearch_query_elapsed_us_bucket{"); got != len(DefaultBuckets)+1 {
		t.Errorf("%d query.elapsed_us buckets, want one per bound plus +Inf (%d)", got, len(DefaultBuckets)+1)
	}
	for _, kind := range types {
		if kind == "summary" {
			t.Errorf("summary family in the exposition:\n%s", text)
		}
	}
}

func TestPromTextDeterministic(t *testing.T) {
	reg := promFixture()
	var a, b strings.Builder
	if _, err := WritePromText(&a, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := WritePromText(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two scrapes of an idle registry differ")
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"cache.hits":     "kwsearch_cache_hits",
		"query elapsed":  "kwsearch_query_elapsed",
		"plan.hit/miss":  "kwsearch_plan_hit_miss",
		"ok_name:colons": "kwsearch_ok_name:colons",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
		if !promMetricNameRe.MatchString(promName(in)) {
			t.Errorf("promName(%q) = %q is not a legal metric name", in, promName(in))
		}
	}
}

func TestPromHandlerEndToEnd(t *testing.T) {
	reg := promFixture()
	srv := httptest.NewServer(Handler(reg, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("content type = %q, want %q", ct, promContentType)
	}
	samples, _ := parsePromText(t, string(raw))
	if samples["kwsearch_cache_hits_total"] != 42 {
		t.Errorf("scrape missing counter: %v", samples["kwsearch_cache_hits_total"])
	}
}
