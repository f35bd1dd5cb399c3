package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
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
// returns sample values keyed by "name{labels}".
func parsePromText(t *testing.T, text string) (map[string]float64, map[string]string) {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
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
		// Samples must follow their family's TYPE line. Only a summary's
		// _sum/_count series share its family name.
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if _, ok := types[name]; !ok && types[family] != "summary" {
			t.Fatalf("line %d: sample %q precedes its TYPE line", ln+1, name)
		}
	}
	return samples, types
}

// fixedClock pins a histogram's window clock.
func fixedClock(t time.Time) func() time.Time { return func() time.Time { return t } }

func promFixture() *Registry {
	reg := NewRegistry()
	reg.Counter("cache.hits").Add(42)
	reg.Counter("admission.shed").Add(3)
	reg.Gauge("gate.queued").Set(-2)
	for i := 1; i <= 100; i++ {
		reg.Histogram("query.elapsed_us").Observe(float64(i))
	}
	h := reg.Histogram("server.latency_us").WithClock(fixedClock(time.Unix(9_000_000, 0)))
	for i := 0; i < 50; i++ {
		h.Observe(200)
	}
	reg.RegisterSLO("query_latency", SLO{Series: "server.latency_us", Threshold: 1024, Objective: 0.99})
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
	if types["kwsearch_query_elapsed_us"] != "summary" {
		t.Errorf("histogram TYPE = %q", types["kwsearch_query_elapsed_us"])
	}
	if v := samples[`kwsearch_query_elapsed_us_count`]; v != 100 {
		t.Errorf("summary count = %v", v)
	}
	if v := samples[`kwsearch_query_elapsed_us{quantile="0.5"}`]; v <= 0 {
		t.Errorf("p50 sample = %v", v)
	}
	// The lifetime view is the summary; the 1m/5m views, whose counts
	// fall as slots age out, are gauges under their own names.
	if types["kwsearch_server_latency_us"] != "summary" {
		t.Errorf("lifetime TYPE = %q, want summary", types["kwsearch_server_latency_us"])
	}
	if v := samples[`kwsearch_server_latency_us_count`]; v != 50 {
		t.Errorf("lifetime count = %v, want 50", v)
	}
	for _, name := range []string{"kwsearch_server_latency_us_window", "kwsearch_server_latency_us_window_observations"} {
		if types[name] != "gauge" {
			t.Errorf("%s TYPE = %q, want gauge", name, types[name])
		}
	}
	if v := samples[`kwsearch_server_latency_us_window_observations{window="1m"}`]; v != 50 {
		t.Errorf("windowed 1m count = %v, want 50", v)
	}
	if v := samples[`kwsearch_server_latency_us_window{window="5m",quantile="0.99"}`]; v <= 0 {
		t.Errorf("windowed p99 = %v", v)
	}
	for key := range samples {
		if strings.Contains(key, "window=") && !strings.Contains(key, "_window") && !strings.HasPrefix(key, "kwsearch_slo_") {
			t.Errorf("windowed sample %q rendered under a summary family", key)
		}
	}
	// Exactly one TYPE line per name: parsePromText rejects a second one
	// and a sample without its own (bar a summary's _sum/_count).
	if v, ok := samples[`kwsearch_slo_burn_rate{slo="query_latency",window="1m"}`]; !ok || v != 0 {
		t.Errorf("burn rate sample = %v, ok=%v (all observations under threshold)", v, ok)
	}
	if v := samples[`kwsearch_slo_objective{slo="query_latency"}`]; v != 0.99 {
		t.Errorf("objective = %v", v)
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

func TestPromLabelEscaping(t *testing.T) {
	in := "a\"b\\c\nd"
	out := promLabel(in)
	for _, bad := range []string{"\n"} {
		if strings.Contains(out, bad) {
			t.Errorf("escaped label still contains %q: %q", bad, out)
		}
	}
	if !strings.Contains(out, `\"`) || !strings.Contains(out, `\\`) {
		t.Errorf("label escaping incomplete: %q", out)
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
