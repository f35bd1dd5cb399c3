package obs

// This file renders a Snapshot in the Prometheus text exposition format
// (version 0.0.4) so any standard scraper ingests the registry — the
// /metrics JSON stays for humans and tests, /metrics/prom is for
// Prometheus. Rendering works from a Snapshot, not the live registry,
// so tests can feed fixed snapshots and the scrape cost is one snapshot
// plus formatting.
//
// Mapping:
//   - counters  → "<name>_total" with TYPE counter;
//   - gauges    → "<name>" with TYPE gauge;
//   - histograms→ the lifetime view as a summary:
//     "<name>{quantile="0.5|0.95|0.99"}" plus the monotonic
//     "<name>_sum" / "<name>_count"; the 1m and 5m views as gauges,
//     since their counts fall as slots age out:
//     "<name>_window{window="1m|5m",quantile=...}" and
//     "<name>_window_observations{window=...}";
//   - SLOs      → "slo_burn_rate{slo="<name>",window=...}" gauges plus
//     threshold/objective info gauges.
//
// Every metric name gets exactly one TYPE line.
//
// Metric names are sanitized (dots → underscores, invalid runes → '_')
// and prefixed "kwsearch_"; output is sorted by name so scrapes are
// deterministic and diffable.

import (
	"io"
	"sort"
	"strconv"
	"strings"
)

// promNamePrefix namespaces every exposed series.
const promNamePrefix = "kwsearch_"

// promName sanitizes a registry metric name into a legal Prometheus
// metric name: [a-zA-Z_:][a-zA-Z0-9_:]*, with the package prefix.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(promNamePrefix) + len(name))
	b.WriteString(promNamePrefix)
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the exposition format (backslash,
// double quote, newline).
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promFloat formats a sample value; Prometheus accepts Go's shortest
// float form plus +Inf/-Inf/NaN spellings.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type promWriter struct {
	w   io.Writer
	n   int
	err error
}

func (p *promWriter) line(s string) {
	if p.err != nil {
		return
	}
	n, err := io.WriteString(p.w, s)
	p.n += n
	if err == nil {
		n, err = io.WriteString(p.w, "\n")
		p.n += n
	}
	p.err = err
}

func (p *promWriter) typeLine(name, kind string) { p.line("# TYPE " + name + " " + kind) }

func (p *promWriter) sample(name, labels string, v string) {
	if labels != "" {
		p.line(name + "{" + labels + "} " + v)
	} else {
		p.line(name + " " + v)
	}
}

// quantiles emits s's p50/p95/p99 under name, each labelled with its
// quantile after labels (which may be "").
func (p *promWriter) quantiles(name, labels string, s Summary) {
	if labels != "" {
		labels += ","
	}
	p.sample(name, labels+`quantile="0.5"`, promFloat(s.P50))
	p.sample(name, labels+`quantile="0.95"`, promFloat(s.P95))
	p.sample(name, labels+`quantile="0.99"`, promFloat(s.P99))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePromText renders s in the Prometheus text exposition format,
// returning the bytes written.
func WritePromText(w io.Writer, s Snapshot) (int, error) {
	p := &promWriter{w: w}

	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name) + "_total"
		p.typeLine(pn, "counter")
		p.sample(pn, "", strconv.FormatUint(s.Counters[name], 10))
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		p.typeLine(pn, "gauge")
		p.sample(pn, "", strconv.FormatInt(s.Gauges[name], 10))
	}
	for _, name := range sortedKeys(s.Histograms) {
		pn, h := promName(name), s.Histograms[name]
		p.typeLine(pn, "summary")
		p.quantiles(pn, "", h.Summary)
		p.sample(pn+"_sum", "", promFloat(h.Sum))
		p.sample(pn+"_count", "", strconv.FormatUint(h.Count, 10))
		p.typeLine(pn+"_window", "gauge")
		p.quantiles(pn+"_window", `window="1m"`, h.Last1m)
		p.quantiles(pn+"_window", `window="5m"`, h.Last5m)
		p.typeLine(pn+"_window_observations", "gauge")
		p.sample(pn+"_window_observations", `window="1m"`, strconv.FormatUint(h.Last1m.Count, 10))
		p.sample(pn+"_window_observations", `window="5m"`, strconv.FormatUint(h.Last5m.Count, 10))
	}
	if len(s.SLOs) > 0 {
		burn := promNamePrefix + "slo_burn_rate"
		p.typeLine(burn, "gauge")
		for _, name := range sortedKeys(s.SLOs) {
			slo := s.SLOs[name]
			base := `slo="` + promLabel(name) + `"`
			p.sample(burn, base+`,window="1m"`, promFloat(slo.BurnRate1m))
			p.sample(burn, base+`,window="5m"`, promFloat(slo.BurnRate5m))
		}
		thr := promNamePrefix + "slo_threshold"
		p.typeLine(thr, "gauge")
		for _, name := range sortedKeys(s.SLOs) {
			p.sample(thr, `slo="`+promLabel(name)+`"`, promFloat(s.SLOs[name].Threshold))
		}
		obj := promNamePrefix + "slo_objective"
		p.typeLine(obj, "gauge")
		for _, name := range sortedKeys(s.SLOs) {
			p.sample(obj, `slo="`+promLabel(name)+`"`, promFloat(s.SLOs[name].Objective))
		}
	}
	return p.n, p.err
}

// promContentType is the exposition format content type scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"
