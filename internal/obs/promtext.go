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
//   - histograms→ TYPE histogram: the cumulative
//     "<name>_bucket{le="<bound>"}" counts, one per DefaultBuckets
//     bound plus le="+Inf" (equal to "<name>_count"), then "<name>_sum"
//     and "<name>_count". A scraper derives windows, quantiles and the
//     share over any bound from two scrapes.
//
// Every metric family gets exactly one TYPE line.
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
		count := strconv.FormatUint(h.Count, 10)
		p.typeLine(pn, "histogram")
		for _, b := range h.Buckets {
			p.sample(pn+"_bucket", `le="`+promFloat(b.LE)+`"`, strconv.FormatUint(b.Count, 10))
		}
		p.sample(pn+"_bucket", `le="+Inf"`, count)
		p.sample(pn+"_sum", "", promFloat(h.Sum))
		p.sample(pn+"_count", "", count)
	}
	return p.n, p.err
}

// promContentType is the exposition format content type scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"
