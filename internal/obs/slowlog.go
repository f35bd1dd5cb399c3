package obs

// This file is the tail-sampling half of the tracing layer. Every query
// runs with a cheap always-on trace; the span tree, stats, and plan
// signature are *retained* only when the query turns out to be worth
// keeping — slow past a configurable threshold, errored, shed, partial,
// or deadline-expired. The retained exemplars live in a bounded
// in-memory ring served at /debug/slowlog, so "which queries blew the
// budget and where did the time go" is answerable from a running daemon
// without asking clients to re-send with tracing on.

import (
	"encoding/json"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// KeywordsHash returns the FNV-64a hash of the raw query text in hex —
// the stable join key stamped on access-log lines, slow-query exemplars
// and traces, so one query can be followed across all three without
// logging the query text itself at info level.
func KeywordsHash(query string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(query))
	return strconv.FormatUint(h.Sum64(), 16)
}

// Outcome classifies why a query was retained in the slow-query log.
type Outcome string

const (
	// OutcomeSlow: completed fine but past the latency threshold.
	OutcomeSlow Outcome = "slow"
	// OutcomeError: failed with an internal or bad-query error.
	OutcomeError Outcome = "error"
	// OutcomeShed: rejected by the admission gate (overload).
	OutcomeShed Outcome = "shed"
	// OutcomePartial: returned a certified partial prefix on deadline.
	OutcomePartial Outcome = "partial"
	// OutcomeDeadline: the deadline expired with nothing certifiable.
	OutcomeDeadline Outcome = "deadline"
)

// Entry is one retained query exemplar: identity, classification, and
// the full evidence (span tree, per-query stats, plan signature).
type Entry struct {
	// Seq is the capture sequence number (monotonic per SlowLog); the
	// ring keeps the Cap most recent sequences.
	Seq uint64 `json:"seq"`
	// Time is the capture wall time, in UTC.
	Time time.Time `json:"time"`
	// RequestID is the serving layer's id for the request ("" for
	// requests that never passed through the HTTP front end).
	RequestID string `json:"request_id,omitempty"`
	// Keywords is the query's term list as typed (post-cleaning).
	Keywords []string `json:"keywords,omitempty"`
	// KeywordsHash is the FNV-64a hash of the joined keywords — the
	// stable join key between log lines, traces, and this ring.
	KeywordsHash string `json:"keywords_hash,omitempty"`
	// Outcome says why the entry was retained.
	Outcome Outcome `json:"outcome"`
	// Duration is the query's total wall time.
	Duration time.Duration `json:"duration_ns"`
	// Err is the error text for errored/shed/deadline outcomes.
	Err string `json:"error,omitempty"`
	// PlanSignature is the plan-cache key the query compiled under, so
	// an exemplar can be correlated with plan-cache churn.
	PlanSignature string `json:"plan_signature,omitempty"`
	// Trace is the query's span tree (always present for captured
	// queries; tail sampling keeps the tree only for retained entries).
	Trace *Span `json:"trace,omitempty"`
	// Stats is the engine's per-query stats payload, carried opaquely so
	// obs does not depend on core's types; it must be JSON-marshalable.
	Stats interface{} `json:"stats,omitempty"`
}

// SlowLog is a bounded ring of retained query exemplars. Record is a
// short critical section (copy one Entry into a pre-sized ring slot);
// the capture *decision* is the caller's, via Classify, so the fast
// path for healthy queries is a few comparisons and no lock. Nil
// receivers no-op, matching the rest of the package.
type SlowLog struct {
	mu        sync.Mutex
	ring      []Entry
	seq       uint64 // total captures; ring holds the last len(ring)
	cap       int
	threshold time.Duration

	// captured/dropped mirror into a registry via Instrument; owned here
	// so recording works registry-free.
	captured Counter
	dropped  Counter
}

// NewSlowLog builds a slow-query log retaining at most cap entries and
// classifying completed queries slower than threshold as OutcomeSlow.
// cap <= 0 falls back to 64; threshold <= 0 disables the duration
// trigger (only errored/shed/partial/deadline queries are retained).
func NewSlowLog(cap int, threshold time.Duration) *SlowLog {
	if cap <= 0 {
		cap = 64
	}
	return &SlowLog{ring: make([]Entry, 0, cap), cap: cap, threshold: threshold}
}

// Threshold returns the slow-query duration threshold (0 = disabled).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Cap returns the ring capacity (0 on nil).
func (l *SlowLog) Cap() int {
	if l == nil {
		return 0
	}
	return l.cap
}

// Instrument registers the log's capture counters in reg as
// slowlog.captured and slowlog.evicted; returns l.
func (l *SlowLog) Instrument(reg *Registry) *SlowLog {
	if l != nil && reg != nil {
		reg.Attach("slowlog.captured", &l.captured)
		reg.Attach("slowlog.evicted", &l.dropped)
	}
	return l
}

// Classify maps a finished query's (duration, error-ness, partial-ness)
// onto the Outcome the caller should record, returning ok=false when
// the query is healthy and must NOT be captured — the tail-sampling
// policy in one place. Shed and deadline classification is the caller's
// (they know the typed error); Classify covers the common completed
// path.
func (l *SlowLog) Classify(d time.Duration, failed, partial bool) (Outcome, bool) {
	if l == nil {
		return "", false
	}
	switch {
	case failed:
		return OutcomeError, true
	case partial:
		return OutcomePartial, true
	case l.threshold > 0 && d >= l.threshold:
		return OutcomeSlow, true
	}
	return "", false
}

// Record retains one exemplar, assigning its sequence number and
// capture time and evicting the oldest entry when the ring is full.
// Returns the assigned sequence (0 on nil).
func (l *SlowLog) Record(e Entry) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	e.Time = time.Now().UTC()
	if len(l.ring) < l.cap {
		l.ring = append(l.ring, e)
	} else {
		// Overwrite the slot holding the oldest sequence: the ring is
		// filled in order, so it's (seq-1) mod cap once saturated.
		l.ring[int((l.seq-1)%uint64(l.cap))] = e
		l.dropped.Inc()
	}
	l.mu.Unlock()
	l.captured.Inc()
	return e.Seq
}

// Len returns the number of retained entries.
func (l *SlowLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}

// Captured returns the total number of captures (including evicted).
func (l *SlowLog) Captured() uint64 {
	if l == nil {
		return 0
	}
	return l.captured.Value()
}

// Entries returns the retained exemplars, newest first.
func (l *SlowLog) Entries() []Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]Entry(nil), l.ring...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// slowlogPage is the /debug/slowlog JSON document.
type slowlogPage struct {
	Cap       int           `json:"cap"`
	Threshold time.Duration `json:"threshold_ns"`
	Captured  uint64        `json:"captured"`
	Evicted   uint64        `json:"evicted"`
	Entries   []Entry       `json:"entries"`
}

// Handler serves the retained exemplars as JSON (newest first) — the
// /debug/slowlog endpoint.
func (l *SlowLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		page := slowlogPage{Cap: l.Cap(), Threshold: l.Threshold(), Entries: l.Entries()}
		if l != nil {
			page.Captured = l.captured.Value()
			page.Evicted = l.dropped.Value()
		}
		if page.Entries == nil {
			page.Entries = []Entry{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(page)
	})
}
