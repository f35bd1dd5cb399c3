package core

// Tests for the tail-sampling wiring: with a SlowLog installed every
// query runs a cheap trace, and slow / errored / shed queries are
// retained as exemplars with well-formed span trees — without changing
// what the caller sees (Response.Trace stays opt-in).

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"kwsearch/internal/dataset"
	"kwsearch/internal/obs"
)

func TestSlowLogCapturesSlowQueries(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	sl := obs.NewSlowLog(8, time.Nanosecond) // everything is "slow"
	e.SetSlowLog(sl)
	if e.SlowLog() != sl {
		t.Fatal("SlowLog accessor lost the log")
	}

	resp, err := e.Query(context.Background(), Request{Query: "Widom XML", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Error("sampling leaked the trace into Response.Trace without Request.Trace")
	}
	entries := sl.Entries()
	if len(entries) != 1 {
		t.Fatalf("captured %d entries, want 1", len(entries))
	}
	en := entries[0]
	if en.Outcome != obs.OutcomeSlow {
		t.Errorf("outcome = %q, want slow", en.Outcome)
	}
	if en.Trace == nil {
		t.Fatal("exemplar has no trace")
	}
	if err := en.Trace.WellFormed(time.Second); err != nil {
		t.Errorf("exemplar trace malformed: %v", err)
	}
	if len(en.Keywords) != 2 || en.KeywordsHash == "" {
		t.Errorf("keywords = %v hash = %q", en.Keywords, en.KeywordsHash)
	}
	if en.PlanSignature == "" {
		t.Error("exemplar missing plan signature (serial CN path)")
	}
	if st, ok := en.Stats.(Stats); !ok || st.Results != len(resp.Results) {
		t.Errorf("exemplar stats = %#v", en.Stats)
	}
	// The capture counter landed in the engine registry.
	if got := e.Metrics.Snapshot().Counters["slowlog.captured"]; got != 1 {
		t.Errorf("slowlog.captured = %d", got)
	}
}

func TestSlowLogIgnoresHealthyQueries(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	sl := obs.NewSlowLog(8, time.Hour) // nothing is slow
	e.SetSlowLog(sl)
	if _, err := e.Query(context.Background(), Request{Query: "Widom XML", TopK: 5}); err != nil {
		t.Fatal(err)
	}
	if sl.Len() != 0 {
		t.Fatalf("healthy query captured: %+v", sl.Entries())
	}
}

func TestSlowLogCapturesShedQueries(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	sl := obs.NewSlowLog(8, time.Hour)
	e.SetSlowLog(sl)
	e.Admit(1, 0)

	// Occupy the only slot so the next query sheds immediately.
	release, err := e.Gate().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	_, err = e.Query(context.Background(), Request{Query: "Widom XML"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	entries := sl.Entries()
	if len(entries) != 1 {
		t.Fatalf("captured %d entries, want 1", len(entries))
	}
	en := entries[0]
	if en.Outcome != obs.OutcomeShed {
		t.Errorf("outcome = %q, want shed", en.Outcome)
	}
	if en.Trace == nil {
		t.Fatal("shed exemplar has no trace")
	}
	if err := en.Trace.WellFormed(time.Second); err != nil {
		t.Errorf("shed trace malformed: %v", err)
	}
	// The tree must include the admit stage that rejected it.
	found := false
	en.Trace.Walk(func(sp *obs.Span, _ int) {
		if sp.Name() == "admit" {
			found = true
		}
	})
	if !found {
		t.Errorf("shed trace lacks admit span:\n%s", en.Trace.Shape())
	}
	if en.Err == "" {
		t.Error("shed exemplar missing error text")
	}
}

func TestSlowLogCapturesBadQueries(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	sl := obs.NewSlowLog(8, time.Hour)
	e.SetSlowLog(sl)
	if _, err := e.Query(context.Background(), Request{Query: "    "}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v, want ErrBadQuery", err)
	}
	entries := sl.Entries()
	if len(entries) != 1 || entries[0].Outcome != obs.OutcomeError {
		t.Fatalf("entries = %+v", entries)
	}
	if err := entries[0].Trace.WellFormed(time.Second); err != nil {
		t.Errorf("bad-query trace malformed: %v", err)
	}
}

func TestQueryEmitsStructuredLogLines(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	e.SetSlowLog(obs.NewSlowLog(8, time.Nanosecond))
	var buf bytes.Buffer
	lg := obs.NewLogger(&buf, obs.LevelDebug)
	ctx := obs.WithLogger(context.Background(), lg)
	ctx = obs.WithRequestID(ctx, "req-123")

	if _, err := e.Query(ctx, Request{Query: "Widom XML", TopK: 5}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"msg":"query captured in slowlog"`) {
		t.Errorf("missing capture warn line:\n%s", out)
	}
	if !strings.Contains(out, `"msg":"query executed"`) {
		t.Errorf("missing debug line:\n%s", out)
	}
	if !strings.Contains(out, `"request_id":"req-123"`) {
		t.Errorf("request id not propagated into log lines:\n%s", out)
	}
	// The request id also reaches the exemplar.
	if en := e.SlowLog().Entries(); len(en) == 0 || en[0].RequestID != "req-123" {
		t.Errorf("exemplar request id = %+v", en)
	}
}

// TestQueryWindowedLatencyRecorded: each query adds one observation to
// query.elapsed_us, so the window between two scrapes around one query
// holds exactly it: count 1, a positive sum, and cumulative buckets
// that step from 0 to 1 once and stay there.
func TestQueryWindowedLatencyRecorded(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	if _, err := e.Query(context.Background(), Request{Query: "Widom XML"}); err != nil {
		t.Fatal(err)
	}
	before, ok := e.Metrics.Snapshot().Histograms["query.elapsed_us"]
	if !ok || before.Count != 1 {
		t.Fatalf("query latency histogram after one query = %+v, %v; want count 1", before, ok)
	}
	if _, err := e.Query(context.Background(), Request{Query: "Widom XML", TopK: 3}); err != nil {
		t.Fatal(err)
	}
	after := e.Metrics.Snapshot().Histograms["query.elapsed_us"]
	if n := after.Count - before.Count; n != 1 {
		t.Errorf("window count = %d, want 1", n)
	}
	if after.Sum <= before.Sum {
		t.Errorf("window sum = %v, want > 0", after.Sum-before.Sum)
	}
	if len(after.Buckets) != len(obs.DefaultBuckets) || len(before.Buckets) != len(obs.DefaultBuckets) {
		t.Fatalf("buckets %d/%d, want %d", len(before.Buckets), len(after.Buckets), len(obs.DefaultBuckets))
	}
	prev := uint64(0)
	for i, b := range after.Buckets {
		d := b.Count - before.Buckets[i].Count
		if d < prev || d > 1 {
			t.Fatalf("window bucket le=%v = %d after %d; want one step from 0 to 1", b.LE, d, prev)
		}
		prev = d
	}
	if prev != 1 {
		t.Errorf("window's last bucket = %d, want 1 (the query under 5e9µs)", prev)
	}
}

func TestPlanSignatureOnExecutorPath(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	resp, err := e.Query(context.Background(), Request{Query: "Widom XML", TopK: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.PlanSignature == "" {
		t.Error("executor path lost the plan signature")
	}
	if resp.Stats.Exec == nil || resp.Stats.Exec.PlanKey != resp.Stats.PlanSignature {
		t.Errorf("PlanKey mismatch: %+v", resp.Stats.Exec)
	}
}

// TestRetainedTracesOutliveReleasedTrees checks which sampled trees
// Query hands back for reuse: only those neither returned nor captured.
// A returned trace and the exemplars of an errored and a
// deadline-partial query are kept; then many healthy sampled queries
// (each tree released, so later ones reuse the storage) run on the
// pool, and every kept tree must still render as it did.
func TestRetainedTracesOutliveReleasedTrees(t *testing.T) {
	e := NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	sl := obs.NewSlowLog(8, time.Hour) // only errors are captured
	e.SetSlowLog(sl)
	ctx := context.Background()

	resp, err := e.Query(ctx, Request{Query: "keyword search", Workers: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	traced, tracedText := resp.Trace, resp.Trace.String()
	if _, err := e.Query(ctx, Request{Query: "keyword search", MaxCNSize: MaxCNSizeLimit + 1}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("oversized query: err %v, want ErrBadQuery", err)
	}
	// ≈15 ms of joins at ×1, so a 1 ms deadline leaves a partial answer.
	resp, err = e.Query(ctx, Request{Query: "keyword search www", TopK: 10000, MaxCNSize: 6, Workers: 2, Deadline: time.Millisecond})
	if err != nil || !resp.Partial {
		t.Fatalf("deadline query: partial %v, err %v; want a partial answer", resp != nil && resp.Partial, err)
	}
	if sl.Len() != 2 {
		t.Fatalf("slowlog holds %d entries, want the errored and the partial query's", sl.Len())
	}
	kept := []*Trace{traced}
	texts := []string{tracedText}
	for _, en := range sl.Entries() {
		kept, texts = append(kept, en.Trace), append(texts, en.Trace.String())
	}

	for i, le := range dataset.QueryLog(e.DB, 40, 1) {
		resp, err := e.Query(ctx, Request{Query: strings.Join(le.Terms, " "), Workers: 1 + i%3})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Trace != nil {
			t.Fatal("sampling leaked the trace into Response.Trace without Request.Trace")
		}
	}
	if sl.Len() != 2 {
		t.Fatalf("healthy queries were captured: slowlog holds %d entries", sl.Len())
	}
	for i, tr := range kept {
		if got := tr.String(); got != texts[i] {
			t.Errorf("kept trace %d changed after later queries:\n%s\nwant:\n%s", i, got, texts[i])
		}
		if err := tr.WellFormed(time.Second); err != nil {
			t.Error(err)
		}
	}
}
