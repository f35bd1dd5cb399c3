package core

// Tests for the tail-sampling wiring: with a SlowLog installed every
// query runs a cheap trace, and slow / errored / shed queries are
// retained as exemplars with well-formed span trees — without changing
// what the caller sees (Response.Trace stays opt-in).

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sort"
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

func TestQueryWindowedLatencyRecorded(t *testing.T) {
	e := NewRelational(dataset.WidomBib())
	if _, err := e.Query(context.Background(), Request{Query: "Widom XML"}); err != nil {
		t.Fatal(err)
	}
	s := e.Metrics.Snapshot()
	h, ok := s.Histograms["query.elapsed_us"]
	if !ok {
		t.Fatal("query latency histogram missing")
	}
	if h.Count != 1 || h.Last1m.Count != 1 || h.Last5m.Count != 1 {
		t.Errorf("lifetime/1m/5m counts = %d/%d/%d, want 1 each", h.Count, h.Last1m.Count, h.Last5m.Count)
	}
	if slo, ok := s.SLOs["query_latency"]; !ok || slo.Series != "query.elapsed_us" {
		t.Errorf("query_latency SLO = %+v, %v; want it over query.elapsed_us", slo, ok)
	}
}

// TestQueryLatencySLOBoundary: queries at 70ms under the 100ms objective
// burn no budget, and 101ms queries count as bad. The default SLO
// threshold is a default bucket bound, so the accounting is exact.
func TestQueryLatencySLOBoundary(t *testing.T) {
	thr := float64(DefaultSLOThreshold.Microseconds())
	if i := sort.SearchFloat64s(obs.DefaultBuckets, thr); i == len(obs.DefaultBuckets) || obs.DefaultBuckets[i] != thr {
		t.Fatalf("DefaultSLOThreshold %vµs is not a default bucket bound %v", thr, obs.DefaultBuckets)
	}
	e := NewRelational(dataset.WidomBib())
	h := e.Metrics.Histogram("query.elapsed_us")
	for i := 0; i < 100; i++ {
		h.Observe(float64((70 * time.Millisecond).Microseconds()))
	}
	if slo := e.Metrics.Snapshot().SLOs["query_latency"]; slo.BurnRate1m != 0 || slo.BurnRate5m != 0 {
		t.Errorf("100 queries at 70ms: burn %v / %v, want 0", slo.BurnRate1m, slo.BurnRate5m)
	}
	h.Observe(float64((101 * time.Millisecond).Microseconds()))
	want := (1.0 / 101) / (1 - 0.99)
	if slo := e.Metrics.Snapshot().SLOs["query_latency"]; math.Abs(slo.BurnRate1m-want) > 1e-9 {
		t.Errorf("one 101ms query of 101: burn %v, want %v", slo.BurnRate1m, want)
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
