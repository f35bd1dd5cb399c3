package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSlowLogCapturePolicy(t *testing.T) {
	l := NewSlowLog(8, 50*time.Millisecond)

	cases := []struct {
		d               time.Duration
		failed, partial bool
		want            Outcome
		capture         bool
	}{
		{10 * time.Millisecond, false, false, "", false},
		{50 * time.Millisecond, false, false, OutcomeSlow, true}, // >= is inclusive
		{80 * time.Millisecond, false, false, OutcomeSlow, true},
		{10 * time.Millisecond, true, false, OutcomeError, true},
		{10 * time.Millisecond, false, true, OutcomePartial, true},
		{80 * time.Millisecond, true, true, OutcomeError, true}, // failed wins
	}
	for _, c := range cases {
		got, ok := l.Classify(c.d, c.failed, c.partial)
		if got != c.want || ok != c.capture {
			t.Errorf("Classify(%v, failed=%v, partial=%v) = %q,%v want %q,%v",
				c.d, c.failed, c.partial, got, ok, c.want, c.capture)
		}
	}

	// threshold <= 0 disables the duration trigger entirely.
	off := NewSlowLog(8, 0)
	if _, ok := off.Classify(time.Hour, false, false); ok {
		t.Error("disabled threshold classified a healthy query")
	}
	if _, ok := off.Classify(time.Nanosecond, true, false); !ok {
		t.Error("errors must be captured even with the threshold disabled")
	}
}

func TestSlowLogRingRespectsCap(t *testing.T) {
	l := NewSlowLog(4, time.Millisecond)
	for i := 0; i < 10; i++ {
		l.Record(Entry{Outcome: OutcomeSlow, Duration: time.Duration(i+1) * time.Millisecond})
	}
	if l.Len() != 4 {
		t.Fatalf("ring len = %d, want cap 4", l.Len())
	}
	if l.Captured() != 10 {
		t.Errorf("captured = %d, want 10", l.Captured())
	}
	entries := l.Entries()
	// Newest first: sequences 10, 9, 8, 7.
	for i, want := range []uint64{10, 9, 8, 7} {
		if entries[i].Seq != want {
			t.Errorf("entries[%d].Seq = %d, want %d", i, entries[i].Seq, want)
		}
	}
}

func TestSlowLogInstrumentCounters(t *testing.T) {
	reg := NewRegistry()
	l := NewSlowLog(2, time.Millisecond).Instrument(reg)
	for i := 0; i < 5; i++ {
		l.Record(Entry{Outcome: OutcomeError})
	}
	s := reg.Snapshot()
	if s.Counters["slowlog.captured"] != 5 {
		t.Errorf("slowlog.captured = %d, want 5", s.Counters["slowlog.captured"])
	}
	if s.Counters["slowlog.evicted"] != 3 {
		t.Errorf("slowlog.evicted = %d, want 3", s.Counters["slowlog.evicted"])
	}
}

func TestSlowLogConcurrentRecord(t *testing.T) {
	l := NewSlowLog(16, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := StartSpan("query")
				sp.Child("bind").End()
				sp.End()
				l.Record(Entry{
					Outcome:  OutcomeSlow,
					Duration: time.Duration(g*100+i) * time.Microsecond,
					Trace:    sp,
				})
				if i%10 == 0 {
					_ = l.Entries()
					_ = l.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 16 {
		t.Fatalf("ring len = %d, want 16", l.Len())
	}
	if l.Captured() != 800 {
		t.Errorf("captured = %d, want 800", l.Captured())
	}
	// Every retained sequence is unique and within the last 16.
	seen := map[uint64]bool{}
	for _, e := range l.Entries() {
		if seen[e.Seq] {
			t.Errorf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if e.Seq <= 800-16 {
			t.Errorf("stale seq %d survived eviction", e.Seq)
		}
		if e.Trace == nil || e.Trace.WellFormed(time.Second) != nil {
			t.Errorf("entry %d trace missing or malformed", e.Seq)
		}
	}
}

func TestSlowLogHandler(t *testing.T) {
	reg := NewRegistry()
	l := NewSlowLog(4, 25*time.Millisecond).Instrument(reg)
	sp := StartSpan("query")
	sp.Child("bind").End()
	sp.End()
	l.Record(Entry{
		RequestID:     "r-9",
		Keywords:      []string{"john", "smith"},
		KeywordsHash:  "deadbeef",
		Outcome:       OutcomeSlow,
		Duration:      30 * time.Millisecond,
		PlanSignature: "fp=1",
		Trace:         sp,
		Stats:         map[string]int{"results": 3},
	})

	rr := httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slowlog", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var page struct {
		Cap         int    `json:"cap"`
		ThresholdNS int64  `json:"threshold_ns"`
		Captured    uint64 `json:"captured"`
		Entries     []struct {
			Seq        uint64          `json:"seq"`
			Time       string          `json:"time"`
			RequestID  string          `json:"request_id"`
			Outcome    string          `json:"outcome"`
			DurationNS int64           `json:"duration_ns"`
			Trace      json.RawMessage `json:"trace"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatalf("slowlog page not JSON: %v\n%s", err, rr.Body.String())
	}
	if page.Cap != 4 || page.ThresholdNS != int64(25*time.Millisecond) || page.Captured != 1 {
		t.Errorf("page header = %+v", page)
	}
	if len(page.Entries) != 1 {
		t.Fatalf("entries = %d", len(page.Entries))
	}
	e := page.Entries[0]
	if e.RequestID != "r-9" || e.Outcome != "slow" || e.DurationNS != int64(30*time.Millisecond) {
		t.Errorf("entry = %+v", e)
	}
	if !strings.HasSuffix(e.Time, "Z") {
		t.Errorf("capture time %q is not UTC", e.Time)
	}
	if len(e.Trace) == 0 || string(e.Trace) == "null" {
		t.Error("trace missing from slowlog entry")
	}

	// A nil slowlog's handler serves an empty page rather than panicking.
	var nilLog *SlowLog
	rr = httptest.NewRecorder()
	nilLog.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slowlog", nil))
	if rr.Code != 200 {
		t.Errorf("nil slowlog handler status = %d", rr.Code)
	}
}

func TestSlowLogNilSafety(t *testing.T) {
	var l *SlowLog
	if l.Record(Entry{}) != 0 {
		t.Error("nil Record should return 0")
	}
	if l.Len() != 0 || l.Captured() != 0 || l.Entries() != nil {
		t.Error("nil reads should be empty")
	}
	if _, ok := l.Classify(time.Hour, true, true); ok {
		t.Error("nil Classify should never capture")
	}
	if l.Cap() != 0 || l.Threshold() != 0 {
		t.Error("nil accessors should be zero")
	}
	if l.Instrument(NewRegistry()) != nil {
		t.Error("Instrument on nil should stay nil")
	}
}
