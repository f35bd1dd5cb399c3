package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock(t time.Time) func() time.Time { return func() time.Time { return t } }

// decodeLines parses each JSON log line into a map.
func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]interface{} {
	t.Helper()
	var out []map[string]interface{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not valid JSON: %v\nline: %s", err, line)
		}
		out = append(out, m)
	}
	return out
}

func TestLoggerEmitsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	ts := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	lg := NewLogger(&buf, LevelInfo).WithClock(fixedClock(ts))

	lg.Info("query served",
		F("request_id", "r-1"),
		F("elapsed", 1500*time.Microsecond),
		F("results", 10),
		F("partial", false),
		F("bytes", uint64(4096)),
	)

	lines := decodeLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	m := lines[0]
	if m["ts"] != ts.Format(time.RFC3339Nano) {
		t.Errorf("ts = %v, want %v", m["ts"], ts.Format(time.RFC3339Nano))
	}
	if m["level"] != "info" || m["msg"] != "query served" {
		t.Errorf("level/msg = %v/%v", m["level"], m["msg"])
	}
	if m["request_id"] != "r-1" || m["elapsed"] != "1.5ms" {
		t.Errorf("fields = %v", m)
	}
	if m["results"] != float64(10) || m["partial"] != false || m["bytes"] != float64(4096) {
		t.Errorf("scalar fields = %v", m)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelWarn)

	lg.Debug("hidden")
	lg.Info("hidden")
	lg.Warn("shown")
	lg.Error("shown too")

	lines := decodeLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (warn+error only): %v", len(lines), lines)
	}
	if lines[0]["level"] != "warn" || lines[1]["level"] != "error" {
		t.Errorf("levels = %v, %v", lines[0]["level"], lines[1]["level"])
	}

	// Severity ordering: debug < info < warn < error, despite the
	// declaration order that makes LevelInfo the zero value.
	if !(LevelDebug.severity() < LevelInfo.severity() &&
		LevelInfo.severity() < LevelWarn.severity() &&
		LevelWarn.severity() < LevelError.severity()) {
		t.Error("severity order broken")
	}
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		got, err := ParseLevel(lv.String())
		if err != nil || got != lv {
			t.Errorf("ParseLevel(%q) = %v, %v", lv.String(), got, err)
		}
	}
	if _, err := ParseLevel("chatty"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
	if lv, err := ParseLevel(""); err != nil || lv != LevelInfo {
		t.Errorf("ParseLevel(\"\") = %v, %v, want info default", lv, err)
	}
}

func TestLoggerNilSafety(t *testing.T) {
	var lg *Logger
	// None of these may panic.
	lg.Debug("x")
	lg.Info("x", F("k", "v"))
	lg.Warn("x")
	lg.Error("x")
	if lg.Enabled(LevelError) {
		t.Error("nil logger claims enabled")
	}
	if lg.With(F("k", "v")) != nil {
		t.Error("With on nil should stay nil")
	}
	if lg.WithClock(time.Now) != nil {
		t.Error("WithClock on nil should stay nil")
	}
}

func TestLoggerWithBindsFields(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelInfo).WithClock(fixedClock(time.Unix(0, 0)))
	req := lg.With(F("request_id", "r-7"), F("namespace", "tenant-a"))

	req.Info("stage done", F("stage", "bind"))
	lg.Info("no bound fields")

	lines := decodeLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	if lines[0]["request_id"] != "r-7" || lines[0]["namespace"] != "tenant-a" || lines[0]["stage"] != "bind" {
		t.Errorf("bound fields missing: %v", lines[0])
	}
	if _, ok := lines[1]["request_id"]; ok {
		t.Errorf("parent logger leaked derived fields: %v", lines[1])
	}
}

func TestLoggerCallSiteFieldWinsOverBound(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelInfo).With(F("stage", "outer"))
	lg.Info("msg", F("stage", "inner"))

	// The raw line contains both keys (bound first); JSON decoders keep
	// the last duplicate, so the call site wins.
	lines := decodeLines(t, &buf)
	if lines[0]["stage"] != "inner" {
		t.Errorf("stage = %v, want inner (call-site field wins)", lines[0]["stage"])
	}
}

func TestLoggerAwkwardFieldValues(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelInfo)
	lg.Info(`msg with "quotes" and \slashes`,
		F("chan", make(chan int)), // json.Marshal rejects channels
		F("newline", "a\nb"),
	)
	lines := decodeLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("awkward values broke line emission: %d lines", len(lines))
	}
	if lines[0]["newline"] != "a\nb" {
		t.Errorf("newline field mangled: %q", lines[0]["newline"])
	}
	if _, ok := lines[0]["chan"].(string); !ok {
		t.Errorf("unmarshalable field should degrade to a string: %v", lines[0]["chan"])
	}
}

func TestLoggerConcurrentLinesInterleaveWhole(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := lg.With(F("goroutine", g))
			for i := 0; i < 50; i++ {
				sub.Info("tick", F("i", i))
			}
		}(g)
	}
	wg.Wait()
	lines := decodeLines(t, &buf) // fails if any line is torn
	if len(lines) != 8*50 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*50)
	}
}

func TestLoggerContextPlumbing(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelDebug)
	ctx := WithLogger(context.Background(), lg)
	ctx = WithRequestID(ctx, "req-42")

	if FromContext(ctx) != lg {
		t.Error("FromContext lost the logger")
	}
	if RequestIDFrom(ctx) != "req-42" {
		t.Errorf("RequestIDFrom = %q", RequestIDFrom(ctx))
	}
	if FromContext(context.Background()) != nil {
		t.Error("empty context should yield nil logger")
	}
	if RequestIDFrom(context.Background()) != "" {
		t.Error("empty context should yield empty request id")
	}
	// nil-context robustness (callers deep in the pipeline may hold nil).
	if FromContext(nil) != nil || RequestIDFrom(nil) != "" { //nolint:staticcheck
		t.Error("nil context should degrade to disabled")
	}
	// WithLogger(nil) must not shadow an existing logger entry.
	if FromContext(WithLogger(ctx, nil)) != lg {
		t.Error("WithLogger(nil) dropped the logger")
	}
}

func TestLoggerEnabledGuard(t *testing.T) {
	lg := NewLogger(&bytes.Buffer{}, LevelInfo)
	if lg.Enabled(LevelDebug) {
		t.Error("debug enabled at info level")
	}
	if !lg.Enabled(LevelInfo) || !lg.Enabled(LevelError) {
		t.Error("info/error should be enabled at info level")
	}
	if lg.Level() != LevelInfo {
		t.Errorf("Level() = %v", lg.Level())
	}
}

// FuzzAppendJSONValue pins the log's string fast path: for every string,
// appendJSONString — and appendJSONValue, which the other field types
// take — must write exactly json.Marshal's bytes, so no log line changes
// whichever path a field takes. The seeds sit on both sides of the
// verbatim test: HTML-escaped bytes, quote and backslash, control bytes,
// DEL, U+2028/U+2029, invalid UTF-8, and Korean and Japanese text.
func FuzzAppendJSONValue(f *testing.F) {
	for _, s := range []string{
		"", "request", "/query", "1a2b3c-42", "12.5µs", "1.5ms",
		"<", ">", "&", "a<b>&c", `"`, `\`, `say "hi" \ bye`,
		"\x00", "\t", "\n", "\r\n", "\x1f", "\x7f", " ~",
		"\u2028", "\u2029", "line\u2028sep",
		"\xff", "\xc3\x28", "\xed\xa0\x80", "ok\x80",
		"키워드 검색", "データベース検索", "검색 <b>&</b>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var str, val strings.Builder
		appendJSONString(&str, s)
		appendJSONValue(&val, s)
		if str.String() != string(want) || val.String() != string(want) {
			t.Fatalf("%q: appendJSONString %s, appendJSONValue %s, json.Marshal %s", s, str.String(), val.String(), want)
		}
	})
}
