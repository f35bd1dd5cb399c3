package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

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

// TestLoggerEmitsJSONLines pins the line format DESIGN.md documents:
// slog's time, upper-case level and msg keys, then the attributes,
// durations in nanoseconds.
func TestLoggerEmitsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelInfo)
	before := time.Now()
	lg.LogAttrs(context.Background(), LevelInfo, "query served",
		slog.String("request_id", "r-1"),
		slog.Duration("elapsed", 1500*time.Microsecond),
		slog.Int("results", 10),
		slog.Bool("partial", false),
	)

	lines := decodeLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	m := lines[0]
	ts, err := time.Parse(time.RFC3339Nano, m["time"].(string))
	if err != nil || ts.Before(before.Truncate(time.Millisecond)) {
		t.Errorf("time = %v (%v), want an RFC 3339 timestamp at or after %v", m["time"], err, before)
	}
	if m["level"] != "INFO" || m["msg"] != "query served" {
		t.Errorf("level/msg = %v/%v", m["level"], m["msg"])
	}
	if m["request_id"] != "r-1" || m["elapsed"] != float64(1500*time.Microsecond) {
		t.Errorf("fields = %v", m)
	}
	if m["results"] != float64(10) || m["partial"] != false {
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
	if lines[0]["level"] != "WARN" || lines[1]["level"] != "ERROR" {
		t.Errorf("levels = %v, %v", lines[0]["level"], lines[1]["level"])
	}
}

// TestLoggerNilSafety: a context without a logger, or no context at all,
// yields a logger that discards every line, so call sites need no nil
// checks.
func TestLoggerNilSafety(t *testing.T) {
	for _, ctx := range []context.Context{context.Background(), nil} { //nolint:staticcheck
		lg := FromContext(ctx)
		if lg == nil {
			t.Fatal("FromContext returned nil")
		}
		if lg.Enabled(context.Background(), LevelError) {
			t.Error("the fallback logger claims to emit")
		}
		lg.Error("dropped", slog.String("k", "v")) // must not panic
	}
}

// TestLoggerEnabledGuard: the guard the engine's debug and warn lines
// take before computing their fields.
func TestLoggerEnabledGuard(t *testing.T) {
	ctx := context.Background()
	lg := NewLogger(&bytes.Buffer{}, LevelInfo)
	if lg.Enabled(ctx, LevelDebug) {
		t.Error("debug enabled at info level")
	}
	if !lg.Enabled(ctx, LevelInfo) || !lg.Enabled(ctx, LevelError) {
		t.Error("info/error should be enabled at info level")
	}
}

// TestLoggerAwkwardFieldValues: a value JSON cannot encode degrades to
// a string on its line rather than losing the line.
func TestLoggerAwkwardFieldValues(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelInfo)
	lg.Info(`msg with "quotes" and \slashes`,
		"chan", make(chan int), // json.Marshal rejects channels
		"newline", "a\nb",
	)
	lines := decodeLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("awkward values broke line emission: %d lines", len(lines))
	}
	if lines[0]["newline"] != "a\nb" || lines[0]["msg"] != `msg with "quotes" and \slashes` {
		t.Errorf("string fields mangled: %v", lines[0])
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
			for i := 0; i < 50; i++ {
				lg.Info("tick", "goroutine", g, "i", i)
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
	if FromContext(context.Background()) == lg {
		t.Error("empty context yielded the attached logger")
	}
	if RequestIDFrom(context.Background()) != "" {
		t.Error("empty context should yield empty request id")
	}
	// nil-context robustness (callers deep in the pipeline may hold nil).
	if RequestIDFrom(nil) != "" { //nolint:staticcheck
		t.Error("nil context should yield empty request id")
	}
	// WithLogger(nil) must not shadow an existing logger entry.
	if FromContext(WithLogger(ctx, nil)) != lg {
		t.Error("WithLogger(nil) dropped the logger")
	}
}

// TestParseLogger pins the -log-level flag: slog level names in either
// case, "off"/"none" for no logger, anything else an error.
func TestParseLogger(t *testing.T) {
	ctx := context.Background()
	for level, want := range map[string]slog.Level{"debug": LevelDebug, "INFO": LevelInfo, "warn": LevelWarn, "error": LevelError} {
		lg, err := ParseLogger(&bytes.Buffer{}, level)
		if err != nil || lg == nil {
			t.Fatalf("%q: logger %v, err %v", level, lg, err)
		}
		if !lg.Enabled(ctx, want) || lg.Enabled(ctx, want-1) {
			t.Errorf("%q: the logger's threshold is not %v", level, want)
		}
	}
	for _, level := range []string{"off", "none"} {
		if lg, err := ParseLogger(&bytes.Buffer{}, level); lg != nil || err != nil {
			t.Errorf("%q: logger %v, err %v; want neither", level, lg, err)
		}
	}
	if _, err := ParseLogger(&bytes.Buffer{}, "loud"); err == nil {
		t.Error(`"loud" parsed as a level`)
	}
}
