package obs

// This file is the structured-logging half of the observability layer: a
// leveled JSON line logger cheap enough to leave on in the serving path,
// carried through the pipeline by context so every stage logs with the
// request's fields (request id, keyword hash, deadline)
// without threading a logger parameter through every signature.
//
// Design constraints, in order: a disabled level must cost one integer
// compare (no allocation, no field formatting); a nil *Logger must be
// safe everywhere (absent-from-context degrades to off); output must be
// one self-contained JSON object per line so any log shipper ingests it
// without configuration.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities. The zero value is LevelInfo, so a
// zero-configured logger behaves like a production default rather than a
// debug firehose.
type Level int

const (
	// LevelInfo records request-scoped events: one access-log line per
	// served query, startup/drain transitions.
	LevelInfo Level = iota
	// LevelDebug additionally records per-stage events (plan-cache
	// outcomes, partial-result causes) — verbose, for investigations.
	LevelDebug
	// LevelWarn records degradations the operator should see on a
	// dashboard: slow-query captures, sheds, drains forced to hard-close.
	LevelWarn
	// LevelError records failures: internal errors, undecodable state.
	LevelError
)

// severity maps levels onto an ascending scale for filtering (Debug <
// Info < Warn < Error); Level's declaration order instead optimizes the
// zero value.
func (l Level) severity() int {
	switch l {
	case LevelDebug:
		return 0
	case LevelWarn:
		return 2
	case LevelError:
		return 3
	}
	return 1 // LevelInfo and unknown levels
}

// String names the level as it appears in the "level" field.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "info"
}

// ParseLevel maps a level name (the String form) back to the Level —
// the -log-level flag's parser. Unknown names fail.
func ParseLevel(name string) (Level, error) {
	switch strings.ToLower(name) {
	case "debug":
		return LevelDebug, nil
	case "", "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", name)
}

// Field is one key/value pair on a log line. Values are JSON-encoded at
// emit time; keep them small (ids, counts, durations) — a log line is
// not a trace.
type Field struct {
	Key   string
	Value interface{}
}

// F builds a Field; obs.F("request_id", id) reads better at call sites
// than a struct literal.
func F(key string, value interface{}) Field { return Field{Key: key, Value: value} }

// logSink is the shared output half of a logger family: With-derived
// loggers share one sink, so lines from every derivation interleave
// whole (the mutex covers exactly one line write).
type logSink struct {
	mu sync.Mutex
	w  io.Writer
	// now is the clock, swappable in tests for deterministic timestamps.
	now func() time.Time
}

// Logger is a leveled structured logger emitting one JSON object per
// line: {"ts":...,"level":...,"msg":...,<fields>}. The zero value is not
// usable; construct with NewLogger. All methods are safe on a nil
// receiver (no-ops), so FromContext on a context without a logger
// disables logging for free. Loggers are safe for concurrent use, and
// With-derived loggers share the parent's writer lock.
type Logger struct {
	sink   *logSink
	level  Level
	fields []Field // bound fields, emitted on every line after ts/level/msg
}

// NewLogger builds a logger writing to w at the given minimum level.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{sink: &logSink{w: w, now: time.Now}, level: level}
}

// WithClock swaps the timestamp source (tests pin it); returns l.
func (l *Logger) WithClock(now func() time.Time) *Logger {
	if l != nil && now != nil {
		l.sink.now = now
	}
	return l
}

// Enabled reports whether a line at level would be emitted — guard
// expensive field construction with it.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level.severity() >= l.level.severity()
}

// Level returns the logger's minimum level (LevelError+1 equivalent on
// nil: nothing is enabled).
func (l *Logger) Level() Level {
	if l == nil {
		return Level(-1)
	}
	return l.level
}

// With returns a logger sharing l's sink and level with fields bound to
// every future line. A field whose key is already bound is overridden
// (last write wins at emit time). With on nil returns nil.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil || len(fields) == 0 {
		return l
	}
	bound := make([]Field, 0, len(l.fields)+len(fields))
	bound = append(bound, l.fields...)
	bound = append(bound, fields...)
	return &Logger{sink: l.sink, level: l.level, fields: bound}
}

// Debug emits a debug-level line.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }

// Info emits an info-level line.
func (l *Logger) Info(msg string, fields ...Field) { l.log(LevelInfo, msg, fields) }

// Warn emits a warn-level line.
func (l *Logger) Warn(msg string, fields ...Field) { l.log(LevelWarn, msg, fields) }

// Error emits an error-level line.
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

func (l *Logger) log(level Level, msg string, fields []Field) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.Grow(128)
	b.WriteString(`{"ts":"`)
	b.WriteString(l.sink.now().UTC().Format(time.RFC3339Nano))
	b.WriteString(`","level":"`)
	b.WriteString(level.String())
	b.WriteString(`","msg":`)
	appendJSONString(&b, msg)
	// Bound fields first, call fields after: at equal keys the call site
	// wins, because later duplicate keys shadow earlier ones in every
	// mainstream JSON decoder.
	for _, f := range l.fields {
		appendField(&b, f)
	}
	for _, f := range fields {
		appendField(&b, f)
	}
	b.WriteString("}\n")
	l.sink.mu.Lock()
	defer l.sink.mu.Unlock()
	_, _ = io.WriteString(l.sink.w, b.String())
}

func appendField(b *strings.Builder, f Field) {
	b.WriteByte(',')
	appendJSONString(b, f.Key)
	b.WriteByte(':')
	switch v := f.Value.(type) {
	// The common scalar field types encode without reflection.
	case string:
		appendJSONString(b, v)
	case int:
		b.WriteString(strconv.Itoa(v))
	case int64:
		b.WriteString(strconv.FormatInt(v, 10))
	case uint64:
		b.WriteString(strconv.FormatUint(v, 10))
	case bool:
		b.WriteString(strconv.FormatBool(v))
	case time.Duration:
		appendJSONString(b, v.String())
	default:
		appendJSONValue(b, v)
	}
}

// appendJSONString writes s exactly as json.Marshal(s) would. A string of
// printable ASCII without '"', '\' or the HTML-escaped '<', '>', '&' is
// emitted verbatim between quotes — request ids, routes, keys, durations
// — and only the rest pays for json.Marshal.
func appendJSONString(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			appendJSONValue(b, s)
			return
		}
	}
	b.WriteByte('"')
	b.WriteString(s)
	b.WriteByte('"')
}

// appendJSONValue writes v's JSON encoding, degrading to a quoted %v
// rendering for values json.Marshal rejects — a log line must never fail
// to emit because of one awkward field.
func appendJSONValue(b *strings.Builder, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		data, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	b.Write(data)
}

// Context plumbing. Two separate keys: the logger (which handlers derive
// per request) and the request id (which non-logging consumers — the
// slow-query log — also need).
type (
	loggerCtxKey struct{}
	reqIDCtxKey  struct{}
)

// WithLogger returns a context carrying lg; FromContext retrieves it.
func WithLogger(ctx context.Context, lg *Logger) context.Context {
	if lg == nil {
		return ctx
	}
	return context.WithValue(ctx, loggerCtxKey{}, lg)
}

// FromContext returns the context's logger, or nil (a no-op logger) when
// none was attached.
func FromContext(ctx context.Context) *Logger {
	if ctx == nil {
		return nil
	}
	lg, _ := ctx.Value(loggerCtxKey{}).(*Logger)
	return lg
}

// WithRequestID returns a context carrying the serving layer's request
// id, so stages below the HTTP handler (and the slow-query log) can
// stamp their artifacts with it.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDCtxKey{}, id)
}

// RequestIDFrom returns the context's request id, or "".
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(reqIDCtxKey{}).(string)
	return id
}
