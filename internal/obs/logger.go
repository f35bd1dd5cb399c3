package obs

// Structured logging is log/slog writing JSON lines. The logger and request
// id travel in the context; each site logs its fields in one LogAttrs call.

import (
	"context"
	"io"
	"log/slog"
	"math"
)

// The log levels are slog's: info is one access line per request, debug
// adds the engine's per-query line, warn is a slow-query capture.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// NewLogger returns a logger writing lines at level and above to w as JSON:
// "time", upper-case "level", "msg", the attributes; durations in ns.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// ParseLogger maps a -log-level flag onto NewLogger(w, level): a slog
// level name (debug, info, warn, error), or "off" or "none" for no
// logger (nil).
func ParseLogger(w io.Writer, level string) (*slog.Logger, error) {
	if level == "off" || level == "none" {
		return nil, nil
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, err
	}
	return NewLogger(w, lv), nil
}

// discard is FromContext's logger for a context that carries none: no
// level reaches its threshold (slog.DiscardHandler needs go1.24).
var discard = slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// The request id has its own key: the slow-query log needs it too.
type (
	loggerCtxKey struct{}
	reqIDCtxKey  struct{}
)

// WithLogger returns a context carrying lg (ctx itself when lg is nil).
func WithLogger(ctx context.Context, lg *slog.Logger) context.Context {
	if lg == nil {
		return ctx
	}
	return context.WithValue(ctx, loggerCtxKey{}, lg)
}

// FromContext returns the context's logger, or one that discards every
// line when none was attached, so call sites need no nil checks.
func FromContext(ctx context.Context) *slog.Logger {
	if ctx != nil {
		if lg, ok := ctx.Value(loggerCtxKey{}).(*slog.Logger); ok {
			return lg
		}
	}
	return discard
}

// WithRequestID returns a context carrying the serving layer's request
// id, for the engine's log lines and slow-query exemplars.
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
