package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the observability mux for reg, for callers that mount
// the endpoints on their own server (internal/server does):
//
//	/metrics        — JSON Snapshot of reg (windows and SLO burn included)
//	/metrics/prom   — Prometheus text exposition of the same snapshot
//	/debug/slowlog  — slowlog's retained exemplars, when slowlog is non-nil
//	/debug/vars     — the standard library's expvar page
//	/debug/pprof    — the standard pprof index, profiles included
func Handler(reg *Registry, slowlog *SlowLog) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
	mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", promContentType)
		_, _ = WritePromText(w, reg.Snapshot())
	})
	if slowlog != nil {
		mux.Handle("/debug/slowlog", slowlog.Handler())
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve exposes a registry over HTTP for ops tooling, entirely opt-in
// (nothing listens unless it is called): the Handler endpoints on a
// dedicated listener. It binds addr immediately (so the caller sees bind
// errors synchronously and can read the chosen port from Addr when addr
// ends in ":0"), then serves in a background goroutine. Stop it with
// (*Server).Shutdown for a graceful drain, or Close to abort.
//
//lint:ignore ctx-first server lifetime is managed by Shutdown/Close, not a context
func Serve(addr string, reg *Registry, slowlog *SlowLog) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		http: &http.Server{Handler: Handler(reg, slowlog), ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
		done: make(chan error, 1),
	}
	go func() { srv.done <- srv.http.Serve(ln) }()
	return srv, nil
}

// Server is a running observability endpoint; Shutdown or Close stops
// it.
type Server struct {
	http *http.Server
	ln   net.Listener
	done chan error
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the server: the listener closes immediately
// (no new connections), in-flight requests — a /metrics scrape, a
// streaming pprof profile — run to completion within ctx, and only then
// does the serve goroutine exit. When ctx expires first, Shutdown falls
// back to a hard Close so it always returns within the caller's bound,
// and reports ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Bounded fallback: the drain deadline lapsed with requests still
		// in flight; abort them rather than hang past the caller's budget.
		_ = s.http.Close()
	}
	<-s.done
	return err
}

// Close stops the listener and aborts in-flight requests mid-response.
// Prefer Shutdown, which lets them finish.
func (s *Server) Close() error {
	err := s.http.Close()
	<-s.done
	return err
}
