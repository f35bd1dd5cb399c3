package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler returns the observability mux for reg, for a server that mounts
// the endpoints beside its own (internal/server does, and kwsd serves it):
//
//	/metrics        — JSON Snapshot of reg (cumulative buckets included)
//	/metrics/prom   — Prometheus text exposition of the same snapshot
//	/debug/slowlog  — slowlog's retained exemplars, when slowlog is non-nil
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
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
