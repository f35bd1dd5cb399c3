// Package server is the serving layer of the engine: a stdlib-only
// HTTP/JSON front end that puts one warm core.Engine (and its admission
// gate, caches and metrics registry) on the network. It maps POST /query
// bodies onto core.Request — per-request deadlines become context
// deadlines, typed engine errors become status codes (ErrBadQuery → 400,
// ErrOverloaded → 429 with Retry-After, deadline-while-queued → 503,
// partial results → 200 with "partial": true) — batches concurrent
// queries through POST /batch, mounts the observability mux (/metrics,
// /debug/vars, /debug/pprof) beside the query API, and drains gracefully:
// Drain stops accepting, finishes in-flight requests within a bounded
// deadline, then hard-closes whatever remains.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/obs"
)

// statusClientClosedRequest reports a request whose client went away
// before the answer was ready (nginx's 499 convention); nothing useful
// can be written to the dead connection, but the status keeps the
// server's metrics honest.
const statusClientClosedRequest = 499

// Options tunes the server. The zero value is a working configuration.
type Options struct {
	// DefaultWorkers is the worker-pool size applied to requests that do
	// not set "workers" themselves (0 means 1; CN answers are identical
	// at every size).
	DefaultWorkers int
	// DefaultDeadline is applied to requests without "deadline_ms"
	// (0 = no deadline).
	DefaultDeadline time.Duration
	// MaxDeadline caps per-request deadlines; longer asks are clamped
	// (0 = uncapped).
	MaxDeadline time.Duration
	// MaxBatch bounds the /batch fan-out (default 64).
	MaxBatch int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// BaseContext, when non-nil, seeds the context of every connection
	// (and so every request). Tests use it to carry a fault injector
	// into the pipeline; production leaves it nil.
	BaseContext func() context.Context
	// Logger, when non-nil, is the server's structured logger. Every
	// request gets a derived logger carrying the request id, placed in
	// the request context so the engine's debug and slowlog-capture
	// lines join up with the serving layer's, and one access-log info
	// line is emitted per request.
	Logger *obs.Logger
	// SlowLog, when non-nil, is installed on the engine
	// (core.Engine.SetSlowLog) so every served query is tail-sampled,
	// and its retained exemplars are served at /debug/slowlog.
	SlowLog *obs.SlowLog
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	return o
}

// Server serves one engine over HTTP. Construct with New, bind with
// Start, stop with Drain (graceful) or Close (abortive).
type Server struct {
	engine core.Searcher
	reg    *obs.Registry
	opts   Options
	mux    *http.ServeMux
	logger *obs.Logger

	// Serving-path metrics, registered in the engine's registry.
	requests   *obs.Counter
	batches    *obs.Counter
	inflight   *obs.Gauge
	latency    *obs.Histogram
	latencyWin *obs.WindowedHistogram

	// Request-id generation: a per-process prefix (start time, base36)
	// plus a monotonic counter, so ids are unique across restarts and
	// cheap to mint.
	idPrefix string
	idSeq    atomic.Uint64

	httpSrv  *http.Server
	ln       net.Listener
	done     chan error
	draining atomic.Bool
}

// New builds a server over engine — a single core.Engine or the
// internal/shard coordinator, anything satisfying core.Searcher. The
// engine is shared across all connections — its caches stay warm and
// its admission gate (when installed via Admit) sheds load for every
// client at once.
func New(engine core.Searcher, opts Options) *Server {
	if opts.SlowLog != nil {
		engine.SetSlowLog(opts.SlowLog)
	}
	reg := engine.Registry()
	s := &Server{
		engine:     engine,
		reg:        reg,
		opts:       opts.withDefaults(),
		mux:        http.NewServeMux(),
		logger:     opts.Logger,
		requests:   reg.Counter("server.requests"),
		batches:    reg.Counter("server.batches"),
		inflight:   reg.Gauge("server.inflight"),
		latency:    reg.Histogram("server.latency_us"),
		latencyWin: reg.Windowed("server.latency_win_us"),
		idPrefix:   strconv.FormatInt(time.Now().UnixNano(), 36),
	}
	// The server-level SLO mirrors the engine's query SLO but over wall
	// time as the client saw it (decode + admission + evaluation).
	reg.RegisterSLO("server_latency", obs.SLO{
		Series:    "server.latency_win_us",
		Threshold: float64(core.DefaultSLOThreshold.Microseconds()),
		Objective: 0.99,
	})
	s.mux.HandleFunc("/query", s.withObs("/query", s.handleQuery))
	s.mux.HandleFunc("/batch", s.withObs("/batch", s.handleBatch))
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	obsMux := obs.HandlerWith(reg, opts.SlowLog)
	s.mux.Handle("/metrics", obsMux)
	s.mux.Handle("/metrics/prom", obsMux)
	s.mux.Handle("/debug/", obsMux)
	return s
}

// Handler returns the server's mux: the query API plus the mounted
// observability endpoints. Useful under httptest; production callers use
// Start, which owns the listener needed for graceful drain.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr and serves in a background goroutine. Bind errors
// surface synchronously; the chosen port is readable from Addr when addr
// ends in ":0". The server's lifetime is not context-scoped: it ends
// via Drain (graceful) or Close (hard), mirroring net/http.Server.
//
//lint:ignore ctx-first server lifetime is managed by Drain/Close, not a context
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	if s.opts.BaseContext != nil {
		s.httpSrv.BaseContext = func(net.Listener) context.Context { return s.opts.BaseContext() }
	}
	s.done = make(chan error, 1)
	go func() { s.done <- s.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Drain gracefully stops a started server: the listener closes
// immediately (new connections are refused, /healthz turns 503 for any
// already-open keep-alive connection), in-flight queries run to
// completion within ctx, and only then does the serve goroutine exit.
// When ctx expires first the remaining requests are hard-closed, so
// Drain always returns within the caller's bound; the ctx error is
// reported in that case.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	err := s.httpSrv.Shutdown(ctx)
	if err != nil {
		_ = s.httpSrv.Close()
	}
	<-s.done
	return err
}

// Close aborts the server without waiting for in-flight requests.
// Prefer Drain.
func (s *Server) Close() error {
	s.draining.Store(true)
	err := s.httpSrv.Close()
	<-s.done
	return err
}

// accessInfo collects per-request facts the handlers learn after the
// middleware has already run (the keywords hash is only known once the
// body is decoded). Batch items record concurrently, hence the mutex.
type accessInfo struct {
	mu     sync.Mutex
	hashes []string
}

func (a *accessInfo) record(hash string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.hashes = append(a.hashes, hash)
	a.mu.Unlock()
}

type accessInfoKey struct{}

func accessInfoFrom(ctx context.Context) *accessInfo {
	ai, _ := ctx.Value(accessInfoKey{}).(*accessInfo)
	return ai
}

// statusRecorder captures the status code and body size a handler wrote,
// for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// newRequestID mints a process-unique request id.
func (s *Server) newRequestID() string {
	return s.idPrefix + "-" + strconv.FormatUint(s.idSeq.Add(1), 10)
}

// withObs wraps a handler with the serving layer's observability
// middleware: it assigns (or adopts, from X-Request-Id) a request id,
// echoes it on the response, derives a per-request logger carrying the
// id into the request context — so engine debug
// lines and slowlog exemplars join up with the access log — and emits
// one structured access-log line per request with the route, status,
// response size, elapsed time and the keywords hash(es) the handler
// recorded while decoding.
func (s *Server) withObs(route string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = s.newRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), id)
		ai := &accessInfo{}
		ctx = context.WithValue(ctx, accessInfoKey{}, ai)
		lg := s.logger
		if lg != nil {
			lg = lg.With(obs.F("request_id", id))
			ctx = obs.WithLogger(ctx, lg)
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusRecorder{ResponseWriter: w}
		next(sw, r.WithContext(ctx))
		if lg.Enabled(obs.LevelInfo) {
			fields := []obs.Field{
				obs.F("route", route),
				obs.F("method", r.Method),
				obs.F("status", sw.status),
				obs.F("bytes", sw.bytes),
				obs.F("elapsed", time.Since(start)),
			}
			ai.mu.Lock()
			switch len(ai.hashes) {
			case 0:
			case 1:
				fields = append(fields, obs.F("keywords_hash", ai.hashes[0]))
			default:
				fields = append(fields, obs.F("queries", len(ai.hashes)))
			}
			ai.mu.Unlock()
			lg.Info("request", fields...)
		}
	}
}

// toRequest lowers a wire request onto core.Request, applying the
// server's defaults and deadline cap.
func (s *Server) toRequest(q QueryRequest) (core.Request, error) {
	sem, err := core.ParseSemantics(q.Semantics)
	if err != nil {
		return core.Request{}, err
	}
	if q.DeadlineMS < 0 {
		return core.Request{}, fmt.Errorf("server: negative deadline_ms %d: %w", q.DeadlineMS, core.ErrBadQuery)
	}
	// Saturate rather than overflow: past ≈292 years the product wraps
	// negative, and a negative deadline would escape MaxDeadline below.
	deadline := time.Duration(min(q.DeadlineMS, int64(math.MaxInt64/time.Millisecond))) * time.Millisecond
	if deadline == 0 {
		deadline = s.opts.DefaultDeadline
	}
	if s.opts.MaxDeadline > 0 && (deadline == 0 || deadline > s.opts.MaxDeadline) {
		deadline = s.opts.MaxDeadline
	}
	workers := q.Workers
	if workers == 0 {
		workers = s.opts.DefaultWorkers
	}
	return core.Request{
		Query:     q.Query,
		Semantics: sem,
		TopK:      q.TopK,
		MaxCNSize: q.MaxCNSize,
		Clean:     q.Clean,
		Deadline:  deadline,
		Workers:   workers,
		Trace:     q.Trace,
	}, nil
}

// execute runs one wire query under ctx and produces its wire response
// with the status already mapped. It is the single evaluation path both
// /query and each /batch item go through.
func (s *Server) execute(ctx context.Context, q QueryRequest) QueryResponse {
	req, err := s.toRequest(q)
	if err != nil {
		return errorResponse(q.Query, err)
	}
	kwHash := obs.KeywordsHash(q.Query)
	accessInfoFrom(ctx).record(kwHash)
	if lg := obs.FromContext(ctx); lg != nil {
		// The per-query logger adds the fields only this layer knows:
		// the keywords hash (join key into traces and the slowlog) and
		// the effective deadline after defaulting and clamping.
		fields := []obs.Field{obs.F("keywords_hash", kwHash)}
		if req.Deadline > 0 {
			fields = append(fields, obs.F("deadline", req.Deadline))
		}
		ctx = obs.WithLogger(ctx, lg.With(fields...))
	}
	resp, err := s.engine.Query(ctx, req)
	if err != nil {
		return errorResponse(q.Query, err)
	}
	out := QueryResponse{
		Query:   q.Query,
		Status:  http.StatusOK,
		Partial: resp.Partial,
		Results: toWireResults(resp.Results),
	}
	if q.Stats {
		st := resp.Stats
		out.Stats = &st
	}
	if q.Trace {
		out.Trace = resp.Trace
	}
	return out
}

// errorResponse maps a typed engine error onto the wire: the status code
// clients branch on plus the machine-readable cause.
func errorResponse(query string, err error) QueryResponse {
	resp := QueryResponse{Query: query, Error: err.Error()}
	switch {
	case errors.Is(err, core.ErrBadQuery):
		resp.Status, resp.Code = http.StatusBadRequest, CodeBadQuery
	case errors.Is(err, core.ErrOverloaded):
		resp.Status, resp.Code = http.StatusTooManyRequests, CodeOverloaded
	case errors.Is(err, core.ErrDeadlineExceeded):
		// The deadline lapsed while the query was still queued for
		// admission: nothing ran, so unlike a mid-evaluation expiry there
		// is no partial answer to certify — retry against a less loaded
		// server.
		resp.Status, resp.Code = http.StatusServiceUnavailable, CodeDeadline
	case errors.Is(err, context.Canceled):
		resp.Status, resp.Code = statusClientClosedRequest, CodeInternal
	default:
		resp.Status, resp.Code = http.StatusInternalServerError, CodeInternal
	}
	return resp
}

// handleQuery is POST /query: one JSON query in, one JSON response out.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var q QueryRequest
	if !s.decodeBody(w, r, &q) {
		return
	}
	// Every query runs under a context derived from the request's: a
	// client that disconnects cancels its query, and the wire deadline
	// (applied inside Engine.Query via core.Request.Deadline) composes
	// with it — the earlier one wins.
	resp := s.execute(r.Context(), q)
	s.writeResponse(w, resp)
	s.observeLatency(time.Since(start))
}

// handleBatch is POST /batch: up to MaxBatch queries fanned out
// concurrently, each passing individually through admission control, so
// one oversized batch cannot monopolize the engine — the gate sheds its
// excess exactly as it would shed independent clients.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.batches.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var batch BatchRequest
	if !s.decodeBody(w, r, &batch) {
		return
	}
	if len(batch.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(batch.Queries) > s.opts.MaxBatch {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(batch.Queries), s.opts.MaxBatch))
		return
	}
	s.requests.Add(uint64(len(batch.Queries)))
	out := BatchResponse{Responses: make([]QueryResponse, len(batch.Queries))}
	parentID := obs.RequestIDFrom(r.Context())
	var wg sync.WaitGroup
	for i, q := range batch.Queries {
		wg.Add(1)
		go func(i int, q QueryRequest) {
			defer wg.Done()
			// Each batch item gets its own correlation id, "<batch-id>#<i>",
			// threaded through the request context and a fresh per-item
			// logger: engine debug lines and slowlog exemplars then name the
			// item, not just the batch. The logger derives from the server's
			// base logger rather than the context's — obs.Logger.With
			// appends fields without dedup, so deriving from the in-context
			// logger would emit both the batch id and the item id under the
			// same key.
			ctx := r.Context()
			subID := parentID + "#" + strconv.Itoa(i)
			ctx = obs.WithRequestID(ctx, subID)
			if s.logger != nil {
				ctx = obs.WithLogger(ctx, s.logger.With(obs.F("request_id", subID)))
			}
			out.Responses[i] = s.execute(ctx, q)
		}(i, q)
	}
	wg.Wait()
	s.writeJSON(w, http.StatusOK, out)
	s.observeLatency(time.Since(start))
}

// observeLatency records one request's wall time in both the cumulative
// histogram and the rolling windowed series behind the server SLO.
func (s *Server) observeLatency(d time.Duration) {
	us := float64(d.Microseconds())
	s.latency.Observe(us)
	s.latencyWin.Observe(us)
}

// handleHealth is GET /healthz: 200 while serving, 503 once draining
// (load balancers watching it stop routing before the listener closes).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady is GET /readyz: the readiness probe load balancers gate
// traffic on. It flips 503 the instant Drain begins — same trigger as
// /healthz, kept as a separate endpoint so liveness and readiness can
// diverge (a future warming phase would hold /readyz at 503 while
// /healthz already reports the process alive).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// decodeBody strictly decodes a bounded JSON body into v, writing the
// 400 itself (and reporting false) on malformed input.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// writeResponse emits a mapped QueryResponse, attaching the retry hint
// load-shedding clients act on.
func (s *Server) writeResponse(w http.ResponseWriter, resp QueryResponse) {
	if resp.Status == http.StatusTooManyRequests || resp.Status == http.StatusServiceUnavailable {
		// Shed now, welcome shortly: the gate sheds on instantaneous
		// queue overflow, not sustained overload, so a short backoff is
		// the honest hint.
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, resp.Status, resp)
}

// writeError emits a bare error envelope for transport-level failures
// (bad body, wrong method) that never reached the engine.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	code := CodeInternal
	if status == http.StatusBadRequest {
		code = CodeBadQuery
	}
	s.writeJSON(w, status, QueryResponse{Status: status, Error: msg, Code: code})
}

// writeJSON renders v with the mapped status, counting the outcome class
// in the registry ("server.status.<code>").
func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	s.reg.Counter(fmt.Sprintf("server.status.%d", status)).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
