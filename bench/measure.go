package main

// This file sets a workload up (data, engine, server, warm-up), runs its
// timed phase and produces the end-to-end metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/obs"
	"kwsearch/internal/server"
	"kwsearch/internal/shard"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports; its JSON form is the
// last line of the run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the settings one run shares across its phases.
type options struct {
	seed int64
	// seconds bounds the timed phase; 0 runs the workload's whole list.
	seconds time.Duration
	outDir  string
}

// progress is what the watchdog reads when it aborts a run: how many
// operations the run meant to make, how many it finished and how many
// of those failed.
type progress struct {
	limit, done, failed atomic.Int64
}

const (
	// A run sets the workload up at least minSetupReps times, and again
	// while the set-ups so far took less than setupBudget; setup_s is the
	// median, so one slow set-up does not move it.
	minSetupReps = 3
	maxSetupReps = 9
	setupBudget  = 2 * time.Second
	// retainOps is how many leading operations keep their results for
	// the checks after the timed phase. Keeping all of them would add
	// up to 16 MB to the heap the run is measuring.
	retainOps = 400
	// oracleChecks and crossChecks size the two checks after timing.
	oracleChecks = 40
	crossChecks  = 100
)

// env is one set-up workload, ready to run operations.
type env struct {
	sp  spec
	eng *core.Engine
	// searcher is what an operation queries: the engine, or what the
	// variant put in front of it.
	searcher core.Searcher
	w        workloadOps
	http     *httpEnd // nil unless sp.http
}

// variant changes how setUp wires the engine for one pass of the traced
// run; the zero value is the plain wiring the end-to-end run measures.
type variant struct {
	// tr records spans around the searcher and the HTTP handler.
	tr *passTrace
	// shards > 1 queries through a shard coordinator over the engine.
	shards int
}

// httpEnd is the serving side and the one client connection of an HTTP
// workload.
type httpEnd struct {
	stop   func() error
	client *http.Client
	url    string
	bodies [][]byte // request body per distinct query
	buf    bytes.Buffer
}

// setupTimes are the parts of one set-up.
type setupTimes struct {
	gen, engine, serve, warm time.Duration
}

func (t setupTimes) total() time.Duration { return t.gen + t.engine + t.serve + t.warm }

// newServer wires the server exactly as cmd/kwsd's defaults do.
func newServer(s core.Searcher) *server.Server {
	s.Admit(8, 16)
	return server.New(s, server.Options{
		DefaultWorkers: 1,
		MaxDeadline:    time.Minute,
		Logger:         obs.NewLogger(io.Discard, obs.LevelInfo),
		SlowLog:        obs.NewSlowLog(64, 100*time.Millisecond),
	})
}

// stopWithin turns a graceful stop into one bounded at ten seconds.
func stopWithin(stop func(context.Context) error) func() error {
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return stop(ctx)
	}
}

// serveTraced serves h from the benchmark's own http.Server.
func serveTraced(h http.Handler) (addr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return ln.Addr().String(), stopWithin(func(ctx context.Context) error {
		err := hs.Shutdown(ctx)
		<-done
		return err
	}), nil
}

// setUp builds the workload's data, engine and (for HTTP) server, then
// warms it up.
func setUp(ctx context.Context, sp spec, seed int64, v variant) (*env, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	db := sp.generate(seed)
	st.gen = time.Since(t0)

	t0 = time.Now()
	eng := core.NewRelational(db)
	st.engine = time.Since(t0)

	e := &env{sp: sp, eng: eng, searcher: eng}
	if v.shards > 1 {
		coord, err := shard.New(eng, shard.Options{Shards: v.shards})
		if err != nil {
			return nil, st, err
		}
		e.searcher = coord
	}
	if v.tr != nil {
		name := "core.query"
		if v.shards > 1 {
			name = "shard.query"
		}
		e.searcher = tracedSearcher{Searcher: e.searcher, tr: v.tr, name: name}
	}
	if sp.http {
		t0 = time.Now()
		h := &httpEnd{client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}}}
		var addr string
		srv := newServer(e.searcher)
		if v.tr == nil {
			if err := srv.Start("127.0.0.1:0"); err != nil {
				return nil, st, err
			}
			addr = srv.Addr()
			h.stop = stopWithin(srv.Drain)
		} else {
			// The traced run serves the same handler from its own
			// http.Server so that it can time the handler.
			var err error
			if addr, h.stop, err = serveTraced(tracedHandler(srv.Handler(), v.tr)); err != nil {
				return nil, st, err
			}
		}
		h.url = "http://" + addr + "/query"
		e.http = h
		st.serve = time.Since(t0)
	}

	var err error
	if e.w, err = sp.operations(eng); err != nil {
		e.close()
		return nil, st, err
	}
	if e.http != nil {
		for _, q := range e.w.queries {
			body, err := json.Marshal(server.QueryRequest{Query: q, Workers: sp.workers})
			if err != nil {
				e.close()
				return nil, st, err
			}
			e.http.bodies = append(e.http.bodies, body)
		}
	}

	t0 = time.Now()
	for _, q := range e.w.warmup {
		if _, ok := e.do(ctx, q, -1); !ok {
			e.close()
			return nil, st, fmt.Errorf("%s: warm-up query %q failed", sp.name, e.w.queries[q])
		}
	}
	st.warm = time.Since(t0)
	return e, st, nil
}

// close stops the workload's server and drops its idle connection.
func (e *env) close() {
	if e.http != nil {
		e.http.client.CloseIdleConnections()
		_ = e.http.stop() // a drain that timed out has hard-closed the server already
	}
}

// request is the engine request of distinct query q.
func (e *env) request(q int) core.Request {
	return core.Request{Query: e.w.queries[q], Workers: e.sp.workers}
}

// do runs distinct query q as the workload does: one POST on the kept
// connection, or one Query call. req >= 0 travels as the request id
// (X-Request-Id over HTTP) so the tracing wrappers can tell which
// operation they see. The results are nil for an HTTP workload; ok
// reports that the operation succeeded and its answer is well formed.
func (e *env) do(ctx context.Context, q, req int) (rs []core.Result, ok bool) {
	if e.http != nil {
		status, _, err := e.http.post(q, req)
		return nil, err == nil && status == http.StatusOK
	}
	if req >= 0 {
		ctx = obs.WithRequestID(ctx, strconv.Itoa(req))
	}
	resp, err := e.searcher.Query(ctx, e.request(q))
	if err != nil || resp.Partial || !ordered(resp.Results) {
		return nil, false
	}
	return resp.Results, true
}

// post sends distinct query q and returns the status and the body; the
// body is valid until the next call.
func (h *httpEnd) post(q, req int) (int, []byte, error) {
	hr, err := http.NewRequest(http.MethodPost, h.url, bytes.NewReader(h.bodies[q]))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if req >= 0 {
		hr.Header.Set("X-Request-Id", strconv.Itoa(req))
	}
	resp, err := h.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	h.buf.Reset()
	if _, err := h.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, h.buf.Bytes(), nil
}

// ordered reports that rs holds at most k results in non-increasing
// score order.
func ordered(rs []core.Result) bool {
	if len(rs) > topK {
		return false
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Score > rs[i-1].Score {
			return false
		}
	}
	return true
}

// midpoint is work timedLoop does once, after operation `after`, with
// its duration left out of the wall time and the time budget.
type midpoint struct {
	after int
	do    func()
}

// timedLoop runs do on operations 0..n-1 until the list or the time
// budget ends, and returns each operation's latency.
func timedLoop(n int, budget time.Duration, prog *progress, mid *midpoint, do func(i int) bool) (lat []time.Duration, wall time.Duration) {
	prog.limit.Store(int64(n))
	lat = make([]time.Duration, 0, n)
	var paused time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if budget > 0 && t0.Sub(start)-paused >= budget {
			break
		}
		ok := do(i)
		lat = append(lat, time.Since(t0))
		if !ok {
			prog.failed.Add(1)
		}
		prog.done.Add(1)
		if mid != nil && i == mid.after {
			p0 := time.Now()
			mid.do()
			paused += time.Since(p0)
		}
	}
	return lat, time.Since(start) - paused
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(ctx context.Context, sp spec, o options, prog *progress) (result, error) {
	heapAfter := sp.ops/2 - 1
	if o.seconds > 0 {
		// A time budget needs a list it cannot run out of; the longer
		// list starts with the same operations.
		sp.ops *= 2
	}
	var e *env
	var totals []float64
	var spent time.Duration
	for rep := 0; rep < minSetupReps || (rep < maxSetupReps && spent < setupBudget); rep++ {
		if e != nil {
			e.close()
		}
		var st setupTimes
		var err error
		if e, st, err = setUp(ctx, sp, o.seed, variant{}); err != nil {
			return result{}, err
		}
		totals = append(totals, st.total().Seconds())
		spent += st.total()
	}
	defer e.close()

	// The answers the timed phase is checked against, fixed before it.
	var recorded [][]byte
	if e.http != nil {
		var err error
		if recorded, err = e.recordBodies(ctx); err != nil {
			return result{}, err
		}
	}
	kept := make([]keptOp, min(retainOps, len(e.w.ops)))

	// The live heap is read halfway down the workload's list, so that runs of
	// different speed read it after the same operations: what the caches
	// retain grows with the queries seen, and a time budget alone would
	// charge a faster engine for the extra queries it answered.
	heap := 0.0
	mid := &midpoint{after: heapAfter, do: func() { heap = heapLiveMB() }}
	runtime.GC()
	lat, wall := timedLoop(len(e.w.ops), o.seconds, prog, mid, func(i int) bool {
		q := e.w.ops[i]
		if e.http != nil {
			status, body, err := e.http.post(q, -1)
			return err == nil && status == http.StatusOK && bytes.Equal(body, recorded[q])
		}
		rs, ok := e.do(ctx, q, -1)
		if i < len(kept) {
			kept[i] = keptOp{rs, ok}
		}
		return ok
	})
	if heap == 0 {
		heap = heapLiveMB() // the time budget ended before the midpoint
	}

	failed := int(prog.failed.Load())
	if e.http == nil {
		failed += e.checkAfter(ctx, kept, lat)
	}
	ms := millis(lat)
	res := result{
		Correct:   failed == 0,
		Attempted: len(lat),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {quantile(totals, 0.5), "s"},
			"throughput_qps": {float64(len(lat)) / wall.Seconds(), "1/s"},
			"query_p50_ms":   {quantile(ms, 0.5), "ms"},
			"query_p99_ms":   {quantile(ms, 0.99), "ms"},
			"heap_live_mb":   {heap, "MB"},
		},
	}
	runtime.KeepAlive(e)
	return res, nil
}
