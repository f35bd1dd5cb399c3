package server

// This file is the serving layer's load generator and self-check: N
// concurrent HTTP clients drive a running server and every served
// answer is compared byte-for-byte against an in-process Engine.Query
// on the same warm engine. It doubles as the measurement harness behind
// benchrunner's E36 serving block (throughput, tail latency, shed rate).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/obs"
)

// DBLPWorkload is the default self-check workload over the synthetic
// DBLP dataset: repeated and distinct queries, so the executor's result
// cache sees hits and distinct terms exercise the binder's term cache — the
// same mix the executor benchmarks use.
func DBLPWorkload() []QueryRequest {
	return []QueryRequest{
		{Query: "keyword search", Workers: 2},
		{Query: "wang search", Workers: 2},
		{Query: "keyword search", Workers: 2}, // repeat: result-cache hit
		{Query: "keyword database"},
		{Query: "search database", TopK: 5},
	}
}

// SelfCheckConfig sizes a self-check run. Zero values take defaults.
type SelfCheckConfig struct {
	// Clients is the number of concurrent clients (default 8).
	Clients int
	// PerClient is the number of queries each client issues (default 10).
	PerClient int
	// Workload is the query mix, issued round-robin (default
	// DBLPWorkload, which assumes the synthetic DBLP dataset).
	Workload []QueryRequest
	// HeavyQuery is the deadline-partial probe: a query whose
	// evaluation takes far longer than its deadline, so the server must
	// answer 200 with "partial": true and a certified prefix. The
	// default assumes the synthetic DBLP dataset.
	HeavyQuery QueryRequest
	// Timeout bounds each HTTP request; a served query may shed or go
	// partial but must never hang (default 30s).
	Timeout time.Duration
	// SkipOverloadProbe leaves out the deliberate overload burst (used
	// when the engine has no admission gate installed).
	SkipOverloadProbe bool
}

func (c SelfCheckConfig) withDefaults() SelfCheckConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.PerClient <= 0 {
		c.PerClient = 10
	}
	if len(c.Workload) == 0 {
		c.Workload = DBLPWorkload()
	}
	if c.HeavyQuery.Query == "" {
		c.HeavyQuery = QueryRequest{Query: "keyword search", TopK: 10000, MaxCNSize: 6, DeadlineMS: 1}
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// SelfCheckReport summarizes a self-check run.
type SelfCheckReport struct {
	// Queries is the total number of HTTP queries issued.
	Queries int
	// OK counts complete 200 answers, Partial the 200 answers with
	// "partial": true, Shed the 429s, DeadlineQueued the 503s.
	OK, Partial, Shed, DeadlineQueued int
	// Mismatches counts served answers that were not byte-identical to
	// the in-process reference (always 0 on a passing run).
	Mismatches int
	// Other counts transport errors and unexpected statuses.
	Other int
	// Elapsed is the wall time of the concurrent phase; ThroughputQPS
	// and P99 summarize it.
	Elapsed       time.Duration
	ThroughputQPS float64
	P99           time.Duration
}

// String renders the report as the one-line summary CLIs print.
func (r SelfCheckReport) String() string {
	return fmt.Sprintf("queries=%d ok=%d partial=%d shed=%d deadline=%d mismatches=%d other=%d %.0f qps p99=%v",
		r.Queries, r.OK, r.Partial, r.Shed, r.DeadlineQueued, r.Mismatches, r.Other, r.ThroughputQPS, r.P99)
}

// postQuery issues one POST /query and decodes the envelope, returning
// the HTTP status (which the envelope mirrors) and the Retry-After
// header value for shed responses.
func postQuery(ctx context.Context, client *http.Client, baseURL string, q QueryRequest) (QueryResponse, string, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return QueryResponse{}, "", err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/query", bytes.NewReader(body))
	if err != nil {
		return QueryResponse{}, "", err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := client.Do(httpReq)
	if err != nil {
		return QueryResponse{}, "", err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return QueryResponse{}, "", err
	}
	var resp QueryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return QueryResponse{}, "", fmt.Errorf("status %d: undecodable body %q: %w", httpResp.StatusCode, data, err)
	}
	if resp.Status != httpResp.StatusCode {
		return resp, "", fmt.Errorf("envelope status %d != HTTP status %d", resp.Status, httpResp.StatusCode)
	}
	return resp, httpResp.Header.Get("Retry-After"), nil
}

// reference runs q in-process (no deadline, context.Background) and
// renders the canonical answer the served responses must reproduce.
func reference(e core.Searcher, q QueryRequest) (string, error) {
	req := QueryRequest{
		Query: q.Query, Semantics: q.Semantics, TopK: q.TopK,
		MaxCNSize: q.MaxCNSize, Clean: q.Clean, Workers: q.Workers,
	}
	sem, err := core.ParseSemantics(req.Semantics)
	if err != nil {
		return "", err
	}
	resp, err := e.Query(context.Background(), core.Request{
		Query: req.Query, Semantics: sem, TopK: req.TopK,
		MaxCNSize: req.MaxCNSize, Clean: req.Clean, Workers: req.Workers,
	})
	if err != nil {
		return "", fmt.Errorf("in-process reference for %q: %w", q.Query, err)
	}
	if resp.Partial {
		return "", fmt.Errorf("in-process reference for %q unexpectedly partial", q.Query)
	}
	return RenderResults(toWireResults(resp.Results)), nil
}

// SelfCheck drives cfg.Clients concurrent clients against the server at
// baseURL — which must serve the same warm engine e — and verifies the
// serving layer end to end. Cancelling ctx aborts the run (in-flight
// requests included) with ctx's error. The checks:
//
//   - every complete 200 answer is byte-identical to an in-process
//     Engine.Query for the same request;
//   - overload (when a gate is installed) sheds with 429 + Retry-After,
//     never a hung connection;
//   - an expiring per-request deadline yields 200 with "partial": true
//     and a certified byte-exact prefix of the full answer.
//
// The returned report summarizes outcomes; the error is non-nil when any
// invariant above was violated.
func SelfCheck(ctx context.Context, baseURL string, e core.Searcher, cfg SelfCheckConfig) (SelfCheckReport, error) {
	cfg = cfg.withDefaults()
	client := &http.Client{Timeout: cfg.Timeout}
	var report SelfCheckReport

	// Phase 0: in-process references, computed before any load so the
	// comparison target is fixed (and the engine caches are warm, the
	// same state every served query sees).
	refs := make(map[string]string, len(cfg.Workload))
	var checkErrs []string
	for _, q := range cfg.Workload {
		key := workloadKey(q)
		if _, ok := refs[key]; ok {
			continue
		}
		r, err := reference(e, q)
		if err != nil {
			return report, err
		}
		refs[key] = r
	}

	// Phase 1: concurrent clients replay the workload round-robin.
	var mu sync.Mutex
	latencies := make([]time.Duration, 0, cfg.Clients*cfg.PerClient)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < cfg.PerClient; i++ {
				if ctx.Err() != nil {
					return
				}
				q := cfg.Workload[(c+i)%len(cfg.Workload)]
				qStart := time.Now()
				resp, retryAfter, err := postQuery(ctx, client, baseURL, q)
				took := time.Since(qStart)
				mu.Lock()
				report.Queries++
				latencies = append(latencies, took)
				switch {
				case err != nil:
					report.Other++
					checkErrs = append(checkErrs, fmt.Sprintf("client %d: %v", c, err))
				case resp.Status == http.StatusOK && !resp.Partial:
					report.OK++
					if got := RenderResults(resp.Results); got != refs[workloadKey(q)] {
						report.Mismatches++
						checkErrs = append(checkErrs, fmt.Sprintf(
							"client %d query %q: served answer differs from in-process reference\nserved:\n%s\nwant:\n%s",
							c, q.Query, got, refs[workloadKey(q)]))
					}
				case resp.Status == http.StatusOK:
					// No deadline was requested, so a partial here means
					// the server invented one.
					report.Other++
					checkErrs = append(checkErrs, fmt.Sprintf("client %d query %q: unexpected partial", c, q.Query))
				case resp.Status == http.StatusTooManyRequests:
					report.Shed++
					if retryAfter == "" {
						report.Other++
						checkErrs = append(checkErrs, fmt.Sprintf("client %d: 429 without Retry-After", c))
					}
				case resp.Status == http.StatusServiceUnavailable:
					report.DeadlineQueued++
				default:
					report.Other++
					checkErrs = append(checkErrs, fmt.Sprintf("client %d query %q: unexpected status %d (%s)", c, q.Query, resp.Status, resp.Error))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return report, err
	}
	report.Elapsed = time.Since(start)
	if report.Elapsed > 0 {
		report.ThroughputQPS = float64(report.Queries) / report.Elapsed.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 {
		report.P99 = latencies[len(latencies)*99/100]
	}

	// Phase 2: deadline-partial probe. The heavy query's 1ms budget is
	// meant to expire mid-evaluation, so the answer must come back 200
	// with "partial": true and be a byte-exact prefix of the full
	// answer. Two subtleties keep the probe about deadline semantics
	// rather than cache luck:
	//
	//   - The probe runs BEFORE its full-answer reference. The reference
	//     populates the executor's result cache, and a cache-warm probe
	//     completes inside any deadline — a legitimate complete answer
	//     that would fail the check for the wrong reason.
	//   - A complete answer inside the budget is inconclusive, not a
	//     violation: a fast engine may simply beat the clock. The probe
	//     escalates — a distinct K per attempt dodges the result cache,
	//     a larger CN budget multiplies the evaluation (and cold
	//     plan-compile) work — and only fails if no attempt gets the
	//     deadline to expire. Wrong statuses and non-prefix partials
	//     remain immediate violations.
	probeDone := false
	for attempt := 0; attempt < 3 && !probeDone; attempt++ {
		probeQ := cfg.HeavyQuery
		probeQ.TopK -= attempt
		probeQ.MaxCNSize += attempt
		resp, _, err := postQuery(ctx, client, baseURL, probeQ)
		if err != nil {
			return report, fmt.Errorf("deadline probe: %w", err)
		}
		report.Queries++
		if resp.Status != http.StatusOK {
			checkErrs = append(checkErrs, fmt.Sprintf("deadline probe: status %d (%s), want 200 partial", resp.Status, resp.Error))
			probeDone = true
			break
		}
		if !resp.Partial {
			continue // beat the clock: escalate
		}
		probeDone = true
		fullQ := probeQ
		fullQ.DeadlineMS = 0
		full, err := reference(e, fullQ)
		if err != nil {
			return report, err
		}
		if !strings.HasPrefix(full, RenderResults(resp.Results)) {
			report.Mismatches++
			checkErrs = append(checkErrs, "deadline probe: partial answer is not a byte-exact prefix of the full answer")
		} else {
			report.Partial++
		}
	}
	if !probeDone {
		checkErrs = append(checkErrs, "deadline probe: no attempt produced a partial answer")
	}

	// Phase 3: overload probe. A simultaneous burst beyond the gate's
	// capacity must shed with 429 — and every query must come back.
	if !cfg.SkipOverloadProbe {
		shed, err := overloadBurst(ctx, client, baseURL, e)
		report.Queries += shed.queries
		report.OK += shed.oks
		report.Shed += shed.sheds
		if err != nil {
			checkErrs = append(checkErrs, err.Error())
		}
	}

	// Phase 4: slowlog coverage. With a tail-sampling slow-query log
	// installed on the engine, every shed, partial, and deadline-queued
	// query the run produced must have left an exemplar, and every
	// retained exemplar must carry a well-formed span tree plus the
	// keywords-hash join key.
	if sl := e.SlowLog(); sl != nil {
		byOutcome := map[obs.Outcome]int{}
		for _, en := range sl.Entries() {
			byOutcome[en.Outcome]++
			switch {
			case en.Trace == nil:
				checkErrs = append(checkErrs, fmt.Sprintf("slowlog: entry %d (%s) has no trace", en.Seq, en.Outcome))
			case en.Trace.WellFormed(cfg.Timeout) != nil:
				checkErrs = append(checkErrs, fmt.Sprintf("slowlog: entry %d (%s) trace malformed: %v",
					en.Seq, en.Outcome, en.Trace.WellFormed(cfg.Timeout)))
			}
			if en.KeywordsHash == "" {
				checkErrs = append(checkErrs, fmt.Sprintf("slowlog: entry %d (%s) missing keywords hash", en.Seq, en.Outcome))
			}
		}
		// Per-outcome coverage is only checkable while the ring has never
		// evicted; past that point older exemplars are legitimately gone.
		if sl.Captured() <= uint64(sl.Cap()) {
			for _, c := range []struct {
				outcome obs.Outcome
				want    int
			}{
				{obs.OutcomeShed, report.Shed},
				{obs.OutcomePartial, report.Partial},
				{obs.OutcomeDeadline, report.DeadlineQueued},
			} {
				if byOutcome[c.outcome] < c.want {
					checkErrs = append(checkErrs, fmt.Sprintf(
						"slowlog: %d %s exemplars for %d %s responses", byOutcome[c.outcome], c.outcome, c.want, c.outcome))
				}
			}
		}
	}

	if len(checkErrs) > 0 {
		n := len(checkErrs)
		if n > 5 {
			checkErrs = checkErrs[:5]
		}
		return report, fmt.Errorf("selfcheck: %d violation(s):\n%s", n, strings.Join(checkErrs, "\n"))
	}
	return report, nil
}

// burstResult is the outcome of one overload burst.
type burstResult struct{ queries, oks, sheds int }

// overloadBurst fires a simultaneous burst of heavy queries at ≥2× the
// gate's capacity and requires at least one 429 (every response still
// arriving — no hung connections). Scheduling can in principle serialize
// a burst, so it retries a few times before calling the absence of
// sheds a failure.
func overloadBurst(ctx context.Context, client *http.Client, baseURL string, e core.Searcher) (burstResult, error) {
	gate := e.Gate()
	if gate == nil {
		return burstResult{}, fmt.Errorf("overload probe: engine has no admission gate; install one with Admit or set SkipOverloadProbe")
	}
	var out burstResult
	for attempt := 0; attempt < 3; attempt++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		n := 2*(gate.Limit()+gate.MaxQueue()) + 8 // ≥2× capacity
		statuses := make([]int, n)
		errs := make([]error, n)
		startGun := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				//lint:ignore ctxdrop start-gun barrier: closed unconditionally right after the spawn loop, never blocks past it
				<-startGun
				// A K of its own keeps every query of every burst out of
				// the result cache: each pays full evaluation, so the
				// burst overlaps for real however fast one evaluation
				// is (a shared K let the first finisher's cached answer
				// serve the rest before the gate ever filled).
				heavy := QueryRequest{Query: "keyword search", TopK: 10000 - attempt*n - i, Workers: 2}
				resp, _, err := postQuery(ctx, client, baseURL, heavy)
				statuses[i], errs[i] = resp.Status, err
			}(i)
		}
		close(startGun)
		wg.Wait()
		for i := 0; i < n; i++ {
			out.queries++
			if errs[i] != nil {
				return out, fmt.Errorf("overload probe: query %d: %w", i, errs[i])
			}
			switch statuses[i] {
			case http.StatusOK:
				out.oks++
			case http.StatusTooManyRequests:
				out.sheds++
			default:
				return out, fmt.Errorf("overload probe: query %d: status %d", i, statuses[i])
			}
		}
		if out.sheds > 0 {
			return out, nil
		}
	}
	return out, fmt.Errorf("overload probe: no 429 across %d queries at ≥2x gate capacity", out.queries)
}

// workloadKey identifies a workload query for the reference map.
func workloadKey(q QueryRequest) string {
	return fmt.Sprintf("%s|%s|%d|%d|%v|%d", q.Query, q.Semantics, q.TopK, q.MaxCNSize, q.Clean, q.Workers)
}
