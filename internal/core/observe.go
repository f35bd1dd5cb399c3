package core

// This file is the observability surface of the engine: per-query Stats,
// the span-tree Trace, and the context-first Query entry point that
// instruments the whole pipeline (admit → clean → lookup →
// enumerate/expand → evaluate → rank) on top of the engine's metrics
// registry.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"kwsearch/internal/cn"
	"kwsearch/internal/exec"
	"kwsearch/internal/obs"
	"kwsearch/internal/resilience"
)

// Trace is the span tree a traced query produces (see Request.Trace). It
// aliases obs.Span so callers can walk, print or JSON-encode it without
// importing internal/obs.
type Trace = obs.Span

// Stats summarizes one Query call at the engine level.
type Stats struct {
	// Semantics that actually ran, after Auto resolution.
	Semantics Semantics `json:"semantics"`
	// Terms the search executed with, after cleaning and normalization.
	Terms []string `json:"terms"`
	// Results is the number of answers returned.
	Results int `json:"results"`
	// Partial reports that the deadline expired mid-evaluation and
	// Results counts a certified prefix (CN semantics) or best-effort
	// subset (graph semantics) of the full answer.
	Partial bool `json:"partial,omitempty"`
	// Elapsed is the wall time of the whole pipeline.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Exec holds the worker-pool execution stats of a CandidateNetworks
	// query (nil under every other semantics).
	Exec *exec.Stats `json:"exec,omitempty"`
	// PlanSignature is the plan-cache key the query compiled under
	// (schema fingerprint + keyword→relation membership signature +
	// size bounds); "" when the query never reached the
	// enumerate stage. Slow-query exemplars carry it so latency outliers
	// can be correlated with plan-cache churn.
	PlanSignature string `json:"plan_signature,omitempty"`
	// Merge is always zero: owner-hash slices feed the pool's one top-k,
	// so no merge step exists. The field stays because the repo benchmark
	// (bench/layers.go) reads it.
	Merge time.Duration `json:"merge_ns,omitempty"`
}

// Response bundles a query's results with its observability artifacts.
type Response struct {
	// Results are the ranked answers, as Search returns them.
	Results []Result
	// Partial reports that the query's deadline expired mid-evaluation
	// and Results holds the best answer certified by then — under CN
	// semantics a provable prefix of the full top-k, under the graph
	// semantics a best-effort subset. A partial response is a success:
	// the error alongside it is nil.
	Partial bool
	// Stats summarizes the execution.
	Stats Stats
	// Trace is the root span of the pipeline, nil unless Request.Trace.
	Trace *Trace
}

// Query runs one search request under ctx. Cancellation and deadlines
// propagate into every evaluation stage (CN enumeration, the exec worker
// pool, graph expansion, SLCA ranges):
//
//   - ctx cancelled → the error is returned (typically context.Canceled)
//     and any partial work is discarded;
//   - deadline expired mid-evaluation (ctx's or Request.Deadline, the
//     earlier wins) → the best answer certified so far is returned with
//     Response.Partial set and a nil error;
//   - admission control installed via Admit sheds with ErrOverloaded or
//     fails queued queries whose deadline lapses with
//     ErrDeadlineExceeded;
//   - malformed requests fail with errors matching ErrBadQuery.
//
// Engines are safe for concurrent Query calls.
func (e *Engine) Query(ctx context.Context, req Request) (*Response, error) {
	req = req.withDefaults(e.Tree != nil)
	if req.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Deadline)
		defer cancel()
	}
	start := time.Now()
	lg := obs.FromContext(ctx)

	// Tail sampling: with a slow-query log installed every query runs a
	// cheap always-on trace, so the span tree already exists if the query
	// turns out to be worth retaining. Response.Trace still honors
	// req.Trace alone — sampling never changes what the caller sees.
	sampled := e.slowlog != nil
	var root *obs.Span
	if req.Trace || sampled {
		root = obs.StartSpan("query")
		root.SetAttr("semantics", req.Semantics.String())
	}

	if err := resilience.Inject(ctx, resilience.StageAdmit); err != nil {
		terr := resilience.AsTyped(err)
		root.End()
		e.captureRejected(ctx, req, root, terr, time.Since(start), lg)
		return nil, terr
	}
	if e.gate != nil {
		// The admit stage is part of the trace so shed queries still
		// produce a well-formed tree (root → admit) for the slowlog.
		asp := root.Child("admit")
		release, err := e.gate.Acquire(ctx)
		asp.End()
		if err != nil {
			asp.SetAttr("rejected", true)
			if e.Metrics != nil {
				switch {
				case errors.Is(err, ErrOverloaded):
					e.Metrics.Counter("query.shed").Inc()
				case errors.Is(err, ErrDeadlineExceeded):
					e.Metrics.Counter("query.deadline").Inc()
				}
			}
			root.End()
			e.captureRejected(ctx, req, root, err, time.Since(start), lg)
			return nil, err
		}
		defer release()
	}

	csp := root.Child("clean")
	terms := e.Terms(req.Query, req.Clean)
	csp.SetAttr("terms", len(terms))
	csp.SetAttr("cleaned", req.Clean)
	csp.End()
	root.SetAttr("keywords", len(terms))
	if len(terms) == 0 {
		root.End()
		err := badQuery("core: empty query")
		e.capture(ctx, req, root, nil, obs.OutcomeError, err.Error(), time.Since(start), lg)
		return nil, err
	}

	// Candidate-network coverage is one mask bit per term; a term past
	// the mask's width would silently drop out of the AND.
	if (req.Semantics == CandidateNetworks || req.Semantics == SparkNetworks) && len(terms) > cn.MaxTerms {
		root.End()
		err := badQuery(fmt.Sprintf("core: %d keywords, candidate networks take at most %d", len(terms), cn.MaxTerms))
		e.capture(ctx, req, root, nil, obs.OutcomeError, err.Error(), time.Since(start), lg)
		return nil, err
	}

	st := Stats{Semantics: req.Semantics, Terms: terms}
	var results []Result
	var err error
	switch req.Semantics {
	case CandidateNetworks:
		results, err = e.searchCN(ctx, terms, req, root, &st)
	case SparkNetworks:
		results, err = e.searchSpark(ctx, terms, req, root, &st)
	case DistinctRoot:
		results, err = e.searchBanks(ctx, terms, req, root)
	case SteinerTree:
		results, err = e.searchSteiner(ctx, terms, root)
	case SLCA, ELCA:
		results, err = e.searchXML(ctx, terms, req, root)
	default:
		err = badQuery("core: unknown semantics " + req.Semantics.String())
	}
	partial := false
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// The deadline ran out mid-evaluation: the stages handed back
			// their certified/best-effort partials in results. Serve them.
			partial = true
			err = nil
		} else {
			root.SetAttr("ctx_done", true)
			root.End()
			st.Elapsed = time.Since(start)
			e.capture(ctx, req, root, &st, obs.OutcomeError, err.Error(), st.Elapsed, lg)
			return nil, err
		}
	}

	st.Results = len(results)
	st.Partial = partial
	st.Elapsed = time.Since(start)
	root.SetAttr("results", len(results))
	if partial {
		root.SetAttr("ctx_done", true)
		root.SetAttr("partial", true)
	}
	root.End()
	if e.Metrics != nil {
		us := float64(st.Elapsed.Microseconds())
		e.Metrics.Histogram("query.elapsed_us").Observe(us)
		e.Metrics.Windowed("query.latency_us").Observe(us)
		if partial {
			e.Metrics.Counter("query.deadline").Inc()
			e.Metrics.Counter("query.partial").Inc()
		}
	}
	if outcome, ok := e.slowlog.Classify(st.Elapsed, false, partial); ok {
		e.capture(ctx, req, root, &st, outcome, "", st.Elapsed, lg)
	}
	if lg.Enabled(obs.LevelDebug) {
		lg.Debug("query executed",
			obs.F("keywords_hash", obs.KeywordsHash(req.Query)),
			obs.F("semantics", st.Semantics.String()),
			obs.F("results", st.Results),
			obs.F("partial", partial),
			obs.F("plan_signature", st.PlanSignature),
			obs.F("elapsed", st.Elapsed))
	}
	var trace *Trace
	if req.Trace {
		trace = root
	}
	return &Response{Results: results, Partial: partial, Stats: st, Trace: trace}, nil
}

// SetSlowLog installs (or, with nil, removes) the tail-sampling
// slow-query log: every query runs a cheap trace, and slow, errored,
// shed, partial or deadline-expired queries are retained as exemplars
// (span tree + Stats + plan signature). The log's capture counters land
// in Engine.Metrics. Call during setup, before concurrent queries; the
// swap is not synchronized.
func (e *Engine) SetSlowLog(l *obs.SlowLog) {
	e.slowlog = l
	if l != nil && e.Metrics != nil {
		l.Instrument(e.Metrics)
	}
}

// SlowLog returns the engine's slow-query log, nil unless SetSlowLog
// installed one.
func (e *Engine) SlowLog() *obs.SlowLog { return e.slowlog }

// rejectOutcome classifies an admission failure for the slowlog.
func rejectOutcome(err error) obs.Outcome {
	switch {
	case errors.Is(err, ErrOverloaded):
		return obs.OutcomeShed
	case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return obs.OutcomeDeadline
	}
	return obs.OutcomeError
}

// captureRejected retains an exemplar for a query rejected before
// evaluation (shed by the gate, or its deadline lapsed while queued).
func (e *Engine) captureRejected(ctx context.Context, req Request, root *obs.Span, err error, elapsed time.Duration, lg *obs.Logger) {
	e.capture(ctx, req, root, nil, rejectOutcome(err), err.Error(), elapsed, lg)
}

// capture retains one query exemplar in the slow-query log and emits
// the corresponding structured warn line. No-op without a slowlog.
func (e *Engine) capture(ctx context.Context, req Request, root *obs.Span, st *Stats, outcome obs.Outcome, errText string, elapsed time.Duration, lg *obs.Logger) {
	if e.slowlog == nil {
		return
	}
	entry := obs.Entry{
		RequestID:    obs.RequestIDFrom(ctx),
		KeywordsHash: obs.KeywordsHash(req.Query),
		Outcome:      outcome,
		Duration:     elapsed,
		Err:          errText,
		Trace:        root,
	}
	if st != nil {
		entry.Keywords = st.Terms
		entry.PlanSignature = st.PlanSignature
		entry.Stats = *st
	}
	seq := e.slowlog.Record(entry)
	if lg.Enabled(obs.LevelWarn) {
		fields := []obs.Field{
			obs.F("slowlog_seq", seq),
			obs.F("outcome", string(outcome)),
			obs.F("keywords_hash", entry.KeywordsHash),
			obs.F("elapsed", elapsed),
		}
		if entry.RequestID != "" {
			fields = append(fields, obs.F("request_id", entry.RequestID))
		}
		if entry.PlanSignature != "" {
			fields = append(fields, obs.F("plan_signature", entry.PlanSignature))
		}
		if errText != "" {
			fields = append(fields, obs.F("error", errText))
		}
		lg.Warn("query captured in slowlog", fields...)
	}
}
