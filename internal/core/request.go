package core

// This file is the context-first request surface of the engine: the
// Request type holding every per-query knob, the typed sentinel errors
// callers branch on with errors.Is, and per-engine admission control
// (Admit) backed by internal/resilience.

import (
	"errors"
	"fmt"
	"time"

	"kwsearch/internal/resilience"
)

// Typed sentinel errors. All satisfy errors.Is against themselves;
// ErrDeadlineExceeded additionally matches context.DeadlineExceeded, so
// both the engine's own deadline handling and callers holding a raw
// context error agree on what happened.
var (
	// ErrBadQuery marks queries the engine cannot execute: empty after
	// normalization, or a semantics the engine's data model lacks.
	ErrBadQuery = errors.New("core: bad query")
	// ErrOverloaded is returned when admission control sheds the query
	// (the gate is full and the bounded queue has no room).
	ErrOverloaded = resilience.ErrOverloaded
	// ErrDeadlineExceeded is returned when the query's deadline expired
	// while it was still queued for admission. A deadline that expires
	// mid-evaluation instead yields a partial Response (see
	// Response.Partial) with a nil error.
	ErrDeadlineExceeded = resilience.ErrDeadlineExceeded
)

// MaxCNSizeLimit is the largest Request.MaxCNSize a candidate-network
// query may ask for. Enumeration grows ≈4.5× per unit of size: on the
// DBLP schema size 8 enumerates 215 networks in ≈0.16 s, size 10 1 317
// in ≈2.8 s and 1.6 GB.
const MaxCNSizeLimit = 8

// Request is one search request: the query text plus every per-query
// knob. The zero value of every field is a sensible default, so
// Request{Query: "foo bar"} is a complete request.
type Request struct {
	// Query is the raw keyword query.
	Query string
	// Semantics selects the result definition (default CandidateNetworks
	// for relational engines, SLCA for XML engines).
	Semantics Semantics
	// TopK bounds the result count (default 10).
	TopK int
	// MaxCNSize bounds candidate-network size (default 5). Candidate-
	// network queries above MaxCNSizeLimit fail with ErrBadQuery.
	MaxCNSize int
	// Clean runs noisy-channel query cleaning before searching.
	Clean bool
	// Deadline is the per-query time budget (0 = none). It composes with
	// whatever deadline the caller's context already carries — the
	// earlier one wins. When it expires mid-evaluation the engine
	// returns the best answer certified so far with Response.Partial
	// set, rather than an error. SPARK, SLCA and Steiner answers are
	// all-or-nothing: an interrupted query of those semantics is an
	// empty partial answer.
	Deadline time.Duration
	// Workers sets the worker-pool size for candidate-network and SLCA
	// evaluation (0 means 1). CN searches always run on the
	// internal/exec cached executor with that many workers; SLCA uses
	// the range-split algorithm above 1, with at most GOMAXPROCS
	// ranges, and indexed-lookup-eager otherwise. Answers are
	// byte-identical at every value.
	Workers int
	// Trace enables per-query span collection: Query returns the span
	// tree in Response.Trace (kwsearch -trace prints it).
	Trace bool
}

// withDefaults fills the defaulted fields in: TopK 10, MaxCNSize 5, and
// Auto resolved to SLCA on an XML engine and CandidateNetworks on a
// relational one.
func (r Request) withDefaults(xml bool) Request {
	if r.TopK <= 0 {
		r.TopK = 10
	}
	if r.MaxCNSize <= 0 {
		r.MaxCNSize = 5
	}
	if r.Semantics == Auto {
		if xml {
			r.Semantics = SLCA
		} else {
			r.Semantics = CandidateNetworks
		}
	}
	return r
}

// Admit installs admission control on the engine: at most limit queries
// run concurrently, at most maxQueue more wait for a slot (shedding with
// ErrOverloaded beyond that), and a queued query that outlives its
// deadline fails with ErrDeadlineExceeded. The gate's queue-depth gauge,
// wait histogram and outcome counters land in Engine.Metrics under
// "admission.*". A non-positive limit removes the gate.
func (e *Engine) Admit(limit, maxQueue int) {
	if limit <= 0 {
		e.gate = nil
		return
	}
	g := resilience.NewGate(limit, maxQueue)
	if e.Metrics != nil {
		g.Instrument(e.Metrics)
	}
	e.gate = g
}

// Gate returns the engine's admission gate, nil unless Admit installed
// one.
func (e *Engine) Gate() *resilience.Gate { return e.gate }

// badQuery wraps ErrBadQuery behind its one prefix: "core: bad query: msg".
func badQuery(msg string) error {
	return fmt.Errorf("%w: %s", ErrBadQuery, msg)
}
