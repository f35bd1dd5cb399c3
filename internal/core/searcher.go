package core

import (
	"context"

	"kwsearch/internal/obs"
)

// Searcher is the serving-layer seam over one logical engine: the
// context-first query contract plus the operational knobs the HTTP
// server and the CLIs wire up. *Engine implements it directly;
// *shard.Coordinator embeds an engine and only multiplies each
// request's pool size, so every transport runs unchanged against
// either.
type Searcher interface {
	// Query runs one search request under ctx; see Engine.Query for the
	// cancellation, deadline-partial and typed-error contract every
	// implementation must honor.
	Query(ctx context.Context, req Request) (*Response, error)
	// Registry returns the searcher's metrics registry (never nil for
	// constructor-built searchers).
	Registry() *obs.Registry
	// Admit installs admission control (non-positive limit removes it).
	Admit(limit, maxQueue int)
	// SetSlowLog installs (or with nil removes) the tail-sampling
	// slow-query log.
	SetSlowLog(l *obs.SlowLog)
}

var _ Searcher = (*Engine)(nil)
