// Package shard is what is left of the sharding layer: a Coordinator is
// the engine it wraps — same admission gate, registry, slow-query log
// and caches — and only multiplies each request's pool
// size by its shard count, the goroutine count Workers × Shards used to
// give, over the exec pool's one job queue. It survives because the
// frozen benchmark (bench/) builds against New and Options.Shards; no
// CLI reaches it. The answer does not depend on the pool size, so it is
// byte-identical to the bare engine's at every count.
package shard

import (
	"context"
	"fmt"

	"kwsearch/internal/core"
)

// Options configures a Coordinator.
type Options struct {
	// Shards is the pool-size multiplier (<=0 means 1).
	Shards int
}

// Coordinator is a core.Engine whose queries run on Shards times the
// requested pool size. Construct with New; safe for concurrent Query
// calls.
type Coordinator struct {
	*core.Engine
	shards int
}

var _ core.Searcher = (*Coordinator)(nil)

// New wraps base, which stays fully usable on its own.
func New(base *core.Engine, opts Options) (*Coordinator, error) {
	if base == nil || base.DB == nil {
		return nil, fmt.Errorf("shard: coordinator requires a relational engine")
	}
	return &Coordinator{Engine: base, shards: max(opts.Shards, 1)}, nil
}

// Query runs req on the wrapped engine with the pool size multiplied.
func (c *Coordinator) Query(ctx context.Context, req core.Request) (*core.Response, error) {
	req.Workers = max(req.Workers, 1) * c.shards
	return c.Engine.Query(ctx, req)
}
