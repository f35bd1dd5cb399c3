// Package shard serves a relational engine with every candidate network
// split into N owner-hash slices on the exec worker pool. A Coordinator
// is the engine it wraps — same admission gate, registry, slow-query
// log, plan namespace and caches — and only stamps the slice count on
// each request; partitioning itself lives in cn.OwnerSlice and
// exec.runPool, and the non-CN semantics ignore the count. Because the
// slices tile the result space and share one top-k, the answer is
// byte-identical to the unsliced engine's at every N.
package shard

import (
	"context"
	"fmt"

	"kwsearch/internal/core"
)

// Options configures a Coordinator.
type Options struct {
	// Shards is the slice count (<=0 means 1).
	Shards int
}

// Coordinator is a core.Engine whose CN queries run at a fixed slice
// count. Construct with New; safe for concurrent Query calls.
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
	n := opts.Shards
	if n <= 0 {
		n = 1
	}
	return &Coordinator{Engine: base, shards: n}, nil
}

// Query runs req on the wrapped engine at the coordinator's slice count.
func (c *Coordinator) Query(ctx context.Context, req core.Request) (*core.Response, error) {
	req.Shards = c.shards
	return c.Engine.Query(ctx, req)
}
