package resilience

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Stage names the pipeline points the engine calls Inject at. Tests arm
// faults against these constants; keeping them here (rather than as
// string literals at each call site) makes the set greppable and stable.
const (
	// StageAdmit fires after admission, before any pipeline work.
	StageAdmit = "core.admit"
	// StageEnumerate fires once per frontier CN during enumeration.
	StageEnumerate = "cn.enumerate"
	// StageEval fires once per candidate-network job in the exec worker
	// pool, before the join work for that CN starts.
	StageEval = "exec.eval"
	// StagePipeline fires once per driver-tuple advance of the serial
	// Global Pipeline evaluation.
	StagePipeline = "cn.pipeline"
	// StageSLCARange fires periodically inside each SLCA range worker.
	StageSLCARange = "lca.range"
	// StageELCA fires once at the start of the ELCA stack scan.
	StageELCA = "lca.elca"
	// StageBanksExpand fires periodically inside the BANKS expansion loop.
	StageBanksExpand = "banks.expand"
	// StageSteinerPop fires periodically inside the DPBF heap loop.
	StageSteinerPop = "steiner.pop"
)

// Fault describes what happens when an armed stage is hit: after the
// first After hits, every Every-th hit (0 or 1 = every hit) — or, when
// Prob is set, a seeded coin flip instead — sleeps Delay (abandoned early
// if the context is cancelled) and returns Err.
type Fault struct {
	// Delay is slept on each triggered hit; the sleep aborts (and the
	// context's error is returned) if the context ends first.
	Delay time.Duration
	// Err is returned on triggered hits (nil = delay only).
	Err error
	// After skips the first After hits entirely.
	After int
	// Every triggers every Every-th eligible hit; 0 and 1 mean every hit.
	Every int
	// Prob, when > 0, replaces the After/Every schedule with a Bernoulli
	// trial per hit using the injector's seeded source — still
	// reproducible for a fixed seed and hit order.
	Prob float64
}

// Injector is a deterministic fault-injection harness: stages are armed
// with Faults, and instrumented code calls Inject (or At) at iteration
// boundaries. A nil *Injector is inert, so production paths pay one nil
// check. Safe for concurrent use.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults map[string]Fault
	hits   map[string]int
}

// NewInjector builds an injector whose probabilistic faults draw from a
// source seeded with seed (deterministic for a fixed seed).
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		faults: map[string]Fault{},
		hits:   map[string]int{},
	}
}

// Arm installs (or replaces) the fault at stage.
func (in *Injector) Arm(stage string, f Fault) *Injector {
	if in == nil {
		return in
	}
	in.mu.Lock()
	in.faults[stage] = f
	in.mu.Unlock()
	return in
}

// Disarm removes the fault at stage (hit counting continues).
func (in *Injector) Disarm(stage string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	delete(in.faults, stage)
	in.mu.Unlock()
}

// Hits returns how many times stage was reached (armed or not).
func (in *Injector) Hits(stage string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[stage]
}

// At records a hit at stage and applies its armed fault, if any: the
// delay is slept context-aware, then the fault's error (or the context's,
// if the sleep was interrupted) is returned. Nil injectors no-op.
func (in *Injector) At(ctx context.Context, stage string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.hits[stage]++
	f, armed := in.faults[stage]
	trigger := false
	if armed {
		switch {
		case f.Prob > 0:
			trigger = in.rng.Float64() < f.Prob
		default:
			n := in.hits[stage] - f.After
			every := f.Every
			if every <= 1 {
				every = 1
			}
			trigger = n > 0 && n%every == 0
		}
	}
	in.mu.Unlock()
	if !trigger {
		return nil
	}
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return f.Err
}

// injectorKey is the context key the injector travels under.
type injectorKey struct{}

// WithInjector returns a context carrying in; the engine's pipeline
// stages retrieve it with From and hit it at their iteration boundaries.
func WithInjector(ctx context.Context, in *Injector) context.Context {
	return context.WithValue(ctx, injectorKey{}, in)
}

// From extracts the context's injector, nil when absent. Extract once per
// query (a context value lookup walks the context chain), then use the
// nil-safe methods in loops.
func From(ctx context.Context) *Injector {
	in, _ := ctx.Value(injectorKey{}).(*Injector)
	return in
}

// Inject is the one-shot convenience for cold paths: From + At.
func Inject(ctx context.Context, stage string) error {
	return From(ctx).At(ctx, stage)
}
