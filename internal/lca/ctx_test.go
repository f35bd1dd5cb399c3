package lca

import (
	"context"
	"errors"
	"testing"

	"kwsearch/internal/dataset"
	"kwsearch/internal/resilience"
	"kwsearch/internal/xmltree"
)

// TestSLCAParallelCtxCancelled: a cancelled context stops the range
// workers and yields no nodes — SLCA minimality is global, so there is no
// sound partial answer.
func TestSLCAParallelCtxCancelled(t *testing.T) {
	tr := dataset.KeywordTree(4, 5, map[string]int{"k0": 300, "k1": 2000}, 3)
	ix := xmltree.NewIndex(tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ns, err := SLCAParallel(ctx, ix, []string{"k0", "k1"}, 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if ns != nil {
		t.Fatalf("cancelled SLCA returned %d nodes", len(ns))
	}
}

// TestSLCAParallelCtxInjectedFault: an armed StageSLCARange fault aborts
// the computation with the injected error, on both the parallel path and
// the small-input serial fallback.
func TestSLCAParallelCtxInjectedFault(t *testing.T) {
	boom := errors.New("injected range fault")
	for name, counts := range map[string]map[string]int{
		"parallel": {"k0": 300, "k1": 2000},
		"serial":   {"k0": 5, "k1": 20},
	} {
		tr := dataset.KeywordTree(4, 5, counts, 3)
		ix := xmltree.NewIndex(tr)
		in := resilience.NewInjector(1).Arm(resilience.StageSLCARange, resilience.Fault{Err: boom})
		ctx := resilience.WithInjector(context.Background(), in)
		ns, err := SLCAParallel(ctx, ix, []string{"k0", "k1"}, 4, nil)
		if !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want injected fault", name, err)
		}
		if ns != nil {
			t.Errorf("%s: faulted SLCA returned %d nodes", name, len(ns))
		}
	}
}

// TestSLCAParallelCtxMatchesSerialWhenUninterrupted: with a live context
// SLCAParallel returns exactly serial SLCA's answer.
func TestSLCAParallelCtxMatchesSerialWhenUninterrupted(t *testing.T) {
	tr := dataset.KeywordTree(4, 5, map[string]int{"k0": 300, "k1": 2000}, 3)
	ix := xmltree.NewIndex(tr)
	want := SLCA(ix, []string{"k0", "k1"}, nil)
	got, err := SLCAParallel(context.Background(), ix, []string{"k0", "k1"}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d nodes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("node %d differs", i)
		}
	}
}
