package lca

import (
	"context"
	"errors"
	"testing"
	"time"

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

// pastDeadline is a context whose deadline has passed but whose Err is
// still nil, as a context's is between its deadline and its timer
// firing.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestELCAStackCtx: the ELCA stack scan returns ctx's error and no nodes
// under a cancelled context, the injected error under an armed
// StageELCA fault, DeadlineExceeded once the deadline has passed even
// before the context's timer fires, and the indexed ELCA's answer
// under a live context.
func TestELCAStackCtx(t *testing.T) {
	ix := xmltree.NewIndex(dataset.KeywordTree(4, 5, map[string]int{"k0": 300, "k1": 2000}, 3))
	terms := []string{"k0", "k1"}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	boom := errors.New("injected elca fault")
	faulted := resilience.WithInjector(context.Background(), resilience.NewInjector(1).Arm(resilience.StageELCA, resilience.Fault{Err: boom}))
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"cancelled", cancelled, context.Canceled},
		{"fault", faulted, boom},
		{"past deadline", pastDeadline{context.Background()}, context.DeadlineExceeded},
	} {
		if ns, err := ELCAStack(tc.ctx, ix, terms, nil); !errors.Is(err, tc.want) || ns != nil {
			t.Errorf("%s: %d nodes, err = %v; want none and %v", tc.name, len(ns), err, tc.want)
		}
	}
	got, err := ELCAStack(context.Background(), ix, terms, nil)
	if want := ELCA(ix, terms); err != nil || len(want) == 0 || !sameNodes(got, want) {
		t.Fatalf("live context: %d nodes, err = %v; want the indexed ELCA's %d", len(got), err, len(want))
	}
}
