package lca

import (
	"context"
	"strconv"
	"sync"

	"kwsearch/internal/obs"
	"kwsearch/internal/resilience"
	"kwsearch/internal/xmltree"
)

// slcaCtxCheckStride is how many anchors a range scan processes between
// cancellation checks: rare enough to stay off the per-anchor hot path,
// frequent enough to stop within microseconds of ctx ending.
const slcaCtxCheckStride = 32

// slcaParallelMinAnchors is the shortest-list length below which
// SLCAParallel scans one range: goroutine startup dominates the
// per-anchor binary searches on tiny lists.
const slcaParallelMinAnchors = 64

// SLCAParallel computes SLCA with the Indexed-Lookup-Eager strategy
// fanned out over workers goroutines: the shortest posting list is split
// into contiguous anchor ranges, each range runs ILE independently
// (anchorCandidate only reads the lists), and the per-range candidates
// are concatenated in range order before the global minimalization —
// which is also what resolves candidates that straddle a range boundary
// (an ancestor produced in one range with a descendant candidate in the
// next is pruned exactly as in the serial merge). Below
// slcaParallelMinAnchors anchors, or at one worker, it scans the whole
// list as one range on the calling goroutine. Results are identical for
// every worker count.
//
// Each range checks cancellation every slcaCtxCheckStride anchors and
// consults the fault injector (resilience.StageSLCARange) once. A
// cancelled computation returns nil and the interrupting error — SLCA
// minimality is a global property, so a subset of the candidates could
// wrongly keep an ancestor whose descendant match was never produced.
//
// It records its work onto sp (nil disables tracing): list sizes, the
// anchor count, the candidate count before minimalization and, when it
// splits, the range count and one child span per range carrying that
// range's bounds and candidate count. Child spans are created in the
// launch loop, before any goroutine starts, so the span tree's shape is
// deterministic for a given worker count.
func SLCAParallel(ctx context.Context, ix *xmltree.Index, terms []string, workers int, sp *obs.Span) ([]*xmltree.Node, error) {
	lists := lookupLists(ix, terms)
	if lists == nil {
		sp.SetAttr("anchors", 0)
		return nil, nil
	}
	recordListSizes(sp, lists)
	shortest := 0
	for i, l := range lists {
		if len(l) < len(lists[shortest]) {
			shortest = i
		}
	}
	anchors := lists[shortest]
	sp.SetAttr("anchors", len(anchors))
	if len(anchors) < slcaParallelMinAnchors {
		workers = 1
	}
	workers = max(1, min(workers, len(anchors)))

	t := ix.Tree()
	inj := resilience.From(ctx)
	var cands []*xmltree.Node
	if workers == 1 {
		var err error
		if cands, err = ileRange(ctx, inj, t, anchors, lists, shortest); err != nil {
			sp.SetAttr("cancelled", true)
			return nil, err
		}
	} else {
		sp.SetAttr("ranges", workers)
		perRange := make([][]*xmltree.Node, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * len(anchors) / workers
			hi := (w + 1) * len(anchors) / workers
			child := sp.Child("range-" + strconv.Itoa(w))
			child.SetAttr("lo", lo)
			child.SetAttr("hi", hi)
			wg.Add(1)
			go func(w, lo, hi int, child *obs.Span) {
				defer wg.Done()
				defer child.End()
				perRange[w], errs[w] = ileRange(ctx, inj, t, anchors[lo:hi], lists, shortest)
				if errs[w] != nil {
					child.SetAttr("cancelled", true)
					return
				}
				child.SetAttr("candidates", len(perRange[w]))
			}(w, lo, hi, child)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				sp.SetAttr("cancelled", true)
				return nil, err
			}
		}
		for _, local := range perRange {
			cands = append(cands, local...)
		}
	}
	sp.SetAttr("candidates", len(cands))
	return minimalize(cands), nil
}

// ileRange runs Indexed-Lookup-Eager over one range of anchors taken
// from lists[skip], returning the candidates in anchor order. It
// consults the fault injector once and ctx every slcaCtxCheckStride
// anchors.
func ileRange(ctx context.Context, inj *resilience.Injector, t *xmltree.Tree, anchors []*xmltree.Node, lists [][]*xmltree.Node, skip int) ([]*xmltree.Node, error) {
	if err := inj.At(ctx, resilience.StageSLCARange); err != nil {
		return nil, err
	}
	var cands []*xmltree.Node
	for i, v := range anchors {
		if i%slcaCtxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if n := t.ByDewey(anchorCandidate(v, lists, skip)); n != nil {
			cands = append(cands, n)
		}
	}
	return cands, nil
}
