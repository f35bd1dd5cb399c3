package lca

import (
	"context"
	"strconv"
	"sync"

	"kwsearch/internal/obs"
	"kwsearch/internal/resilience"
	"kwsearch/internal/xmltree"
)

// slcaCtxCheckStride is how many anchors a range worker processes between
// cancellation checks: rare enough to stay off the per-anchor hot path,
// frequent enough to stop within microseconds of ctx ending.
const slcaCtxCheckStride = 32

// slcaParallelMinAnchors is the shortest-list length below which
// SLCAParallel falls back to the serial path: goroutine startup dominates
// the per-anchor binary searches on tiny lists.
const slcaParallelMinAnchors = 64

// SLCAParallel computes SLCA with the Indexed-Lookup-Eager strategy
// fanned out over workers goroutines: the shortest posting list is split
// into contiguous anchor ranges, each range runs ILE independently
// (anchorCandidate only reads the lists), and the per-range candidates
// are concatenated in range order before the global minimalization —
// which is also what resolves candidates that straddle a range boundary
// (an ancestor produced in one range with a descendant candidate in the
// next is pruned exactly as in the serial merge). Results are identical
// to SLCA for every worker count.
//
// Each range worker checks cancellation every slcaCtxCheckStride anchors
// and consults the fault injector (resilience.StageSLCARange) once per
// range. A cancelled computation returns nil and the interrupting error
// — SLCA minimality is a global property, so a subset of the candidates
// could wrongly keep an ancestor whose descendant match was never
// produced.
//
// It records its work onto sp (nil disables tracing): list sizes, the
// anchor count, and one child span per range worker carrying that
// range's bounds and candidate count. Child spans are created in the
// launch loop, before any goroutine starts, so the span tree's shape is
// deterministic for a given worker count.
func SLCAParallel(ctx context.Context, ix *xmltree.Index, terms []string, workers int, sp *obs.Span) ([]*xmltree.Node, error) {
	lists := lookupLists(ix, terms)
	if lists == nil {
		sp.SetAttr("anchors", 0)
		return nil, nil
	}
	min := 0
	for i, l := range lists {
		if len(l) < len(lists[min]) {
			min = i
		}
	}
	anchors := lists[min]
	if workers < 1 {
		workers = 1
	}
	if workers > len(anchors) {
		workers = len(anchors)
	}
	recordListSizes(sp, lists)
	sp.SetAttr("anchors", len(anchors))
	inj := resilience.From(ctx)
	if workers == 1 || len(anchors) < slcaParallelMinAnchors {
		sp.SetAttr("serial_fallback", true)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := inj.At(ctx, resilience.StageSLCARange); err != nil {
			return nil, err
		}
		child := sp.Child("slca-serial")
		defer child.End()
		return SLCA(ix, terms, child), nil
	}
	sp.SetAttr("serial_fallback", false)
	sp.SetAttr("ranges", workers)

	t := ix.Tree()
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
			if err := inj.At(ctx, resilience.StageSLCARange); err != nil {
				errs[w] = err
				child.SetAttr("cancelled", true)
				child.End()
				return
			}
			var local []*xmltree.Node
			for i, v := range anchors[lo:hi] {
				if i%slcaCtxCheckStride == 0 {
					if err := ctx.Err(); err != nil {
						errs[w] = err
						child.SetAttr("cancelled", true)
						child.End()
						return
					}
				}
				d := anchorCandidate(v, lists, min)
				if n := t.ByDewey(d); n != nil {
					local = append(local, n)
				}
			}
			perRange[w] = local
			child.SetAttr("candidates", len(local))
			child.End()
		}(w, lo, hi, child)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			sp.SetAttr("cancelled", true)
			return nil, err
		}
	}
	var cands []*xmltree.Node
	for _, local := range perRange {
		cands = append(cands, local...)
	}
	sp.SetAttr("candidates", len(cands))
	return minimalize(cands), nil
}
