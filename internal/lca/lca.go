// Package lca implements the ?LCA family of XML keyword-search semantics
// from slides 32-34 and their query-processing algorithms from slides
// 137-141: SLCA via Indexed-Lookup-Eager (Xu & Papakonstantinou SIGMOD'05),
// a scan-eager merge variant, Multiway-SLCA (Sun et al. WWW'07), and ELCA
// via a one-pass stack (the DIL semantics of XRank, Guo et al. SIGMOD'03)
// and via candidate-generation + verification (the Index-Stack outline of
// Xu & Papakonstantinou EDBT'08).
package lca

import (
	"context"
	"sort"

	"kwsearch/internal/obs"
	"kwsearch/internal/xmltree"
)

// lookupLists resolves the query terms to their posting lists, returning
// nil if any term has no matches (AND semantics: no results).
func lookupLists(ix *xmltree.Index, terms []string) [][]*xmltree.Node {
	if len(terms) == 0 {
		return nil
	}
	lists := make([][]*xmltree.Node, len(terms))
	for i, t := range terms {
		lists[i] = ix.Lookup(t)
		if len(lists[i]) == 0 {
			return nil
		}
	}
	return lists
}

// succIndex returns the index of the first node in list at or after d in
// document order.
func succIndex(list []*xmltree.Node, d xmltree.Dewey) int {
	return sort.Search(len(list), func(i int) bool {
		return list[i].Dewey.Compare(d) >= 0
	})
}

// hasMatchIn reports whether list has a node inside the subtree rooted at
// the node with Dewey d (prefix range check via binary search).
func hasMatchIn(list []*xmltree.Node, d xmltree.Dewey) bool {
	i := succIndex(list, d)
	return i < len(list) && d.IsAncestorOrSelf(list[i].Dewey)
}

// CommonAncestors returns every node whose subtree contains at least one
// match of every term, in document order — the CA superset that slide 32
// notes can be as large as min(N, Πᵢ|Sᵢ|) and therefore "needs further
// pruning".
func CommonAncestors(ix *xmltree.Index, terms []string) []*xmltree.Node {
	lists := lookupLists(ix, terms)
	if lists == nil {
		return nil
	}
	var out []*xmltree.Node
	for _, n := range ix.Tree().Nodes() {
		all := true
		for _, list := range lists {
			if !hasMatchIn(list, n.Dewey) {
				all = false
				break
			}
		}
		if all {
			out = append(out, n)
		}
	}
	return out
}

// minimalize keeps only the deepest candidates: a node is dropped when
// another candidate lies strictly inside its subtree (the SLCA "no
// ancestor-descendant pairs" rule of slide 33).
func minimalize(cands []*xmltree.Node) []*xmltree.Node {
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	// Dedupe.
	uniq := cands[:1]
	for _, c := range cands[1:] {
		if c != uniq[len(uniq)-1] {
			uniq = append(uniq, c)
		}
	}
	var out []*xmltree.Node
	for i, c := range uniq {
		isMin := true
		// In document order, a proper descendant of c appears after c and
		// before c's interval ends; checking the successor suffices after
		// dedupe only if candidates were nested immediately, so scan
		// forward while inside c's subtree.
		for j := i + 1; j < len(uniq) && c.Dewey.IsAncestorOrSelf(uniq[j].Dewey); j++ {
			isMin = false
			break
		}
		if isMin {
			out = append(out, c)
		}
	}
	return out
}

// deeper returns the deeper of two Dewey prefixes (both are ancestors of a
// common node, hence comparable).
func deeper(a, b xmltree.Dewey) xmltree.Dewey {
	if len(a) >= len(b) {
		return a
	}
	return b
}

// anchorCandidate computes, for anchor v, the root of the smallest subtree
// containing v and at least one node of every list: the shallowest over
// lists of the deepest LCA between v and that list's nearest neighbours
// (pred/succ in document order).
func anchorCandidate(v *xmltree.Node, lists [][]*xmltree.Node, skip int) xmltree.Dewey {
	best := v.Dewey // deepest possible; will only get shallower
	for li, list := range lists {
		if li == skip {
			continue
		}
		i := succIndex(list, v.Dewey)
		var cand xmltree.Dewey
		if i < len(list) {
			cand = v.Dewey.LCA(list[i].Dewey)
		}
		if i > 0 {
			cand = deeper(cand, v.Dewey.LCA(list[i-1].Dewey))
		}
		// cand is the deepest ancestor of v with a match from this list;
		// the overall candidate is the shallowest such across lists.
		if len(cand) < len(best) {
			best = cand
		}
	}
	return best
}

// SLCA computes the smallest LCAs with the Indexed-Lookup-Eager strategy:
// anchor on the shortest list, binary-search the others —
// O(k·d·|Smin|·log|Smax|), the complexity slide 138 quotes. It is
// SLCAParallel on one range, so it records the same work onto sp (nil
// disables tracing): per-term posting-list sizes, the anchor count
// (shortest list), and the candidate count before minimalization.
func SLCA(ix *xmltree.Index, terms []string, sp *obs.Span) []*xmltree.Node {
	// A context that never ends and carries no fault injector cannot fail.
	nodes, _ := SLCAParallel(context.Background(), ix, terms, 1, sp)
	return nodes
}

// recordListSizes annotates sp with the per-term posting-list sizes.
func recordListSizes(sp *obs.Span, lists [][]*xmltree.Node) {
	if sp == nil {
		return
	}
	sizes := make([]int, len(lists))
	for i, l := range lists {
		sizes[i] = len(l)
	}
	sp.SetAttr("list_sizes", sizes)
}

// SLCAScan is the scan-eager variant: anchors still come from the shortest
// list but neighbours in the other lists are found by advancing cursors
// monotonically instead of binary searching — O(k·d·Σ|Sᵢ|), preferable when
// the lists have comparable sizes (the E20 crossover).
func SLCAScan(ix *xmltree.Index, terms []string) []*xmltree.Node {
	lists := lookupLists(ix, terms)
	if lists == nil {
		return nil
	}
	min := 0
	for i, l := range lists {
		if len(l) < len(lists[min]) {
			min = i
		}
	}
	t := ix.Tree()
	cursors := make([]int, len(lists))
	var cands []*xmltree.Node
	for _, v := range lists[min] {
		best := v.Dewey
		for li, list := range lists {
			if li == min {
				continue
			}
			// Advance the cursor to the successor of v.
			for cursors[li] < len(list) && list[cursors[li]].Dewey.Compare(v.Dewey) < 0 {
				cursors[li]++
			}
			var cand xmltree.Dewey
			if cursors[li] < len(list) {
				cand = v.Dewey.LCA(list[cursors[li]].Dewey)
			}
			if cursors[li] > 0 {
				cand = deeper(cand, v.Dewey.LCA(list[cursors[li]-1].Dewey))
			}
			if len(cand) < len(best) {
				best = cand
			}
		}
		if n := t.ByDewey(best); n != nil {
			cands = append(cands, n)
		}
	}
	return minimalize(cands)
}

// SLCAMultiway is the Multiway-SLCA strategy of Sun et al. (WWW'07, slide
// 139): instead of sweeping every anchor of the shortest list, it picks as
// the next anchor the maximum head across all lists (skip_after), letting
// whole clusters of matches be skipped in one step.
func SLCAMultiway(ix *xmltree.Index, terms []string) []*xmltree.Node {
	lists := lookupLists(ix, terms)
	if lists == nil {
		return nil
	}
	t := ix.Tree()
	heads := make([]int, len(lists))
	var cands []*xmltree.Node
	for {
		// Anchor = the maximum current head in document order.
		anchor := -1
		for i, list := range lists {
			if heads[i] >= len(list) {
				return minimalize(cands)
			}
			if anchor < 0 || list[heads[i]].Dewey.Compare(lists[anchor][heads[anchor]].Dewey) > 0 {
				anchor = i
			}
		}
		v := lists[anchor][heads[anchor]]
		d := anchorCandidate(v, lists, anchor)
		if n := t.ByDewey(d); n != nil {
			cands = append(cands, n)
		}
		// skip_after: advance every list past the anchor.
		for i, list := range lists {
			heads[i] = succIndex(list, v.Dewey)
			if i == anchor || (heads[i] < len(list) && list[heads[i]] == v) {
				heads[i]++
			}
		}
	}
}

// SLCABrute computes SLCAs from first principles (minimal common
// ancestors), used as the test oracle.
func SLCABrute(ix *xmltree.Index, terms []string) []*xmltree.Node {
	return minimalize(CommonAncestors(ix, terms))
}
