package lca

import (
	"sort"

	"kwsearch/internal/obs"
	"kwsearch/internal/xmltree"
)

// ELCAStack computes the Exclusive LCAs in one pass over the merged match
// stream with a path stack — the DIL-style semantics of XRank (Guo et al.
// SIGMOD'03): a node is an ELCA if its subtree covers every keyword using
// only witnesses that are not inside an all-keyword descendant.
// O(d·Σ|Sᵢ|) after the merge. It records its work onto sp (nil disables
// tracing): per-term posting-list sizes and the result count.
func ELCAStack(ix *xmltree.Index, terms []string, sp *obs.Span) []*xmltree.Node {
	lists := lookupLists(ix, terms)
	recordListSizes(sp, lists)
	if lists == nil {
		sp.SetAttr("elcas", 0)
		return nil
	}
	full := (uint32(1) << uint(len(terms))) - 1

	// Merge matches in document order, collecting each node's keyword mask.
	type match struct {
		node *xmltree.Node
		mask uint32
	}
	maskOf := map[xmltree.NodeID]uint32{}
	var order []xmltree.NodeID
	nodeOf := map[xmltree.NodeID]*xmltree.Node{}
	for i, list := range lists {
		for _, n := range list {
			if _, seen := maskOf[n.ID]; !seen {
				order = append(order, n.ID)
				nodeOf[n.ID] = n
			}
			maskOf[n.ID] |= 1 << uint(i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	matches := make([]match, len(order))
	for i, id := range order {
		matches[i] = match{node: nodeOf[id], mask: maskOf[id]}
	}

	// Path stack: each frame is an ancestor of the current match carrying
	// two masks — total (every keyword anywhere in the subtree) and resid
	// (keywords witnessed outside any all-keyword descendant). A node is
	// an ELCA exactly when its resid mask is full; a child that covers all
	// keywords (total full) contributes nothing to its parent's resid,
	// implementing the exclusion of slide 34's semantics.
	type frame struct {
		node  *xmltree.Node
		total uint32
		resid uint32
	}
	var stack []frame
	var out []*xmltree.Node
	pop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top.resid == full {
			out = append(out, top.node)
		}
		if len(stack) > 0 {
			parent := &stack[len(stack)-1]
			parent.total |= top.total
			if top.total != full {
				parent.resid |= top.resid
			}
		}
	}
	for _, m := range matches {
		// Pop frames that are not ancestors of this match.
		for len(stack) > 0 && !stack[len(stack)-1].node.Dewey.IsAncestorOrSelf(m.node.Dewey) {
			pop()
		}
		// Push the path from the current top to the match node.
		var path []*xmltree.Node
		for cur := m.node; cur != nil; cur = cur.Parent {
			if len(stack) > 0 && stack[len(stack)-1].node == cur {
				break
			}
			path = append(path, cur)
		}
		for i := len(path) - 1; i >= 0; i-- {
			stack = append(stack, frame{node: path[i]})
		}
		stack[len(stack)-1].total |= m.mask
		stack[len(stack)-1].resid |= m.mask
	}
	for len(stack) > 0 {
		pop()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	sp.SetAttr("elcas", len(out))
	return out
}

// ELCA computes Exclusive LCAs by candidate generation and verification,
// the Index-Stack outline (Xu & Papakonstantinou EDBT'08): candidates are
// the anchored SLCAs of the *shortest* list (every true ELCA contains a
// witness whose anchored candidate is exactly that ELCA), verified against
// the exclusivity condition with binary searches —
// O(k·d·|Smin|·log|Smax|)-flavoured work that wins when the rarest keyword
// is selective (the E15 shape).
func ELCA(ix *xmltree.Index, terms []string) []*xmltree.Node {
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
	seen := map[xmltree.NodeID]bool{}
	var cands []*xmltree.Node
	for _, v := range lists[min] {
		// Every ELCA u has, for each keyword, a witness outside u's
		// all-keyword children; for the shortest list's witness x, the
		// deepest all-covering ancestor of x is exactly u — so anchoring
		// candidates on Smin loses no ELCA.
		d := anchorCandidate(v, lists, min)
		if n := t.ByDewey(d); n != nil && !seen[n.ID] {
			seen[n.ID] = true
			cands = append(cands, n)
		}
	}
	var out []*xmltree.Node
	for _, u := range cands {
		if isELCA(u, lists) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// isELCA verifies the exclusivity condition for u: every keyword must have
// a witness in u's subtree that is not inside a child subtree already
// covering all keywords.
func isELCA(u *xmltree.Node, lists [][]*xmltree.Node) bool {
	// childCovers caches, per child of u, whether it covers all keywords.
	childCovers := map[*xmltree.Node]bool{}
	covers := func(c *xmltree.Node) bool {
		if v, ok := childCovers[c]; ok {
			return v
		}
		all := true
		for _, list := range lists {
			if !hasMatchIn(list, c.Dewey) {
				all = false
				break
			}
		}
		childCovers[c] = all
		return all
	}
	childOf := func(x *xmltree.Node) *xmltree.Node {
		// The child of u on the path to x (nil when x == u).
		if len(x.Dewey) <= len(u.Dewey) {
			return nil
		}
		ord := x.Dewey[len(u.Dewey)]
		if ord < 0 || ord >= len(u.Children) {
			return nil
		}
		return u.Children[ord]
	}
	for _, list := range lists {
		witness := false
		for i := succIndex(list, u.Dewey); i < len(list) && u.Dewey.IsAncestorOrSelf(list[i].Dewey); i++ {
			x := list[i]
			c := childOf(x)
			if c == nil || !covers(c) {
				witness = true
				break
			}
		}
		if !witness {
			return false
		}
	}
	return true
}

// ELCABrute is the first-principles oracle for tests.
func ELCABrute(ix *xmltree.Index, terms []string) []*xmltree.Node {
	lists := lookupLists(ix, terms)
	if lists == nil {
		return nil
	}
	var out []*xmltree.Node
	for _, u := range CommonAncestors(ix, terms) {
		if isELCA(u, lists) {
			out = append(out, u)
		}
	}
	return out
}
