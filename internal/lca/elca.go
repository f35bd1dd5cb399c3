package lca

import (
	"context"
	"sort"
	"time"

	"kwsearch/internal/obs"
	"kwsearch/internal/resilience"
	"kwsearch/internal/xmltree"
)

// ELCAStack computes the Exclusive LCAs in one pass over the merged match
// stream with a path stack — the DIL-style semantics of XRank (Guo et al.
// SIGMOD'03): a node is an ELCA if its subtree covers every keyword using
// only witnesses that are not inside an all-keyword descendant.
// O(d·Σ|Sᵢ|) after the merge. It records its work onto sp (nil disables
// tracing): per-term posting-list sizes and the result count.
// It consults resilience.StageELCA once and ctx every
// slcaCtxCheckStride matches; an interrupted scan returns ctx's error
// and no nodes. There is no sound partial top-k: the ELCAs popped so
// far are true ones, but a document-order prefix, not the smallest
// subtrees the served ranking puts first.
func ELCAStack(ctx context.Context, ix *xmltree.Index, terms []string, sp *obs.Span) ([]*xmltree.Node, error) {
	if err := resilience.From(ctx).At(ctx, resilience.StageELCA); err != nil {
		return nil, err
	}
	lists := lookupLists(ix, terms)
	recordListSizes(sp, lists)
	if lists == nil {
		sp.SetAttr("elcas", 0)
		return nil, nil
	}
	full := (uint32(1) << uint(len(terms))) - 1

	// Merge the lists, which are in document (ID) order without
	// repeats, into one match stream, OR-ing each node's keyword mask.
	type match struct {
		node *xmltree.Node
		mask uint32
	}
	var matches []match
	for pos := make([]int, len(lists)); ; {
		var m match
		for i, l := range lists {
			if pos[i] < len(l) && (m.node == nil || l[pos[i]].ID < m.node.ID) {
				m.node = l[pos[i]]
			}
		}
		if m.node == nil {
			break
		}
		for i, l := range lists {
			if pos[i] < len(l) && l[pos[i]] == m.node {
				m.mask |= 1 << uint(i)
				pos[i]++
			}
		}
		matches = append(matches, m)
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
	for i, m := range matches {
		if i%slcaCtxCheckStride == 0 {
			// On a goroutine that never blocks, a sub-millisecond timer
			// can fire a millisecond late, so the deadline is read too.
			err := ctx.Err()
			if d, ok := ctx.Deadline(); err == nil && ok && !time.Now().Before(d) {
				err = context.DeadlineExceeded
			}
			if err != nil {
				sp.SetAttr("cancelled", true)
				return nil, err
			}
		}
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
	return out, nil
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
