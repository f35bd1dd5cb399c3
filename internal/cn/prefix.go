package cn

import (
	"strconv"
	"strings"

	"kwsearch/internal/relstore"
)

// Prefix evaluation: the enumerator grows every CN by attaching node j to
// an earlier node via edge j-1, so the first n nodes of a CN always form
// a connected sub-tree — the "construction-order prefix" that
// parallel.Decompose names with Canonical strings. The internal/exec
// worker pool materializes these prefixes once per worker and extends
// them level by level, which is how CNs sharing a prefix (slide 132's
// sharing-aware partitioning) actually reuse each other's work at
// evaluation time, not just in the cost model.

// PrefixKey identifies the construction-order prefix of c's first n
// nodes: node specs and attaching edges in growth order. Unlike
// Canonical (which is isomorphism-invariant), PrefixKey is
// position-sensitive — two CNs share a PrefixKey only when their first n
// nodes are bound in the same order, which is exactly the condition for
// reusing position-indexed binding slices between them. (Canonical
// prefixes can match across mirrored growth orders, where reusing
// bindings would misalign tuples and tables.)
func (c *CN) PrefixKey(n int) string {
	if n <= 0 || n > len(c.Nodes) {
		return ""
	}
	var b strings.Builder
	b.WriteString(c.Nodes[0].String())
	for j := 1; j < n; j++ {
		e := c.Edges[j-1]
		parent := e.A
		if parent == j {
			parent = e.B
		}
		b.WriteByte('|')
		b.WriteString(strings.Join([]string{
			strconv.Itoa(parent), edgeLabel(e.Via), c.Nodes[j].String(),
		}, ":"))
	}
	return b.String()
}

// EvaluatePrefix returns every join-consistent partial binding of the
// first n nodes of c, extending prior (bindings over the first m nodes,
// m < n; nil means start from node 0). Each returned binding is a fresh
// slice of length n with Tuples[i] bound to CN node i; bindings never
// repeat a tuple (the joining-tree constraint). Callers evaluating from
// multiple goroutines must Prewarm first, as with EvaluateCN.
func (ev *Evaluator) EvaluatePrefix(c *CN, prior [][]*relstore.Tuple, n int) [][]*relstore.Tuple {
	if n <= 0 || n > len(c.Nodes) {
		return nil
	}
	m := 0
	bindings := prior
	if len(prior) > 0 {
		m = len(prior[0])
	}
	if m == 0 {
		bindings = nil
		// The owner filter cuts the partition here, at the root of the
		// prefix tree — its only site: every binding grown below it
		// inherits the node-0 restriction (prior bindings arriving with
		// m > 0 were already filtered the same way when their first level
		// was built).
		for _, tp := range ev.filterOwned(ev.nodeSet(c.Nodes[0])) {
			bindings = append(bindings, []*relstore.Tuple{tp})
		}
		m = 1
	}
	for j := m; j < n; j++ {
		// Edge j-1 attaches node j to an earlier node (the enumerator's
		// growth invariant); its other endpoint is the join parent.
		e := c.Edges[j-1]
		parent := e.A
		if parent == j {
			parent = e.B
		}
		var next [][]*relstore.Tuple
		for _, b := range bindings {
			for _, tp := range ev.joinCandidates(c, e, parent, b[parent]) {
				if containsTuple(b, tp) {
					continue
				}
				nb := make([]*relstore.Tuple, j+1)
				copy(nb, b)
				nb[j] = tp
				next = append(next, nb)
			}
		}
		bindings = next
		if len(bindings) == 0 {
			return nil
		}
	}
	return bindings
}

// BindingResults filters complete bindings of c (length == len(c.Nodes),
// as produced by EvaluatePrefix) through the totality and minimality
// checks and scores the survivors — the finishing step EvaluateCN applies
// to its own search tree. EvaluatePrefix + BindingResults produce exactly
// EvaluateCN's result set (possibly in a different order; SortResults
// normalizes).
func (ev *Evaluator) BindingResults(c *CN, bindings [][]*relstore.Tuple) []Result {
	var out []Result
	for _, b := range bindings {
		if len(b) != len(c.Nodes) {
			continue
		}
		if r, ok := ev.finishRow(c, b); ok {
			out = append(out, r)
		}
	}
	return out
}
