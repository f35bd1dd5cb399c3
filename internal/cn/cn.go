// Package cn implements DISCOVER-style candidate networks: enumeration of
// join trees over the schema graph that can connect keyword matches
// (Hristidis & Papakonstantinou VLDB'02, Hristidis et al. VLDB'03), their
// evaluation into joining trees of tuples, and the Naive / Sparse /
// Global-Pipeline top-k strategies of slide 116.
package cn

import (
	"sort"
	"strings"
	"sync"

	"kwsearch/internal/schemagraph"
)

// NodeSpec is one tuple set in a candidate network: a relation, either
// restricted to keyword matches (R^Q, Free=false) or unrestricted filler
// (R^{}, Free=true).
type NodeSpec struct {
	Table string
	Free  bool
}

// String renders "author^Q" or "write^{}".
func (n NodeSpec) String() string {
	if n.Free {
		return n.Table + "^{}"
	}
	return n.Table + "^Q"
}

// EdgeSpec connects two nodes of a CN via a schema-graph foreign key.
type EdgeSpec struct {
	A, B int // node indices
	Via  schemagraph.Edge
}

// CN is one candidate network: a tree over tuple sets. Nodes and Edges
// must not change once String, Canonical or an Evaluator has seen the
// CN: its rendered and canonical strings and its evaluation program
// (program.go) are derived once and memoised, which is what lets the
// immutable CNs of a plan.PlanSet be shared by every query on every
// goroutine.
type CN struct {
	Nodes []NodeSpec
	Edges []EdgeSpec

	canonOnce sync.Once
	canon     string
	strOnce   sync.Once
	str       string
	progOnce  sync.Once
	prog      *program
}

// Size returns the number of tuple sets.
func (c *CN) Size() int { return len(c.Nodes) }

// KeywordNodes returns the indices of non-free nodes.
func (c *CN) KeywordNodes() []int {
	var out []int
	for i, n := range c.Nodes {
		if !n.Free {
			out = append(out, i)
		}
	}
	return out
}

// adjacency returns, per node, the incident edge indices. The rows are
// carved from one backing array sized by a degree-counting pass — the
// function runs once per Canonical call, so per-row append growth
// showed up in the cold-plan profile.
func (c *CN) adjacency() [][]int {
	deg := c.degrees()
	adj := make([][]int, len(c.Nodes))
	backing := make([]int, 0, 2*len(c.Edges))
	for i, d := range deg {
		start := len(backing)
		backing = backing[:start+d]
		adj[i] = backing[start : start : start+d]
	}
	for ei, e := range c.Edges {
		adj[e.A] = append(adj[e.A], ei)
		adj[e.B] = append(adj[e.B], ei)
	}
	return adj
}

// degrees returns each node's edge count.
func (c *CN) degrees() []int {
	deg := make([]int, len(c.Nodes))
	for _, e := range c.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	return deg
}

// leaves returns the indices of degree<=1 nodes.
func (c *CN) leaves() []int {
	var out []int
	for i, d := range c.degrees() {
		if d <= 1 {
			out = append(out, i)
		}
	}
	return out
}

// String renders a compact linear form, e.g.
// "author^Q ⋈ write^{} ⋈ paper^Q" for path CNs and a nested form otherwise.
// Like Canonical it is computed on first use and memoised: every served
// result's text names its CN.
func (c *CN) String() string {
	c.strOnce.Do(func() { c.str = c.render() })
	return c.str
}

func (c *CN) render() string {
	if len(c.Nodes) == 1 {
		return c.Nodes[0].String()
	}
	// Render as a rooted term from the first leaf for readability.
	root := c.leaves()[0]
	var render func(node, from int) string
	adj := c.adjacency()
	render = func(node, from int) string {
		var parts []string
		for _, ei := range adj[node] {
			e := c.Edges[ei]
			other := e.A
			if other == node {
				other = e.B
			}
			if other == from {
				continue
			}
			parts = append(parts, render(other, node))
		}
		s := c.Nodes[node].String()
		if len(parts) > 0 {
			s += "(" + strings.Join(parts, ", ") + ")"
		}
		return s
	}
	return render(root, -1)
}

// edgeLabel renders a direction-aware label for canonicalization: the FK
// identity matters (cite.citing vs cite.cited) but which endpoint the tree
// grew from does not.
func edgeLabel(e schemagraph.Edge) string {
	// Hand-rolled concatenation: this sits on the canonicalization hot
	// path (once per grown partial per enumeration level), where
	// fmt.Sprintf's boxing dominated the cold-plan profile.
	n := len(e.From) + len(e.FromCol) + len(e.To) + len(e.ToCol) + 4
	b := make([]byte, 0, n)
	b = append(b, e.From...)
	b = append(b, '.')
	b = append(b, e.FromCol...)
	b = append(b, "->"...)
	b = append(b, e.To...)
	b = append(b, '.')
	b = append(b, e.ToCol...)
	return string(b)
}

// Canonical returns a string that is identical for isomorphic CNs
// (same multiset of tuple sets connected through the same foreign keys),
// regardless of construction order. Trees are canonicalized by rooting at
// the tree center(s) and sorting subtree encodings. Edge endpoints are
// treated as unordered: for a foreign key whose two endpoint tables are
// the same relation AND the same column (a true self-loop), the encoding
// cannot distinguish the two orientations — such schemas do not occur in
// practice (self-references use distinct columns, like cite.citing and
// cite.cited, which the Via label distinguishes).
//
// The string is computed on first use and memoised: the sort order of
// every top-k list (Less) and of the pool's job queues asks for it
// again per comparison.
func (c *CN) Canonical() string {
	c.canonOnce.Do(func() { c.canon = c.canonical() })
	return c.canon
}

func (c *CN) canonical() string {
	if len(c.Nodes) == 1 {
		return c.Nodes[0].String()
	}
	adj := c.adjacency()

	var encode func(node, fromEdge int) string
	encode = func(node, fromEdge int) string {
		var parts []string
		for _, ei := range adj[node] {
			if ei == fromEdge {
				continue
			}
			e := c.Edges[ei]
			other := e.A
			if other == node {
				other = e.B
			}
			parts = append(parts, "["+edgeLabel(e.Via)+" "+encode(other, ei)+"]")
		}
		sort.Strings(parts)
		return c.Nodes[node].String() + strings.Join(parts, "")
	}

	centers := c.centers(adj)
	var encs []string
	for _, ctr := range centers {
		encs = append(encs, encode(ctr, -1))
	}
	sort.Strings(encs)
	return encs[0]
}

// centers returns the 1 or 2 centers of the tree (iterative leaf pruning).
func (c *CN) centers(adj [][]int) []int {
	n := len(c.Nodes)
	if n == 1 {
		return []int{0}
	}
	deg := make([]int, n)
	for _, e := range c.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	removed := make([]bool, n)
	frontier := []int{}
	for i, d := range deg {
		if d == 1 {
			frontier = append(frontier, i)
		}
	}
	remaining := n
	for remaining > 2 {
		var next []int
		for _, leaf := range frontier {
			removed[leaf] = true
			remaining--
			for _, ei := range adj[leaf] {
				e := c.Edges[ei]
				other := e.A
				if other == leaf {
					other = e.B
				}
				if removed[other] {
					continue
				}
				deg[other]--
				if deg[other] == 1 {
					next = append(next, other)
				}
			}
		}
		frontier = next
	}
	var out []int
	for i := range deg {
		if !removed[i] {
			out = append(out, i)
		}
	}
	return out
}

// clone deep-copies the CN.
func (c *CN) clone() *CN {
	nc := &CN{
		Nodes: make([]NodeSpec, len(c.Nodes)),
		Edges: make([]EdgeSpec, len(c.Edges)),
	}
	copy(nc.Nodes, c.Nodes)
	copy(nc.Edges, c.Edges)
	return nc
}
