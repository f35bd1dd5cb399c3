package cn

import (
	"strconv"
	"strings"
)

// JoinKey names one directed schema join: a tuple of FromTable joins
// the tuples of ToTable whose ToCol equals its FromCol. Direction is the
// direction of traversal, not of the foreign key: a CN edge over
// write.aid -> author.aid is walked as {write, aid, author, aid} from a
// write tuple and as {author, aid, write, aid} from an author tuple.
type JoinKey struct {
	FromTable, FromCol, ToTable, ToCol string
}

// step attaches one CN node to an already bound one: follow join from
// the tuple bound to parent and keep the targets on the right side of
// the keyword/free partition.
type step struct {
	node, parent int
	join         JoinKey
	free         bool
}

// program is everything about a CN that evaluation would otherwise
// re-derive per call, per level or per row: which way each edge's
// columns face, the growth-order steps the level-wise evaluator follows,
// the search order of the depth-first one, the leaves minimality
// checks, and the PrefixKey strings the pool's prefix tables are keyed
// by. It depends on the CN alone and is shared by every query.
type program struct {
	// grow[j-1] attaches node j to an earlier node over edge j-1 — the
	// enumerator's growth invariant (see prefix.go).
	grow []step
	// search[s] binds the nodes breadth-first from node s (search[s][0]
	// is s itself, its parent -1 and its join unused): each later node
	// joins an already bound one, whichever node the caller pinned.
	search [][]step
	leaves []int
	// prefix[d] is PrefixKey(d) for 0 <= d <= len(Nodes).
	prefix []string
}

// program returns c's evaluation program, compiling it on first use.
func (c *CN) program() *program {
	c.progOnce.Do(func() { c.prog = c.compile() })
	return c.prog
}

// joinKey orients edge e for a traversal that leaves the tuple bound to
// node from. The schema edge's columns follow the tables; for a
// self-referencing foreign key both endpoints are the same table, so
// position decides instead: the node attached later is always
// EdgeSpec.B, Via is stored from the perspective of growing A->B, and
// the roles reverse when the traversal starts at B.
func (c *CN) joinKey(e EdgeSpec, from int) JoinKey {
	to := e.A
	if to == from {
		to = e.B
	}
	k := JoinKey{FromTable: c.Nodes[from].Table, ToTable: c.Nodes[to].Table}
	forward := e.Via.From == k.FromTable && e.Via.To == k.ToTable
	if e.Via.From == e.Via.To {
		forward = from == e.A
	}
	if forward {
		k.FromCol, k.ToCol = e.Via.FromCol, e.Via.ToCol
	} else {
		k.FromCol, k.ToCol = e.Via.ToCol, e.Via.FromCol
	}
	return k
}

func (c *CN) compile() *program {
	n := len(c.Nodes)
	p := &program{leaves: c.leaves(), prefix: make([]string, n+1)}
	if n == 0 {
		return p
	}
	var b strings.Builder
	b.WriteString(c.Nodes[0].String())
	p.prefix[1] = b.String()
	for j := 1; j < n && j-1 < len(c.Edges); j++ {
		e := c.Edges[j-1]
		parent := e.A
		if parent == j {
			parent = e.B
		}
		p.grow = append(p.grow, step{
			node: j, parent: parent, join: c.joinKey(e, parent), free: c.Nodes[j].Free,
		})
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(parent))
		b.WriteByte(':')
		b.WriteString(edgeLabel(e.Via))
		b.WriteByte(':')
		b.WriteString(c.Nodes[j].String())
		p.prefix[j+1] = b.String()
	}

	adj := c.adjacency()
	p.search = make([][]step, n)
	for s := range p.search {
		order := make([]step, 1, n)
		order[0] = step{node: s, parent: -1, free: c.Nodes[s].Free}
		seen := make([]bool, n)
		seen[s] = true
		for qi := 0; qi < len(order); qi++ {
			at := order[qi].node
			for _, ei := range adj[at] {
				e := c.Edges[ei]
				other := e.A
				if other == at {
					other = e.B
				}
				if seen[other] {
					continue
				}
				seen[other] = true
				order = append(order, step{
					node: other, parent: at, join: c.joinKey(e, at), free: c.Nodes[other].Free,
				})
			}
		}
		p.search[s] = order
	}
	return p
}
