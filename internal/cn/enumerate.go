package cn

import (
	"context"
	"sort"

	"kwsearch/internal/resilience"
	"kwsearch/internal/schemagraph"
)

// EnumerateOptions controls candidate-network generation.
type EnumerateOptions struct {
	// MaxSize bounds the number of tuple sets per CN (Tmax).
	MaxSize int
	// KeywordTables lists the relations with a non-empty keyword tuple set
	// R^Q for the current query; only these may appear as keyword nodes.
	KeywordTables []string
	// FreeTables lists the relations allowed to appear as free tuple sets
	// R^{}. The tutorial's slide-28 count treats only text-free link
	// relations (write) as fillers; pass all tables for the general
	// DISCOVER behaviour.
	FreeTables []string
	// Terms is the query's term count m, one per coverage-mask bit (a
	// repeated word counts twice): when positive, only CNs that can yield
	// a minimal row are generated (see Enumerate); 0 means no such rule.
	Terms int
}

// Enumerate generates all valid candidate networks up to MaxSize,
// duplicate-free, in nondecreasing size order (breadth-first on the schema
// graph, the strategy of Hristidis et al. VLDB'02).
//
// A CN is valid iff every leaf is a keyword node (free leaves would add
// tuples that contribute neither keywords nor connectivity), and no node
// uses the same single-valued foreign key twice (such a CN can only bind
// both neighbours to the same tuple, duplicating a smaller CN's results).
//
// With Terms = m > 0 it is also non-redundant: a CN with L keyword
// leaves is generated only if L + [a non-leaf node is a keyword node]
// <= m. A minimal row gives each leaf a term no other node holds, a
// different one per leaf, and a non-leaf keyword node holds some term,
// which is then no leaf's. The rule also cuts growth: a partial CN whose
// leaves (free ones included) plus that bracket exceed m is not
// extended, since attaching a node never lowers the leaf count of a CN
// of two or more nodes and a non-leaf node never becomes a leaf again.
func Enumerate(g *schemagraph.Graph, opts EnumerateOptions) []*CN {
	cns, _ := EnumerateCtx(context.Background(), g, opts)
	return cns
}

// EnumerateCtx is Enumerate with cancellation (and the fault injector's
// enumerate stage) checked at every frontier expansion. A cancelled
// enumeration returns nil and ctx's error — a partial CN set would
// silently change which answers exist, so the caller gets nothing rather
// than a truncated search space.
func EnumerateCtx(ctx context.Context, g *schemagraph.Graph, opts EnumerateOptions) ([]*CN, error) {
	if opts.MaxSize <= 0 {
		opts.MaxSize = 5
	}
	inj := resilience.From(ctx)
	kw := map[string]bool{}
	for _, t := range opts.KeywordTables {
		kw[t] = true
	}
	free := map[string]bool{}
	for _, t := range opts.FreeTables {
		free[t] = true
	}

	// emit records a valid CN. Deduplication is the frontier's job
	// (canonicalization is the enumeration hot spot, so it runs exactly
	// once per grown partial).
	var results []*CN
	emit := func(c *CN) {
		if c.valid(opts.Terms) {
			results = append(results, c)
		}
	}

	// Frontier of partial CNs (not necessarily valid yet). Seed with the
	// single keyword nodes, sorted for determinism. frontierSeen gates
	// both the frontier and emission: every emitted CN enters the
	// frontier, so one canonical-keyed set suffices.
	kwTables := append([]string(nil), opts.KeywordTables...)
	sort.Strings(kwTables)
	var frontier []*CN
	frontierSeen := map[string]bool{}
	for _, t := range kwTables {
		if !g.HasTable(t) || !kw[t] {
			continue
		}
		c := &CN{Nodes: []NodeSpec{{Table: t}}}
		if frontierSeen[c.Canonical()] {
			continue
		}
		frontierSeen[c.Canonical()] = true
		emit(c)
		frontier = append(frontier, c)
	}

	for size := 1; size < opts.MaxSize; size++ {
		var next []*CN
		for _, c := range frontier {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := inj.At(ctx, resilience.StageEnumerate); err != nil {
				return nil, err
			}
			if c.Size() != size {
				continue
			}
			for _, grown := range growCN(g, c, kw, free) {
				if opts.Terms > 0 && grown.termsNeeded() > opts.Terms {
					continue
				}
				key := grown.Canonical()
				if frontierSeen[key] {
					continue
				}
				frontierSeen[key] = true
				emit(grown)
				next = append(next, grown)
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return results, nil
}

// growCN returns all one-node extensions of c obeying the same-FK pruning
// rule.
func growCN(g *schemagraph.Graph, c *CN, kw, free map[string]bool) []*CN {
	var out []*CN
	for ni, n := range c.Nodes {
		for _, e := range g.Adjacent(n.Table) {
			other := e.To
			if e.From != n.Table {
				other = e.From
			} else if e.To == n.Table && e.From == n.Table {
				other = n.Table
			}
			// Same-FK duplication check: if the existing node is the
			// referencing side (e.From == n.Table), it may use each FK
			// column once.
			if e.From == n.Table && c.usesFK(ni, e) {
				continue
			}
			// Attach as a keyword node and/or as a free node.
			if kw[other] {
				out = append(out, c.attach(ni, other, false, e))
			}
			if free[other] {
				out = append(out, c.attach(ni, other, true, e))
			}
		}
	}
	return out
}

// usesFK reports whether node ni already has an incident edge using the
// same referencing foreign key (same From table and column).
func (c *CN) usesFK(ni int, e schemagraph.Edge) bool {
	for _, ex := range c.Edges {
		if ex.A != ni && ex.B != ni {
			continue
		}
		v := ex.Via
		if v.From == e.From && v.FromCol == e.FromCol && v.To == e.To && v.ToCol == e.ToCol {
			// The node must be on the referencing side of the existing
			// edge for the single-valued restriction to apply.
			if (ex.A == ni && c.Nodes[ni].Table == v.From) || (ex.B == ni && c.Nodes[ni].Table == v.From) {
				return true
			}
		}
	}
	return false
}

// attach returns a copy of c with a new node linked to ni via e.
func (c *CN) attach(ni int, table string, freeNode bool, e schemagraph.Edge) *CN {
	nc := c.clone()
	nc.Nodes = append(nc.Nodes, NodeSpec{Table: table, Free: freeNode})
	nc.Edges = append(nc.Edges, EdgeSpec{A: ni, B: len(nc.Nodes) - 1, Via: e})
	return nc
}

// valid reports whether every leaf is a keyword node and, for m > 0,
// whether c meets the m-term rule (stated and argued on Enumerate).
func (c *CN) valid(m int) bool {
	for _, li := range c.leaves() {
		if c.Nodes[li].Free {
			return false
		}
	}
	return m <= 0 || c.termsNeeded() <= m
}

// termsNeeded returns c's leaf count, free leaves included, plus 1 if a
// non-leaf node is a keyword node: the m-term rule's left side.
func (c *CN) termsNeeded() int {
	n, inner := 0, 0
	for i, d := range c.degrees() {
		if d <= 1 {
			n++
		} else if !c.Nodes[i].Free {
			inner = 1
		}
	}
	return n + inner
}
