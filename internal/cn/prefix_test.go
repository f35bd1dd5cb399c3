package cn

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
)

func prefixSetup(t *testing.T) (*Evaluator, []*CN) {
	t.Helper()
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	ix := invindex.FromDB(db)
	ev := NewEvaluator(db, ix, []string{"keyword", "search"})
	cns := Enumerate(schemagraph.FromDB(db), EnumerateOptions{
		MaxSize:       5,
		KeywordTables: ev.KeywordTables(),
		FreeTables:    []string{"write", "cite"},
	})
	if len(cns) == 0 {
		t.Fatal("no CNs")
	}
	return ev, cns
}

// resultSig renders a result into a canonical comparison string.
func resultSig(r Result) string {
	return fmt.Sprintf("%s|%s|%.12f", r.CN.Canonical(), resultKey(r), r.Score)
}

func sigSet(rs []Result) map[string]int {
	m := map[string]int{}
	for _, r := range rs {
		m[resultSig(r)]++
	}
	return m
}

// TestEvaluatePrefixMatchesEvaluateCN asserts the level-order prefix
// materialization path produces exactly EvaluateCN's result multiset for
// every enumerated CN, both in one shot and when resumed from every
// intermediate prefix depth.
func TestEvaluatePrefixMatchesEvaluateCN(t *testing.T) {
	ev, cns := prefixSetup(t)
	ctx := context.Background()
	// finish runs rows through BindingResults; neither step can fail
	// under a background context.
	finish := func(c *CN, prior Rows) map[string]int {
		rows, err := ev.EvaluatePrefix(ctx, c, prior, len(c.Nodes))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ev.BindingResults(ctx, c, rows)
		if err != nil {
			t.Fatal(err)
		}
		return sigSet(rs)
	}
	for ci, c := range cns {
		want := sigSet(mustEvaluate(t, ev, c))

		// One shot: materialize the full binding set, then finish.
		got := finish(c, Rows{})
		if len(got) != len(want) {
			t.Fatalf("CN %d (%s): prefix path %d distinct results, want %d", ci, c, len(got), len(want))
		}
		for sig, n := range want {
			if got[sig] != n {
				t.Fatalf("CN %d (%s): result %q count %d, want %d", ci, c, sig, got[sig], n)
			}
		}

		// Resumed: stop at every intermediate depth and continue from it,
		// as the executor's per-worker prefix cache does.
		for depth := 1; depth < len(c.Nodes); depth++ {
			mid, err := ev.EvaluatePrefix(ctx, c, Rows{}, depth)
			if err != nil {
				t.Fatal(err)
			}
			if mid.Width != depth {
				t.Fatalf("CN %d: level of depth %d has width %d", ci, depth, mid.Width)
			}
			got := finish(c, mid)
			for sig, n := range want {
				if got[sig] != n {
					t.Fatalf("CN %d resumed at depth %d: result %q count %d, want %d", ci, depth, sig, got[sig], n)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("CN %d resumed at depth %d: %d results, want %d", ci, depth, len(got), len(want))
			}
		}
	}
}

// TestPrefixKeyOrderSensitive pins the property the executor's binding
// cache relies on: PrefixKey distinguishes mirrored growth orders that
// Canonical (correctly) identifies.
func TestPrefixKeyOrderSensitive(t *testing.T) {
	_, cns := prefixSetup(t)
	// Find two distinct CNs whose full canonicals differ but whose
	// size-1 prefixes start from different tables; their PrefixKeys must
	// differ even when prefix canonicals collide across mirror orders.
	keys := map[string]string{} // PrefixKey -> canonical of first prefix holder
	for _, c := range cns {
		for n := 1; n <= len(c.Nodes); n++ {
			pk := c.PrefixKey(n)
			if pk == "" {
				t.Fatalf("empty PrefixKey for %s at %d", c, n)
			}
			sub := &CN{Nodes: append([]NodeSpec(nil), c.Nodes[:n]...)}
			for _, e := range c.Edges {
				if e.A < n && e.B < n {
					sub.Edges = append(sub.Edges, e)
				}
			}
			canon := sub.Canonical()
			if prev, ok := keys[pk]; ok && prev != canon {
				t.Fatalf("PrefixKey %q maps to two canonicals: %q vs %q", pk, prev, canon)
			}
			keys[pk] = canon
		}
	}
	// Degenerate arguments.
	c := cns[0]
	if c.PrefixKey(0) != "" || c.PrefixKey(len(c.Nodes)+1) != "" {
		t.Fatal("out-of-range PrefixKey should be empty")
	}
}

// TestLevelAllocsDoNotGrowWithRows pins the flat level layout by count:
// extending a level is one presized slice plus the odd regrowth however
// many rows come out of it (the row-at-a-time evaluator allocated one
// slice per row plus one per parent tuple), and finishing a level
// allocates for the rows that survive totality and minimality — their
// Tuples, the growing result slice — not for the ones that fail.
func TestLevelAllocsDoNotGrowWithRows(t *testing.T) {
	ev, cns := prefixSetup(t)
	ctx := context.Background()
	bigLevels, rejected := 0, 0
	for ci, c := range cns {
		var rows Rows
		for d := 1; d <= len(c.Nodes); d++ {
			prior := rows
			var err error
			if rows, err = ev.EvaluatePrefix(ctx, c, prior, d); err != nil {
				t.Fatal(err)
			}
			if rows.Len() < 1000 {
				continue
			}
			bigLevels++
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := ev.EvaluatePrefix(ctx, c, prior, d); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 8 {
				t.Errorf("CN %d (%s) depth %d: %.0f allocations for %d rows, want a handful", ci, c, d, allocs, rows.Len())
			}
		}
		rs, err := ev.BindingResults(ctx, c, rows)
		if err != nil {
			t.Fatal(err)
		}
		rejected += rows.Len() - len(rs)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ev.BindingResults(ctx, c, rows); err != nil {
				t.Fatal(err)
			}
		})
		// One Tuples slice per survivor, the result slice's doublings
		// (log2 of at most a few thousand) and the mask scratch.
		if limit := float64(len(rs) + 16); allocs > limit {
			t.Errorf("CN %d (%s): finishing %d rows (%d survive) made %.0f allocations, want <= %.0f",
				ci, c, rows.Len(), len(rs), allocs, limit)
		}
	}
	if bigLevels == 0 || rejected < 1000 {
		t.Fatalf("fixture lost its shape: %d levels of >= 1000 rows, %d rejected rows", bigLevels, rejected)
	}
}

// TestRootRangesTile pins the property the exec pool's job queue rests
// on: cut a CN's root set into contiguous ranges of any size, grow each
// range on its own, and the levels laid end to end in range order are
// the unsplit level, ID for ID, at every depth.
func TestRootRangesTile(t *testing.T) {
	ev, cns := prefixSetup(t)
	ctx := context.Background()
	for ci, c := range cns {
		n := ev.RootCount(c)
		if whole := ev.Roots(c, 0, n+5); whole.Len() != n {
			t.Fatalf("CN %d: Roots clamped to %d rows, want %d", ci, whole.Len(), n)
		}
		for depth := 1; depth <= len(c.Nodes); depth++ {
			want, err := ev.EvaluatePrefix(ctx, c, Rows{}, depth)
			if err != nil {
				t.Fatal(err)
			}
			for _, per := range []int{1, 7, 64, max(n, 1)} {
				var got []relstore.TupleID
				for lo := 0; lo < n; lo += per {
					rows, err := ev.EvaluatePrefix(ctx, c, ev.Roots(c, lo, lo+per), depth)
					if err != nil {
						t.Fatal(err)
					}
					if rows.Width != depth {
						t.Fatalf("CN %d depth %d roots [%d,%d): width %d", ci, depth, lo, lo+per, rows.Width)
					}
					got = append(got, rows.IDs...)
				}
				if !slices.Equal(got, want.IDs) {
					t.Fatalf("CN %d (%s) depth %d, %d roots per range: %d IDs, want %d, or in another order",
						ci, c, depth, per, len(got), len(want.IDs))
				}
			}
		}
	}
}
