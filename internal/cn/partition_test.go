package cn

import (
	"testing"

	"kwsearch/internal/relstore"
)

// TestShardOfCompleteAndDisjoint pins the tiling property the sliced
// pool's identity rests on: every tuple ID is owned by exactly one of
// the n owner slices.
func TestShardOfCompleteAndDisjoint(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		owned := make([]int, n)
		for id := 0; id < 2000; id++ {
			s := ownerOf(relstore.TupleID(id), n)
			if s < 0 || s >= n {
				t.Fatalf("ownerOf(%d, %d) = %d, out of range", id, n, s)
			}
			owners := 0
			for p := 0; p < n; p++ {
				if OwnerSlice(p, n)(relstore.TupleID(id)) {
					owners++
					if p != s {
						t.Fatalf("id %d: OwnerSlice(%d, %d) true but ownerOf says %d", id, p, n, s)
					}
				}
			}
			if owners != 1 {
				t.Fatalf("id %d owned by %d slices of %d, want exactly 1", id, owners, n)
			}
			owned[s]++
		}
		for s, c := range owned {
			if c == 0 {
				t.Errorf("n=%d: slice %d owns no IDs out of 2000 — degenerate hash", n, s)
			}
		}
	}
	if OwnerSlice(0, 1) != nil {
		t.Errorf("OwnerSlice(0, 1) should be nil (no restriction)")
	}
}
