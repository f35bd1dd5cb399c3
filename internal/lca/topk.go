package lca

import (
	"math"
	"sort"

	"kwsearch/internal/xmltree"
)

// ScoredResult is one ranked XML result.
type ScoredResult struct {
	Node  *xmltree.Node
	Score float64
}

// TopK returns the k best results under the given ?LCA semantics
// (nil candidates means untraced SLCA), ranked by a
// content-over-compactness score: Σ per-term log inverse element frequency
// divided by the summed root-to-witness path lengths — the default XML
// ranking the top-k engines of slide 137 optimize for (Chen &
// Papakonstantinou ICDE'10 target exactly this kind of scored retrieval).
func TopK(ix *xmltree.Index, terms []string, k int, candidates func(*xmltree.Index, []string) []*xmltree.Node) []ScoredResult {
	var nodes []*xmltree.Node
	if candidates == nil {
		nodes = SLCA(ix, terms, nil)
	} else {
		nodes = candidates(ix, terms)
	}
	if len(nodes) == 0 {
		return nil
	}
	n := float64(ix.Tree().Len())
	out := make([]ScoredResult, 0, len(nodes))
	for _, node := range nodes {
		content, dist := 0.0, 1.0
		for _, term := range terms {
			list := ix.Lookup(term)
			df := float64(len(list))
			if df == 0 {
				continue
			}
			// Nearest witness inside the subtree.
			best := -1
			for i := succIndex(list, node.Dewey); i < len(list) && node.Dewey.IsAncestorOrSelf(list[i].Dewey); i++ {
				d := len(list[i].Dewey) - len(node.Dewey)
				if best < 0 || d < best {
					best = d
				}
			}
			if best < 0 {
				continue
			}
			content += math.Log(1 + n/df)
			dist += float64(best)
		}
		out = append(out, ScoredResult{Node: node, Score: content / dist})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node.ID < out[j].Node.ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
