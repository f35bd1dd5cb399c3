// Package spark implements SPARK's keyword query processing over
// candidate networks (Luo et al. SIGMOD'07, slide 117): the non-monotonic
// virtual-document score, applied to every result of an exact evaluation
// of the CNs.
package spark

import (
	"context"
	"math"

	"kwsearch/internal/cn"
	"kwsearch/internal/invindex"
	"kwsearch/internal/relstore"
)

// Scorer computes the SPARK score of joining trees. The score treats the
// result's tuples as one virtual document: per-term frequencies add up
// before the doubly-logarithmic damping, so the total is NOT the sum of
// per-tuple scores (the non-monotonicity of slide 117).
type Scorer struct {
	b  *cn.Binding
	ix *invindex.Index
}

// sizePenalty s: results are scaled by 1/(1 + s·(size-1)).
const sizePenalty = 0.2

// NewScorer wraps a query's CN binding with SPARK scoring.
func NewScorer(b *cn.Binding, ix *invindex.Index) *Scorer {
	return &Scorer{b: b, ix: ix}
}

// damp is SPARK's w(tf) = 1 + ln(1 + ln(tf)) for tf >= 1, else 0. It is
// concave and subadditive on tf >= 1, so a virtual document scores at
// most the sum of its tuples' own scores.
func damp(tf int) float64 {
	if tf < 1 {
		return 0
	}
	return 1 + math.Log(1+math.Log(float64(tf)))
}

// ScoreA is the virtual-document IR score: Σ_t w(tf_t(D)) · idf_t where D
// concatenates all bound tuples.
func (s *Scorer) ScoreA(tuples []*relstore.Tuple) float64 {
	total := 0.0
	for _, term := range s.b.Terms() {
		tf := 0
		for _, tp := range tuples {
			tf += s.ix.TF(term, invindex.DocID(tp.ID))
		}
		total += damp(tf) * s.ix.IDF(term)
	}
	return total
}

// SizeNorm is the size-normalization factor score_c.
func (s *Scorer) SizeNorm(size int) float64 {
	return 1 / (1 + sizePenalty*float64(size-1))
}

// Score is the full result score: ScoreA · SizeNorm. (The completeness
// factor score_b of the paper is identically 1 under the evaluator's AND
// semantics and is omitted.)
func (s *Scorer) Score(r cn.Result) float64 {
	return s.ScoreA(r.Tuples) * s.SizeNorm(len(r.Tuples))
}

// TopK evaluates every CN exactly, replaces each result's Score with
// its SPARK score and keeps the best k in a cn.Top, under cn.Less' total
// order. The score is not monotone in the tuple scores, so no CN is cut
// by a bound. A context that ends mid-evaluation abandons the query: the
// error is ctx's and no results are returned.
func TopK(ctx context.Context, s *Scorer, cns []*cn.CN, k int) ([]cn.Result, error) {
	top := &cn.Top{K: k}
	for _, c := range cns {
		rs, err := s.b.EvaluateCN(ctx, c)
		if err != nil {
			return nil, err
		}
		for i := range rs {
			rs[i].Score = s.Score(rs[i])
		}
		top.Add(rs...)
	}
	return top.Results(), nil
}
