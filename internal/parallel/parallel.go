// Package parallel implements parallel keyword-query computing over
// candidate networks (Qin et al. VLDB'10, slides 129-133): CNs share
// sub-expressions, a shared execution graph carries per-node cost
// estimates, and jobs are partitioned across cores either naively (largest
// job to the lightest core) or sharing-aware (largest job to the core
// where its shared prefixes are already materialized).
//
// The package is experiment-only: it is E19's cost-model comparison of
// the two placements. Queries are scheduled by internal/exec's job
// queue, which needs no cost estimate.
package parallel

import (
	"sort"

	"kwsearch/internal/cn"
	"kwsearch/internal/fmath"
)

// Job is one CN with its cost decomposition: Prefixes[i] identifies the
// sub-CN induced by the first i+1 nodes (the construction-order prefixes
// the enumerator grows, which is exactly where CNs overlap), and
// PrefixCosts[i] is the cumulative estimated cost of materializing it.
type Job struct {
	CN          *cn.CN
	Prefixes    []string
	PrefixCosts []float64
}

// Cost returns the full evaluation cost estimate of the job.
func (j Job) Cost() float64 {
	if len(j.PrefixCosts) == 0 {
		return 0
	}
	return j.PrefixCosts[len(j.PrefixCosts)-1]
}

// Decompose derives a Job from a CN over the query binding b: prefix
// identities are canonical strings of the induced sub-CNs; costs
// estimate each join step by the joining tuple-set size.
func Decompose(c *cn.CN, b *cn.Binding) Job {
	j := Job{CN: c}
	cum := 0.0
	for i := range c.Nodes {
		sub := &cn.CN{Nodes: append([]cn.NodeSpec(nil), c.Nodes[:i+1]...)}
		for _, e := range c.Edges {
			if e.A <= i && e.B <= i {
				sub.Edges = append(sub.Edges, e)
			}
		}
		size := float64(len(b.KeywordSet(c.Nodes[i].Table)))
		if c.Nodes[i].Free {
			size = float64(b.FreeSetSize(c.Nodes[i].Table))
		}
		cum += 1 + size
		j.Prefixes = append(j.Prefixes, sub.Canonical())
		j.PrefixCosts = append(j.PrefixCosts, cum)
	}
	return j
}

// Assignment maps each worker to its jobs and reports the estimated
// per-worker load.
type Assignment struct {
	Jobs  [][]Job
	Loads []float64
}

// Makespan is the maximum worker load — the quantity both partitioners
// minimize.
func (a Assignment) Makespan() float64 {
	m := 0.0
	for _, l := range a.Loads {
		if l > m {
			m = l
		}
	}
	return m
}

func sortJobsByCost(jobs []Job) []Job {
	// Equal-cost jobs tie-break on the canonical CN string: with a plain
	// stable sort, worker placement of equal-cost jobs depends on the
	// caller's input order, which silently changes which prefixes are
	// co-located between runs. The canonical tie-break makes both
	// partitioners pure functions of the job *set*.
	out := append([]Job(nil), jobs...)
	sort.SliceStable(out, func(a, b int) bool {
		if ca, cb := out[a].Cost(), out[b].Cost(); !fmath.Eq(ca, cb) {
			return ca > cb
		}
		return out[a].CN.Canonical() < out[b].CN.Canonical()
	})
	return out
}

// NaivePartition assigns the largest job to the currently lightest core
// (slide 131), charging every job its full cost.
func NaivePartition(jobs []Job, workers int) Assignment {
	if workers < 1 {
		workers = 1
	}
	a := Assignment{Jobs: make([][]Job, workers), Loads: make([]float64, workers)}
	for _, j := range sortJobsByCost(jobs) {
		best := 0
		for w := 1; w < workers; w++ {
			if a.Loads[w] < a.Loads[best] {
				best = w
			}
		}
		a.Jobs[best] = append(a.Jobs[best], j)
		a.Loads[best] += j.Cost()
	}
	return a
}

// SharingAwarePartition assigns the largest job to the core with the
// lightest *resulting* load, where a job's marginal cost on a core is its
// full cost minus the cost of the longest prefix already materialized
// there (slide 132: update the cost of the remaining jobs).
func SharingAwarePartition(jobs []Job, workers int) Assignment {
	if workers < 1 {
		workers = 1
	}
	a := Assignment{Jobs: make([][]Job, workers), Loads: make([]float64, workers)}
	have := make([]map[string]float64, workers) // prefix -> materialized cost
	for w := range have {
		have[w] = map[string]float64{}
	}
	marginal := func(j Job, w int) float64 {
		saved := 0.0
		for i, p := range j.Prefixes {
			if c, ok := have[w][p]; ok && c >= j.PrefixCosts[i] {
				if j.PrefixCosts[i] > saved {
					saved = j.PrefixCosts[i]
				}
			}
		}
		return j.Cost() - saved
	}
	for _, j := range sortJobsByCost(jobs) {
		best, bestLoad := 0, a.Loads[0]+marginal(j, 0)
		for w := 1; w < workers; w++ {
			if l := a.Loads[w] + marginal(j, w); l < bestLoad {
				best, bestLoad = w, l
			}
		}
		a.Jobs[best] = append(a.Jobs[best], j)
		a.Loads[best] = bestLoad
		for i, p := range j.Prefixes {
			if a := j.PrefixCosts[i]; have[best][p] < a {
				have[best][p] = a
			}
		}
	}
	return a
}
