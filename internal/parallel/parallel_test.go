package parallel

import (
	"testing"

	"kwsearch/internal/cn"
	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/schemagraph"
)

func setup(t *testing.T) (*cn.Binding, []Job, []*cn.CN) {
	t.Helper()
	db := dataset.DBLP(dataset.DBLPConfig{
		Authors: 60, Papers: 150, Conferences: 5, AuthorsPerPaper: 2,
		CitesPerPaper: 1, TitleTermCount: 3, ExtraVocab: 30, Seed: 17,
	})
	ix := invindex.FromDB(db)
	b := cn.NewBinder(db, ix).BindTraced([]string{"keyword", "search"}, nil)
	g := schemagraph.FromDB(db)
	cns := cn.Enumerate(g, cn.EnumerateOptions{
		MaxSize:       5,
		KeywordTables: b.KeywordTables(),
		FreeTables:    []string{"write", "cite"},
	})
	if len(cns) < 4 {
		t.Fatalf("too few CNs: %d", len(cns))
	}
	jobs := make([]Job, len(cns))
	for i, c := range cns {
		jobs[i] = Decompose(c, b)
	}
	return b, jobs, cns
}

func TestDecompose(t *testing.T) {
	_, jobs, _ := setup(t)
	for _, j := range jobs {
		if len(j.Prefixes) != j.CN.Size() {
			t.Fatalf("prefixes = %d for CN size %d", len(j.Prefixes), j.CN.Size())
		}
		// Costs are strictly increasing (each step adds >= 1).
		for i := 1; i < len(j.PrefixCosts); i++ {
			if j.PrefixCosts[i] <= j.PrefixCosts[i-1] {
				t.Fatalf("prefix costs not increasing: %v", j.PrefixCosts)
			}
		}
		// The full-CN prefix is the CN's own canonical form.
		if j.Prefixes[len(j.Prefixes)-1] != j.CN.Canonical() {
			t.Fatalf("last prefix != canonical CN")
		}
	}
	// CNs genuinely share prefixes (the premise of sharing-aware
	// partitioning).
	count := map[string]int{}
	for _, j := range jobs {
		for _, p := range j.Prefixes {
			count[p]++
		}
	}
	shared := 0
	for _, c := range count {
		if c > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Errorf("no shared prefixes across CNs")
	}
}

func TestPartitionsCoverAllJobs(t *testing.T) {
	_, jobs, _ := setup(t)
	for name, a := range map[string]Assignment{
		"naive":   NaivePartition(jobs, 3),
		"sharing": SharingAwarePartition(jobs, 3),
	} {
		n := 0
		for _, js := range a.Jobs {
			n += len(js)
		}
		if n != len(jobs) {
			t.Errorf("%s: assigned %d of %d jobs", name, n, len(jobs))
		}
		if a.Makespan() <= 0 {
			t.Errorf("%s: makespan = %v", name, a.Makespan())
		}
	}
}

// TestSharingAwareNoWorse is the E19 shape: accounting for shared prefixes
// never increases the makespan estimate.
func TestSharingAwareNoWorse(t *testing.T) {
	_, jobs, _ := setup(t)
	for _, workers := range []int{1, 2, 4} {
		naive := NaivePartition(jobs, workers)
		sharing := SharingAwarePartition(jobs, workers)
		if sharing.Makespan() > naive.Makespan()+1e-9 {
			t.Errorf("workers=%d: sharing-aware makespan %v exceeds naive %v",
				workers, sharing.Makespan(), naive.Makespan())
		}
	}
}

func TestSingleWorkerDegenerate(t *testing.T) {
	_, jobs, _ := setup(t)
	a := NaivePartition(jobs, 0) // clamps to 1
	if len(a.Jobs) != 1 {
		t.Fatalf("workers clamped incorrectly: %d", len(a.Jobs))
	}
	total := 0.0
	for _, j := range jobs {
		total += j.Cost()
	}
	if a.Makespan() != total {
		t.Errorf("single-worker makespan %v != total %v", a.Makespan(), total)
	}
}

// TestAssignDeterministicUnderPermutation is the equal-cost tie-break
// fix: SharingAwarePartition must produce identical worker placement for
// any input permutation of the same job set, so shared-prefix
// co-location is stable across runs.
func TestAssignDeterministicUnderPermutation(t *testing.T) {
	_, jobs, _ := setup(t)
	ref := SharingAwarePartition(jobs, 4)
	refKeys := assignmentKeys(ref)

	// A few deterministic permutations, including reversal (which flips
	// the relative order of every equal-cost pair).
	perms := [][]Job{reversed(jobs), rotated(jobs, 1), rotated(jobs, len(jobs)/2)}
	for pi, perm := range perms {
		got := SharingAwarePartition(perm, 4)
		if got.Makespan() != ref.Makespan() {
			t.Fatalf("perm %d: makespan %v != %v", pi, got.Makespan(), ref.Makespan())
		}
		gotKeys := assignmentKeys(got)
		for w := range refKeys {
			if len(gotKeys[w]) != len(refKeys[w]) {
				t.Fatalf("perm %d worker %d: %d jobs, want %d", pi, w, len(gotKeys[w]), len(refKeys[w]))
			}
			for i := range refKeys[w] {
				if gotKeys[w][i] != refKeys[w][i] {
					t.Fatalf("perm %d worker %d job %d: %q != %q", pi, w, i, gotKeys[w][i], refKeys[w][i])
				}
			}
		}
	}
}

// assignmentKeys renders each worker's job list as canonical CN strings.
func assignmentKeys(a Assignment) [][]string {
	out := make([][]string, len(a.Jobs))
	for w, js := range a.Jobs {
		for _, j := range js {
			out[w] = append(out[w], j.CN.Canonical())
		}
	}
	return out
}

func reversed(jobs []Job) []Job {
	out := make([]Job, len(jobs))
	for i, j := range jobs {
		out[len(jobs)-1-i] = j
	}
	return out
}

func rotated(jobs []Job, by int) []Job {
	out := append([]Job(nil), jobs[by:]...)
	return append(out, jobs[:by]...)
}
