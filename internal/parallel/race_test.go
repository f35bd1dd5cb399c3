package parallel

import (
	"sync"
	"testing"
)

// TestConcurrentDecomposeDeterministic stresses the documented read-only
// contract of Decompose and SharingAwarePartition: many goroutines
// decompose the same CNs against one shared Binding and partition
// them, and every goroutine must observe bit-identical prefixes, costs
// and makespans. Run with -race to catch hidden memoization writes.
func TestConcurrentDecomposeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	b, ref, cns := setup(t)
	refAssign := SharingAwarePartition(ref, 4)

	const goroutines = 8
	const rounds = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				jobs := make([]Job, len(cns))
				for i, c := range cns {
					jobs[i] = Decompose(c, b)
				}
				for i := range jobs {
					if len(jobs[i].Prefixes) != len(ref[i].Prefixes) {
						t.Errorf("job %d: %d prefixes, want %d", i, len(jobs[i].Prefixes), len(ref[i].Prefixes))
						return
					}
					for k := range jobs[i].Prefixes {
						if jobs[i].Prefixes[k] != ref[i].Prefixes[k] {
							t.Errorf("job %d prefix %d diverged", i, k)
							return
						}
						if jobs[i].PrefixCosts[k] != ref[i].PrefixCosts[k] {
							t.Errorf("job %d cost %d diverged: %v vs %v", i, k, jobs[i].PrefixCosts[k], ref[i].PrefixCosts[k])
							return
						}
					}
				}
				a := SharingAwarePartition(jobs, 4)
				if a.Makespan() != refAssign.Makespan() {
					t.Errorf("makespan diverged: %v vs %v", a.Makespan(), refAssign.Makespan())
					return
				}
			}
		}()
	}
	wg.Wait()
}
