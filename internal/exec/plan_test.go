package exec

import (
	"context"
	"testing"
)

// TestPlanCacheHitStat pins the Stats.PlanCacheHit wiring: the first
// execution of a signature compiles (no hit), a later execution of the
// same signature on an executor that shares only the plan cache reuses
// the compiled plan, and an executor with its own plan cache compiles
// again.
func TestPlanCacheHitStat(t *testing.T) {
	x := newTestExecutor(2)
	q := Query{Terms: []string{"keyword", "search"}, K: 5, MaxCNSize: 5}

	_, st, err := x.TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHit {
		t.Fatal("cold executor claims a plan-cache hit")
	}

	x = fresh(x, nil, x.plans) // cold results and bindings, warm plans
	_, st, err = x.TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResultCacheHit {
		t.Fatal("a fresh executor hit the result cache")
	}
	if !st.PlanCacheHit {
		t.Fatal("warm executor missed the plan cache")
	}

	// A different query with the same keyword→relation membership
	// signature shares the plan: that is the whole point of keying plans
	// by signature instead of by query string.
	_, st, err = x.TopK(context.Background(), Query{Terms: []string{"query", "optimization"}, K: 5, MaxCNSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !st.PlanCacheHit {
		t.Fatal("same-signature query missed the plan cache")
	}

	_, st, err = fresh(x, nil, nil).TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHit {
		t.Fatal("an executor with its own plan cache hit a plan")
	}
}
