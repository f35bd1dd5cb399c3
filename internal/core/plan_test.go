package core

import (
	"context"
	"testing"

	"kwsearch/internal/dataset"
)

// TestEnginePlanCacheWired pins the engine-level plan path: relational
// engines own a plan cache, distinct queries sharing a keyword→relation
// membership signature share one compiled plan, and the engine's answers
// are unchanged by whether the plan came from the cache.
func TestEnginePlanCacheWired(t *testing.T) {
	e := NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	if e.Plans == nil {
		t.Fatal("relational engine has no plan cache")
	}

	// "wang search" and "chen database" differ as queries but share the
	// {author, paper} membership signature.
	cold, err := e.Query(context.Background(), Request{Query: "wang search", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	builds := e.Plans.Builds()
	if builds == 0 {
		t.Fatal("cold query did not compile a plan")
	}
	hitsBefore := e.Plans.Stats().Hits
	warm, err := e.Query(context.Background(), Request{Query: "chen database", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if e.Plans.Stats().Hits == hitsBefore {
		t.Fatal("same-signature query missed the plan cache")
	}
	if e.Plans.Builds() != builds {
		t.Fatalf("same-signature query recompiled: %d builds, want %d", e.Plans.Builds(), builds)
	}
	if len(cold.Results) == 0 || len(warm.Results) == 0 {
		t.Fatalf("plan-cached queries returned no results (%d, %d)", len(cold.Results), len(warm.Results))
	}
}
