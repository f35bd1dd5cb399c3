package server

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
)

// TestConcurrentClientsMatchInProcess is the serving layer's load
// contract on a gated engine. Concurrent clients replay a mix of
// repeated and distinct queries: every complete 200 must be
// byte-identical to in-process Engine.Query, no partial may arrive
// without a deadline, every 429 must carry Retry-After, and nothing but
// 200, 429 or a queued-deadline 503 may come back. A burst at twice the
// gate's capacity must then shed. Run under -race it doubles as the
// serving layer's data-race gate.
func TestConcurrentClientsMatchInProcess(t *testing.T) {
	e := core.NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	e.Admit(4, 8)
	ts := httptest.NewServer(New(e, Options{}).Handler())
	defer ts.Close()

	workload := []QueryRequest{
		{Query: "keyword search", Workers: 2},
		{Query: "wang search", Workers: 2},
		{Query: "keyword search", Workers: 2}, // repeat: result-cache hit
		{Query: "keyword database"},
		{Query: "search database", TopK: 5},
	}
	// The references are computed before any load, on the engine the
	// server shares, so the comparison target is fixed.
	want := make([]string, len(workload))
	for i, q := range workload {
		r, err := reference(e, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	clients, perClient := 8, 8
	if testing.Short() {
		clients, perClient = 4, 3
	}
	var ok atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				j := (c + i) % len(workload)
				q := workload[j]
				resp, httpResp, err := postQuery(ts.URL, q)
				switch {
				case err != nil:
					t.Errorf("client %d query %q: %v", c, q.Query, err)
				case resp.Status == http.StatusOK && resp.Partial:
					t.Errorf("client %d query %q: partial without a deadline", c, q.Query)
				case resp.Status == http.StatusOK:
					ok.Add(1)
					if got := RenderResults(resp.Results); got != want[j] {
						t.Errorf("client %d query %q: served answer differs from in-process\nserved:\n%s\nwant:\n%s", c, q.Query, got, want[j])
					}
				case resp.Status == http.StatusTooManyRequests:
					if httpResp.Header.Get("Retry-After") == "" {
						t.Errorf("client %d query %q: 429 without Retry-After", c, q.Query)
					}
				case resp.Status == http.StatusServiceUnavailable:
				default:
					t.Errorf("client %d query %q: status %d (%s)", c, q.Query, resp.Status, resp.Error)
				}
			}
		}(c)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no client got a complete answer")
	}

	// A simultaneous burst beyond the gate's capacity must shed with 429,
	// and every query must come back. Scheduling can serialize a burst,
	// so a burst without a shed is retried before it counts as a failure.
	t.Run("burst", func(t *testing.T) {
		n := 2*(e.Gate().Limit()+e.Gate().MaxQueue()) + 8 // ≥2× capacity
		sheds := 0
		for attempt := 0; attempt < 3 && sheds == 0; attempt++ {
			statuses := make([]int, n)
			startGun := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-startGun
					// A K of its own keeps every query of every burst out
					// of the result cache: each pays full evaluation, so
					// the burst overlaps however fast one evaluation is.
					q := QueryRequest{Query: "keyword search", TopK: 10000 - attempt*n - i, Workers: 2}
					resp, _, err := postQuery(ts.URL, q)
					if err != nil {
						t.Errorf("burst query %d: %v", i, err)
						return
					}
					statuses[i] = resp.Status
				}(i)
			}
			close(startGun)
			wg.Wait()
			for i, status := range statuses {
				switch status {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					sheds++
				default:
					t.Fatalf("burst query %d: status %d, want 200 or 429", i, status)
				}
			}
		}
		if sheds == 0 {
			t.Fatalf("no 429 across three bursts of %d queries at ≥2× gate capacity", n)
		}
	})
}
