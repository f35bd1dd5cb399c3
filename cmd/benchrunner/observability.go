package main

// E38: the production observability suite's cost. The full suite —
// tail-sampling slow-query log (every query runs a root span), a
// structured logger in the request context and the registry's counters
// and histograms — is paired against the same engine with the slow-query
// log and the logger left out. Pairing is per query — each workload query runs on both
// arms back-to-back, the minimum per (query, arm) survives across
// rounds, and the overhead is the ratio of the per-arm sums of minima —
// so a load spike on a shared box must persist across every round to
// bias the comparison; the reading is the median over obsBuilds engine
// builds. The 5% budget is enforced by verify.sh via the -obs-overhead
// gate.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/exec"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
)

func init() {
	register("E38", "observability suite overhead — tail-sampled traces and ctx logger vs obs-off", runE38)
}

// obsOverheadBudgetPct is the acceptance budget: the full suite may cost
// at most this much over the obs-off baseline.
const obsOverheadBudgetPct = 5.0

// execQueries is the probe workload: ten CN queries over three
// keyword→relation membership signatures. Each probe runs on a fresh
// executor sharing the engine's binder and plan cache, which the
// warm-up compiled, so every probe prices a result-cache miss with a
// warm plan; a repeated query only weighs twice in the sums.
var execQueries = [][]string{
	{"keyword", "search"},     // signature {paper}
	{"wang", "search"},        // signature {author, paper}
	{"keyword", "search"},     // repeat
	{"keyword", "database"},   // {paper}
	{"query", "optimization"}, // {paper}
	{"wang", "database"},      // {author, paper}
	{"sigmod", "ranking"},     // signature {conference, paper}
	{"keyword", "search"},     // repeat
	{"chen", "xml"},           // {author, paper}
	{"query", "optimization"}, // repeat
}

// obsOverhead is one overhead measurement.
type obsOverhead struct {
	// OverheadPct is (FullNS / BaselineNS - 1) * 100. Each arm's time is
	// the sum over workload queries of that query's minimum across
	// rounds. The minimum is the noise-resistant estimator — scheduling
	// interference only ever adds time, so the min is the closest
	// observation of each (query, arm)'s true cost; coarser designs
	// (whole-workload best-of, median of per-round ratios) both produced
	// readings past the whole budget under a concurrently running test
	// suite.
	OverheadPct float64
	Rounds      int // per engine build
	// BaselineNS / FullNS are the per-arm sums of per-query minima.
	BaselineNS int64
	FullNS     int64
	// SlowlogCaptured counts the exemplars the probe queries left behind
	// (a deadline-partial probe plus everything past the threshold).
	SlowlogCaptured uint64
	// PromScrapeBytes is the size of one /metrics/prom exposition of the
	// instrumented engine after the workload.
	PromScrapeBytes int
}

// obsQuery times one warm-plan steady-state query: before the timer
// starts, e gets a fresh executor sharing its binder and plan cache, so
// the result cache is cold and the compiled plan warm. Its counters
// land in e.Metrics (a registry keeps the first counter registered
// under each name).
func obsQuery(ctx context.Context, e *core.Engine, query string) (time.Duration, error) {
	e.Exec = exec.New(e.DB, e.Index, exec.Options{
		FreeTables: e.FreeTables, Binder: e.Binder, Plans: e.Plans, Metrics: e.Metrics,
	})
	req := core.Request{Query: query, TopK: 10, MaxCNSize: 5, Workers: 4}
	start := time.Now()
	_, err := e.Query(ctx, req)
	return time.Since(start), err
}

// obsBuilds engines are built and priced in turn, and the gate reads
// the median: where the heap places one build moves its reading by
// several percent either way (below −8 % in one of 100 A/A builds).
const obsBuilds = 5

// measureObservability prices the full suite against obs-off and
// returns the median build's measurement and evidence counters.
func measureObservability() (obsOverhead, error) {
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	runs := make([]obsOverhead, obsBuilds)
	for i := range runs {
		o, err := measureObsBuild(db, int64(i))
		if err != nil {
			return obsOverhead{}, err
		}
		runs[i] = o
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].OverheadPct < runs[j].OverheadPct })
	return runs[len(runs)/2], nil
}

// measureObsBuild prices the suite on one engine built over db, with
// round orders drawn from seed.
func measureObsBuild(db *relstore.DB, seed int64) (obsOverhead, error) {
	off := core.NewRelational(db)
	// The arms share one snapshot and differ in the suite alone: with
	// an engine each, A/A runs (no suite on either arm) read −7 to +14 %.
	fullEngine := *off
	full := &fullEngine
	sl := obs.NewSlowLog(64, 100*time.Millisecond)
	full.SetSlowLog(sl)
	fullCtx := obs.WithLogger(context.Background(), obs.NewLogger(io.Discard, obs.LevelInfo))
	fullCtx = obs.WithRequestID(fullCtx, "bench-obs")

	// Warm the shared plan cache (plan compilation out of the timing).
	for _, terms := range execQueries {
		if _, err := obsQuery(fullCtx, full, strings.Join(terms, " ")); err != nil {
			return obsOverhead{}, err
		}
	}

	// Noise controls, at per-query granularity: the garbage collector is
	// parked for the whole probe with one explicit collection between
	// rounds (so a pause cannot land inside a timed region), each query's
	// two arms run back-to-back (pinning every comparison to one ~0.3ms
	// thermal state, not one per workload), the leading arm alternates
	// per (round, query) so drift taxes both arms equally, each round
	// shuffles the query order (a fixed order replays one heap layout per
	// query: A/A −15 to +11 %), and the per-arm time is the sum of
	// per-query minima across rounds — interference only ever adds time,
	// so each minimum is the cleanest observation of that query on that
	// arm. Coarser pairings (whole-workload best-of, median of per-round
	// ratios) both swung past the 5% budget when go test ./... saturated
	// the box.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 100
	const far = time.Duration(1<<63 - 1)
	minOff := make([]time.Duration, len(execQueries))
	minFull := make([]time.Duration, len(execQueries))
	for i := range minOff {
		minOff[i], minFull[i] = far, far
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		runtime.GC() // collect outside the timed regions, not inside them
		for _, qi := range rng.Perm(len(execQueries)) {
			q := strings.Join(execQueries[qi], " ")
			var tOff, tFull time.Duration
			var errOff, errFull error
			if (r+qi)%2 == 0 {
				tOff, errOff = obsQuery(context.Background(), off, q)
				tFull, errFull = obsQuery(fullCtx, full, q)
			} else {
				tFull, errFull = obsQuery(fullCtx, full, q)
				tOff, errOff = obsQuery(context.Background(), off, q)
			}
			if err := firstErr(errOff, errFull); err != nil {
				return obsOverhead{}, err
			}
			if tOff < minOff[qi] {
				minOff[qi] = tOff
			}
			if tFull < minFull[qi] {
				minFull[qi] = tFull
			}
		}
	}
	var bestOff, bestFull time.Duration
	for i := range minOff {
		bestOff += minOff[i]
		bestFull += minFull[i]
	}

	// A deadline-partial probe proves the tail-sampling path captures
	// under the production threshold (the workload itself is healthy).
	if _, err := full.Query(fullCtx, core.Request{
		Query: "keyword search www", TopK: 10000, MaxCNSize: 6, Workers: 4, Deadline: time.Millisecond,
	}); err != nil {
		return obsOverhead{}, err
	}

	var sb strings.Builder
	if _, err := obs.WritePromText(&sb, full.Metrics.Snapshot()); err != nil {
		return obsOverhead{}, err
	}

	return obsOverhead{
		OverheadPct:     (float64(bestFull)/float64(bestOff) - 1) * 100,
		Rounds:          rounds,
		BaselineNS:      bestOff.Nanoseconds(),
		FullNS:          bestFull.Nanoseconds(),
		SlowlogCaptured: sl.Captured(),
		PromScrapeBytes: sb.Len(),
	}, nil
}

func runE38() error {
	o, err := measureObservability()
	if err != nil {
		return err
	}
	fmt.Printf("   suite overhead %.2f%% (budget %.0f%%): baseline %v vs full %v, per-query minima over %d rounds, median of %d engine builds\n",
		o.OverheadPct, obsOverheadBudgetPct, time.Duration(o.BaselineNS), time.Duration(o.FullNS), o.Rounds, obsBuilds)
	fmt.Printf("   slowlog captured %d exemplar(s); /metrics/prom scrape %d bytes\n",
		o.SlowlogCaptured, o.PromScrapeBytes)
	// The ≤5% budget itself is enforced by `benchrunner -obs-overhead`
	// (the verify.sh gate), which runs with the box to itself. E38 also
	// runs under `go test ./...` via TestAllExperimentsReproduce, where
	// every other package's tests saturate the cores concurrently — in
	// that environment a 5% wall-clock comparison is unresolvable (the
	// same engine pair measured 5-22% apart under deliberate saturation),
	// so asserting it here would only ever fail on noise. The experiment
	// asserts the functional evidence instead.
	return firstErr(
		expect(o.SlowlogCaptured > 0, "deadline probe left no slowlog exemplar"),
		expect(o.PromScrapeBytes > 0, "empty prom exposition"),
	)
}
