// Command kwsearch runs keyword queries over the built-in datasets under a
// selectable result semantics.
//
// Usage:
//
//	kwsearch -data dblp -semantics cn -k 5 keyword search
//	kwsearch -data seltzer -semantics banks Seltzer Berkeley
//	kwsearch -data auctions -semantics slca seller Tom
//	kwsearch -data dblp -workers 4 -trace keyword search
//	kwsearch -data dblp -deadline 50ms keyword search
//	kwsearch -data dblp -json keyword search | jq .stats
//	kwsearch -data dblp -serve localhost:6060 keyword search
//	kwsearch -data dblp -n 16 -admit 1 keyword search
//
// -n runs the query that many times concurrently against the shared
// engine; combined with -admit it demonstrates load shedding from the
// command line (the summary goes to stderr).
//
// Exit codes: 0 success (including partial results on deadline), 2 usage
// error, 3 bad query, 4 shed by admission control, 5 deadline expired
// before any evaluation could run, 1 any other failure. With -n > 1 the
// exit code is the most severe outcome across runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/obs"
	"kwsearch/internal/snippet"
)

func main() {
	data := flag.String("data", "dblp", "dataset: dblp | widom | seltzer | products | events | auctions | conf | bib")
	sem := flag.String("semantics", "auto", "auto | cn | spark | banks | steiner | slca | elca")
	k := flag.Int("k", 10, "number of results")
	doClean := flag.Bool("clean", false, "run noisy-channel query cleaning first")
	snip := flag.Bool("snippets", false, "print snippets for XML results")
	workers := flag.Int("workers", 1, "worker-pool size for cn/slca evaluation (answers are identical at every size)")
	deadline := flag.Duration("deadline", 0, "per-query time budget (0 = none); an expiring deadline returns the partial answer certified so far")
	admit := flag.Int("admit", 0, "admission-control concurrency limit (0 = off; relevant with -serve under external load)")
	admitQueue := flag.Int("admit-queue", 0, "bounded admission queue depth used with -admit")
	concurrent := flag.Int("n", 1, "run the query this many times concurrently (with -admit this demonstrates load shedding)")
	stats := flag.Bool("stats", false, "print the engine's metrics-registry snapshot after the search")
	trace := flag.Bool("trace", false, "print the query's span tree (pipeline stages with timings and attributes)")
	jsonOut := flag.Bool("json", false, "emit results, stats and trace as one JSON object")
	serve := flag.String("serve", "", "after the query, serve /metrics, /metrics/prom, /debug/vars, /debug/pprof (and /debug/slowlog with -slowlog-cap) on this address and block")
	logLevel := flag.String("log-level", "warn", "structured-log level for engine lines on stderr: debug | info | warn | error | off")
	slowlogMS := flag.Int("slowlog-ms", 100, "slow-query capture threshold in ms (0 disables the duration trigger)")
	slowlogCap := flag.Int("slowlog-cap", 0, "slow-query exemplar ring capacity (0 = tail sampling off); captured exemplars are summarized on stderr")
	flag.Parse()
	query := strings.Join(flag.Args(), " ")
	if query == "" {
		fmt.Fprintln(os.Stderr, "usage: kwsearch [flags] keyword...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	engine, err := buildEngine(*data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	semantics, err := core.ParseSemantics(*sem)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *doClean && !*jsonOut && engine.Cleaner != nil {
		fmt.Printf("cleaned query: %s\n", engine.Cleaner.Clean(query))
	}
	if *admit > 0 {
		engine.Admit(*admit, *admitQueue)
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var slowlog *obs.SlowLog
	if *slowlogCap > 0 {
		slowlog = obs.NewSlowLog(*slowlogCap, time.Duration(*slowlogMS)*time.Millisecond)
		engine.SetSlowLog(slowlog)
	}
	ctx := obs.WithLogger(context.Background(), logger)
	req := core.Request{
		Query: query, TopK: *k, Semantics: semantics, Clean: *doClean,
		Workers: *workers, Deadline: *deadline,
		Trace: *trace || *jsonOut,
	}
	resp, err := runQueries(ctx, engine, req, *concurrent)
	printSlowLog(slowlog)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		switch {
		case errors.Is(err, core.ErrBadQuery):
			os.Exit(3)
		case errors.Is(err, core.ErrOverloaded):
			os.Exit(4)
		case errors.Is(err, core.ErrDeadlineExceeded):
			os.Exit(5)
		}
		os.Exit(1)
	}

	if *jsonOut {
		emitJSON(query, resp)
	} else {
		printText(engine.Registry(), resp, *snip, *trace, *stats)
	}

	if *serve != "" {
		srv, err := obs.Serve(*serve, engine.Registry(), slowlog)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics (prom on /metrics/prom, pprof on /debug/pprof/)\n", srv.Addr())
		// Block until interrupted, then drain in-flight scrapes
		// gracefully (bounded) instead of dropping them mid-body.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "metrics server shutdown: %v\n", err)
			os.Exit(1)
		}
	}
}

// runQueries executes req n times concurrently against the shared
// engine (n == 1 is the plain single-query path) and returns the first
// complete response. With an admission gate installed and n beyond its
// capacity, some runs shed — the returned error is the most severe
// failure across runs (bad query, then shed, then queued deadline), so
// the exit code reflects what the burst hit even when one run won.
func runQueries(ctx context.Context, engine core.Searcher, req core.Request, n int) (*core.Response, error) {
	if n <= 1 {
		return engine.Query(ctx, req)
	}
	responses := make([]*core.Response, n)
	errs := make([]error, n)
	startGun := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			//lint:ignore ctxdrop start-gun barrier: closed unconditionally right after the spawn loop, never blocks past it
			<-startGun
			responses[i], errs[i] = engine.Query(ctx, req)
		}(i)
	}
	close(startGun)
	wg.Wait()

	var ok, shed, deadline, other int
	var resp *core.Response
	var worst error
	rank := func(err error) int {
		switch {
		case errors.Is(err, core.ErrBadQuery):
			return 3
		case errors.Is(err, core.ErrOverloaded):
			return 2
		case errors.Is(err, core.ErrDeadlineExceeded):
			return 1
		}
		return 0
	}
	for i := 0; i < n; i++ {
		switch {
		case errs[i] == nil:
			ok++
			if resp == nil {
				resp = responses[i]
			}
		case errors.Is(errs[i], core.ErrOverloaded):
			shed++
		case errors.Is(errs[i], core.ErrDeadlineExceeded):
			deadline++
		default:
			other++
		}
		if errs[i] != nil && (worst == nil || rank(errs[i]) > rank(worst)) {
			worst = errs[i]
		}
	}
	fmt.Fprintf(os.Stderr, "concurrent runs: n=%d ok=%d shed=%d deadline=%d other=%d\n", n, ok, shed, deadline, other)
	if worst != nil {
		return nil, worst
	}
	return resp, nil
}

// buildLogger maps the -log-level flag onto a stderr structured logger;
// "off" disables logging entirely (a nil obs.Logger no-ops).
func buildLogger(level string) (*obs.Logger, error) {
	if level == "off" || level == "none" {
		return nil, nil
	}
	lv, err := obs.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(os.Stderr, lv), nil
}

// printSlowLog summarizes the tail-sampled exemplars on stderr, one line
// per retained query (newest first). No-op without -slowlog-cap.
func printSlowLog(sl *obs.SlowLog) {
	if sl == nil || sl.Len() == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "slowlog: %d captured (cap %d, threshold %s)\n", sl.Captured(), sl.Cap(), sl.Threshold())
	for _, en := range sl.Entries() {
		fmt.Fprintf(os.Stderr, "slowlog: seq=%d outcome=%s duration=%s keywords_hash=%s plan=%s\n",
			en.Seq, en.Outcome, en.Duration, en.KeywordsHash, en.PlanSignature)
	}
}

// printText is the human-readable output path: ranked results, then the
// optional span tree and metrics snapshot.
func printText(reg *obs.Registry, resp *core.Response, snip, trace, stats bool) {
	if resp.Partial {
		fmt.Println("partial results: the deadline expired before the answer was complete")
	}
	if len(resp.Results) == 0 {
		fmt.Println("no results")
	}
	for i, r := range resp.Results {
		fmt.Printf("%2d. %s\n", i+1, r)
		if snip && r.Node != nil {
			for _, it := range snippet.Generate(r.Node, resp.Stats.Terms, 4) {
				fmt.Printf("      %s: %s\n", it.Label, it.Value)
			}
		}
	}
	if trace && resp.Trace != nil {
		fmt.Printf("\ntrace (%s total):\n%s", resp.Stats.Elapsed, resp.Trace)
	}
	if stats {
		if st := resp.Stats.Exec; st != nil {
			fmt.Printf("\nexec: workers=%d cns=%d jobs=%d evaluated=%d skipped=%d result-cache-hit=%v plan-cache-hit=%v\n",
				st.Workers, st.CNs, st.Jobs, st.Evaluated, st.Skipped, st.ResultCacheHit, st.PlanCacheHit)
			if len(st.JobsPerWorker) > 0 {
				fmt.Printf("exec: jobs per worker %v\n", st.JobsPerWorker)
			}
		}
		if reg != nil {
			fmt.Printf("\nmetrics:\n%s", reg.Snapshot())
		}
	}
}

// jsonResult is one ranked answer in the -json payload.
type jsonResult struct {
	Rank  int     `json:"rank"`
	Score float64 `json:"score"`
	Text  string  `json:"text"`
}

// jsonOutput is the -json payload: the query, ranked results, the
// engine-level stats (terms, timings and the executor's per-query
// counts), and the span tree when tracing ran. The engine-wide registry
// is not in it; -stats prints that snapshot.
type jsonOutput struct {
	Query   string       `json:"query"`
	Results []jsonResult `json:"results"`
	Stats   core.Stats   `json:"stats"`
	Trace   *core.Trace  `json:"trace,omitempty"`
}

func emitJSON(query string, resp *core.Response) {
	out := jsonOutput{Query: query, Stats: resp.Stats, Trace: resp.Trace}
	for i, r := range resp.Results {
		out.Results = append(out.Results, jsonResult{Rank: i + 1, Score: r.Score, Text: r.String()})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func buildEngine(data string) (*core.Engine, error) {
	switch data {
	case "dblp":
		return core.NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig())), nil
	case "widom":
		return core.NewRelational(dataset.WidomBib()), nil
	case "seltzer":
		return core.NewRelational(dataset.SeltzerBerkeley()), nil
	case "products":
		return core.NewRelational(dataset.Products()), nil
	case "events":
		return core.NewRelational(dataset.EventsDB()), nil
	case "auctions":
		return core.NewXML(dataset.AuctionsXML()), nil
	case "conf":
		return core.NewXML(dataset.ConfDemoXML()), nil
	case "bib":
		return core.NewXML(dataset.BibXML(dataset.DefaultBibConfig())), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", data)
}
