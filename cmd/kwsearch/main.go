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
//
// kwsearch answers one query per process. -stats prints the metrics
// registry; kwsearch opens no port (kwsd serves the registry over HTTP,
// and its /batch and /debug/slowlog endpoints show load shedding and
// tail sampling).
//
// Exit codes: 0 success (including partial results on deadline), 2 usage
// error, 3 bad query, 1 any other failure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

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
	workers := flag.Int("workers", 1, "worker-pool size for cn evaluation (answers are identical at every size)")
	deadline := flag.Duration("deadline", 0, "per-query time budget (0 = none); an expiring deadline returns the partial answer certified so far")
	stats := flag.Bool("stats", false, "print the engine's metrics-registry snapshot after the search")
	trace := flag.Bool("trace", false, "print the query's span tree (pipeline stages with timings and attributes)")
	jsonOut := flag.Bool("json", false, "emit results, stats and trace as one JSON object")
	logLevel := flag.String("log-level", "warn", "structured-log level for engine lines on stderr: debug | info | warn | error | off")
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
	logger, err := obs.ParseLogger(os.Stderr, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx := obs.WithLogger(context.Background(), logger)
	req := core.Request{
		Query: query, TopK: *k, Semantics: semantics, Clean: *doClean,
		Workers: *workers, Deadline: *deadline,
		Trace: *trace || *jsonOut,
	}
	resp, err := engine.Query(ctx, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, core.ErrBadQuery) {
			os.Exit(3)
		}
		os.Exit(1)
	}

	if *jsonOut {
		emitJSON(query, resp)
	} else {
		printText(engine.Registry(), resp, *snip, *trace, *stats)
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
