// Command kwsd is the keyword-search daemon: it loads one built-in
// dataset into a warm engine and serves it over HTTP.
//
//	kwsd -addr :8791 -data dblp -admit 8 -admit-queue 16
//
// Endpoints:
//
//	POST /query          one query        {"query": "keyword search", "k": 5, ...}
//	POST /batch          up to 64 queries {"queries": [...]}
//	GET  /healthz        200 while serving, 503 once draining
//	GET  /readyz         readiness probe; 503 the instant a drain begins
//	GET  /metrics        metrics-registry snapshot (JSON, cumulative histogram buckets included)
//	GET  /metrics/prom   Prometheus 0.0.4 text exposition of the same snapshot
//	GET  /debug/slowlog  tail-sampled slow/errored/shed query exemplars with span trees
//	                     (also /debug/pprof)
//
// kwsd is the process that serves the metrics registry. Observability
// is tuned with -log-level (log/slog JSON lines on stderr at debug,
// info, warn or error, or off; the request id joins the access log, the
// engine lines and the exemplars), -slowlog-ms (capture threshold) and
// -slowlog-cap (exemplar ring size).
//
// Status codes follow the engine's typed errors: 400 bad query, 429 shed
// by admission control (Retry-After set), 503 deadline expired while
// queued, and 200 with "partial": true when a per-request deadline
// expires mid-evaluation (the certified prefix computed so far).
//
// SIGTERM or SIGINT starts a graceful drain: the listener stops
// accepting, in-flight queries run to completion within -drain, and the
// process exits 0 (1 if the drain deadline forced a hard close).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/obs"
	"kwsearch/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8791", "listen address")
	data := flag.String("data", "dblp", "dataset: dblp | widom | seltzer | products | events | auctions | conf | bib")
	admit := flag.Int("admit", 8, "admission-control concurrency limit (0 = off)")
	admitQueue := flag.Int("admit-queue", 16, "bounded admission queue depth used with -admit")
	workers := flag.Int("workers", 1, "default cn worker-pool size for queries that don't set one")
	deadline := flag.Duration("deadline", 0, "default per-query time budget for queries that don't set one (0 = none)")
	maxDeadline := flag.Duration("max-deadline", time.Minute, "ceiling clamped onto any requested per-query deadline (0 = no ceiling)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-drain budget after SIGTERM/SIGINT")
	logLevel := flag.String("log-level", "info", "structured-log level: debug | info | warn | error | off")
	slowlogMS := flag.Int("slowlog-ms", 100, "slow-query capture threshold in ms (0 disables the duration trigger; errored/shed/partial queries are always captured)")
	slowlogCap := flag.Int("slowlog-cap", 64, "slow-query exemplar ring capacity (0 disables tail sampling entirely)")
	flag.Parse()

	engine, err := buildEngine(*data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *admit > 0 {
		engine.Admit(*admit, *admitQueue)
	}
	logger, err := obs.ParseLogger(os.Stderr, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var slowlog *obs.SlowLog
	if *slowlogCap > 0 {
		slowlog = obs.NewSlowLog(*slowlogCap, time.Duration(*slowlogMS)*time.Millisecond)
	}
	srv := server.New(engine, server.Options{
		DefaultWorkers:  *workers,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		Logger:          logger,
		SlowLog:         slowlog,
	})

	if err := srv.Start(*addr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "kwsd: serving %s on http://%s (POST /query, /batch; GET /healthz, /metrics)\n", *data, srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	fmt.Fprintf(os.Stderr, "kwsd: %s received, draining (budget %s)\n", s, *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "kwsd: drain incomplete, hard-closed: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "kwsd: drained cleanly")
	return 0
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
