// Command benchrunner regenerates every experiment in DESIGN.md's index
// (E1-E32 and E38): the tutorial's worked examples with their expected
// values, and summary statistics for the performance-shape experiments
// (whose timing curves come from `go test -bench`). Output is the data
// behind EXPERIMENTS.md. System performance is measured by bench/ (see
// BENCHMARK.json), not here.
//
// Usage:
//
//	benchrunner                # run all experiments
//	benchrunner E5 E10         # run selected experiments
//	benchrunner -obs-overhead  # the verify.sh observability-overhead gate
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// experiment is one runnable reproduction; it prints its table and returns
// an error when a paper-expected value does not reproduce.
type experiment struct {
	id    string
	title string
	run   func() error
}

var experiments []experiment

func register(id, title string, run func() error) {
	experiments = append(experiments, experiment{id: id, title: title, run: run})
}

func main() {
	obsGate := flag.Bool("obs-overhead", false,
		"measure the observability suite's overhead vs obs-off and exit 1 when it exceeds the 5% budget (the verify.sh gate)")
	flag.Parse()
	if *obsGate {
		o, err := measureObservability()
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs-overhead: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("obs-overhead: %.2f%% (budget %.0f%%), baseline %s vs full %s, %d rounds, median of %d engine builds\n",
			o.OverheadPct, obsOverheadBudgetPct,
			time.Duration(o.BaselineNS), time.Duration(o.FullNS), o.Rounds, obsBuilds)
		if o.OverheadPct > obsOverheadBudgetPct {
			fmt.Fprintf(os.Stderr, "obs-overhead: %.2f%% exceeds the %.0f%% budget\n", o.OverheadPct, obsOverheadBudgetPct)
			os.Exit(1)
		}
		if flag.NArg() == 0 {
			return
		}
	}
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	sort.SliceStable(experiments, func(i, j int) bool {
		return expNum(experiments[i].id) < expNum(experiments[j].id)
	})
	failed := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("── %s: %s\n", e.id, e.title)
		if err := e.run(); err != nil {
			failed++
			fmt.Printf("   FAIL: %v\n", err)
		} else {
			fmt.Printf("   ok\n")
		}
		fmt.Println()
	}
	if failed > 0 {
		fmt.Printf("%d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}

func expNum(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

func expect(cond bool, format string, args ...interface{}) error {
	if cond {
		return nil
	}
	return fmt.Errorf(format, args...)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
