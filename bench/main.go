// Command bench is the repository's benchmark: four workloads over the
// relational keyword-search engine, five end-to-end metrics each, and a
// traced run that attributes a query's time to the layers between the
// socket and the candidate-network join. README.md has the rationale.
//
//	bash bench/run.sh -seed 1              every workload, each in a fresh process
//	bash bench/run.sh -seed 1 -trace 1     the per-layer metrics instead
//	bash bench/run.sh -workload cn_pool -seed 3 -seconds 20 -trace 0
//	                                       one run, as BENCHMARK.json's driver makes it
//	bash bench/run.sh -repeat 5            medians and quartiles over five suites
//	bash bench/run.sh -check               two sets of three suites must agree
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// endToEnd names the end-to-end metrics in the order they are printed.
var endToEnd = []string{"setup_s", "throughput_qps", "query_p50_ms", "query_p99_ms", "heap_live_mb"}

// hardware is the context every recorded number carries.
type hardware struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hardwareContext() hardware {
	hw := hardware{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				hw.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return hw
}

// cpuTicks reads the machine's total and stolen CPU time from
// /proc/stat. On a virtual machine whose host is oversubscribed the
// stolen share is what makes two runs of one binary disagree.
func cpuTicks() (total, stolen int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64) // a field that is no number counts as 0
		total += v
		if i == 7 {
			stolen = v
		}
	}
	return total, stolen
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	repeat   int
	check    bool
	record   string
	timeout  time.Duration
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var c config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "run this one workload in this process (default: all, each in a fresh child process)")
	fs.Int64Var(&c.seed, "seed", 1, "seed of the data set and the operation lists")
	fs.Float64Var(&c.seconds, "seconds", 0, "length of the timed phase in seconds (0: each workload's whole operation list)")
	fs.IntVar(&c.trace, "trace", 0, "1: report the per-layer metrics from a traced run instead of the end-to-end metrics")
	fs.BoolVar(&c.quick, "quick", false, "about 1/50 of every count on the x1 data set (smoke test)")
	fs.IntVar(&c.repeat, "repeat", 1, "run the whole suite this many times and report medians with quartiles")
	fs.BoolVar(&c.check, "check", false, "run two sets of three suites; fail unless their medians agree within BENCHMARK.json's bounds")
	fs.StringVar(&c.record, "record", "", "append the suite's medians to history.jsonl under this commit label")
	fs.DurationVar(&c.timeout, "timeout", 10*time.Minute, "abort a workload after this long and count its remaining operations as failed")
	fs.StringVar(&c.outDir, "out", "out", "directory for results.json and the span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || c.trace < 0 || c.trace > 1 || c.repeat < 1 || c.seconds < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if c.workload != "" {
		return runOne(c, stdout, stderr)
	}
	return runSuites(c, stdout, stderr)
}

// runOne runs one workload in this process, prints one line per metric
// and, last, the result as one JSON object.
func runOne(c config, stdout, stderr io.Writer) int {
	sp, ok := specByName(c.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", c.workload)
		return 2
	}
	if c.quick {
		sp = sp.quick()
	}
	o := options{seed: c.seed, seconds: time.Duration(c.seconds * float64(time.Second)), outDir: c.outDir}

	// The watchdog: a workload that overruns is reported with its
	// remaining operations failed, and the process exits non-zero.
	var prog progress
	watchdog := time.AfterFunc(c.timeout, func() {
		limit := max(prog.limit.Load(), 1)
		res := result{Attempted: int(limit), Failed: int(max(limit-prog.done.Load()+prog.failed.Load(), 1)), Metrics: map[string]metric{}}
		fmt.Fprintf(stderr, "bench: %s aborted after %v\n", sp.name, c.timeout)
		printResult(stdout, sp.name, res)
		os.Exit(3)
	})
	defer watchdog.Stop()

	total0, stolen0 := cpuTicks()
	var res result
	var err error
	if c.trace == 1 {
		res, err = runTraced(context.Background(), sp, o, &prog)
	} else {
		res, err = runEndToEnd(context.Background(), sp, o, &prog)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	watchdog.Stop()
	if total, stolen := cpuTicks(); total > total0 && 20*(stolen-stolen0) > total-total0 {
		fmt.Fprintf(stderr, "bench: %s: the host took %.0f%% of this machine's CPU time during the run; its timings are suspect\n",
			sp.name, 100*float64(stolen-stolen0)/float64(total-total0))
	}
	printResult(stdout, sp.name, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints "workload metric value unit" per metric, then the
// sample count, then the JSON result line.
func printResult(w io.Writer, workload string, res result) {
	names := append([]string(nil), endToEnd...)
	for _, lm := range layerMetrics {
		names = append(names, lm.name)
	}
	for _, name := range names {
		if m, ok := res.Metrics[name]; ok {
			fmt.Fprintf(w, "%s %s %v %s\n", workload, name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%s samples %d count\n", workload, res.Attempted)
	fmt.Fprintf(w, "%s failed_share %v share\n", workload, float64(res.Failed)/float64(max(res.Attempted, 1)))
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a result holds only numbers and strings
	}
	fmt.Fprintf(w, "%s\n", line)
}

// block is one workload's result as results.json and history.jsonl keep
// it, stamped with the hardware it was measured on.
type block struct {
	Workload string   `json:"workload"`
	Hardware hardware `json:"hardware"`
	result
}

// runChild runs one workload in a fresh child process, so that no
// workload measures on the heap another left behind, and passes its
// metric lines through.
func runChild(c config, workload string, stdout, stderr io.Writer) (block, error) {
	self, err := os.Executable()
	if err != nil {
		return block{}, err
	}
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds),
		"-trace", fmt.Sprint(c.trace), "-timeout", c.timeout.String(), "-out", c.outDir,
	}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	b := block{Workload: workload, Hardware: hardwareContext()}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &b.result); err != nil {
		if runErr != nil {
			return b, fmt.Errorf("%s: no result: %w", workload, runErr)
		}
		return b, fmt.Errorf("%s: last output line is not a result: %w", workload, err)
	}
	for _, line := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, line)
	}
	return b, nil
}

// runSuite runs every workload once.
func runSuite(c config, stdout, stderr io.Writer) ([]block, error) {
	var blocks []block
	for _, sp := range specs {
		b, err := runChild(c, sp.name, stdout, stderr)
		if err != nil {
			return blocks, err
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// runSuites is the parent process: it runs the suite once, -repeat
// times, or as the two sets of -check, writes results.json and exits
// non-zero when any output check failed.
func runSuites(c config, stdout, stderr io.Writer) int {
	n := c.repeat
	if c.check {
		n = 6
	}
	var suites [][]block
	ok := true
	for i := 0; i < n; i++ {
		blocks, err := runSuite(c, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for _, b := range blocks {
			ok = ok && b.Correct
		}
		suites = append(suites, blocks)
	}
	out := struct {
		Seed     int64     `json:"seed"`
		Seconds  float64   `json:"seconds"`
		Quick    bool      `json:"quick"`
		Hardware hardware  `json:"hardware"`
		Suites   [][]block `json:"suites"`
	}{c.seed, c.seconds, c.quick, hardwareContext(), suites}
	data, err := json.MarshalIndent(out, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(c.outDir, "results.json"), data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if n > 1 && c.trace == 0 {
		printSummary(stdout, suites)
	}
	if c.check && c.trace == 0 {
		agree, err := checkAgreement(stdout, suites[:3], suites[3:])
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		ok = ok && agree
	}
	if c.record != "" && c.trace == 0 {
		if err := appendHistory(c, suites); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}
