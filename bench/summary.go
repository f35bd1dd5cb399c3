package main

// This file compares repeated suites: medians with quartiles, the
// agreement check behind -check, and the history line behind -record.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// declared is the part of BENCHMARK.json the benchmark reads back: the
// bound by which each end-to-end metric may worsen, and which way is
// worse.
type declared struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []declaredMetric             `json:"end_to_end"`
	PerLayer  []declaredMetric             `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readDeclared loads BENCHMARK.json from the repository root, one level
// above the benchmark's directory, where run.sh starts the program.
func readDeclared() (declared, error) {
	var d declared
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return d, nil
}

// values collects one metric of one workload across suites.
func values(suites [][]block, workload, name string) []float64 {
	var out []float64
	for _, blocks := range suites {
		for _, b := range blocks {
			if m, ok := b.Metrics[name]; ok && b.Workload == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// printSummary prints each end-to-end metric's median and quartiles
// over the suites.
func printSummary(w io.Writer, suites [][]block) {
	for _, sp := range specs {
		for _, name := range endToEnd {
			vs := values(suites, sp.name, name)
			fmt.Fprintf(w, "%s %s median %v q1 %v q3 %v runs %d\n",
				sp.name, name, quantile(vs, 0.5), quantile(vs, 0.25), quantile(vs, 0.75), len(vs))
		}
	}
}

// checkAgreement compares the medians of two sets of suites: every
// end-to-end metric of every workload must not be worse in the second
// set than in the first by more than its bound, nor the other way
// round. It prints the observed spread of each.
func checkAgreement(w io.Writer, first, second [][]block) (bool, error) {
	d, err := readDeclared()
	if err != nil {
		return false, err
	}
	agree := true
	for _, sp := range specs {
		for _, dm := range d.EndToEnd {
			a := quantile(values(first, sp.name, dm.Name), 0.5)
			b := quantile(values(second, sp.name, dm.Name), 0.5)
			spread := 0.0
			if lo := min(a, b); lo > 0 {
				spread = (max(a, b) - lo) / lo
			}
			verdict := "ok"
			if spread > dm.Bound {
				verdict = "DISAGREE"
				agree = false
			}
			fmt.Fprintf(w, "check %s %s medians %v %v spread %.4f bound %v %s\n", sp.name, dm.Name, a, b, spread, dm.Bound, verdict)
		}
	}
	return agree, nil
}

// appendHistory appends one line to history.jsonl: the commit label, the
// date, the hardware and each workload's median end-to-end metrics.
func appendHistory(c config, suites [][]block) error {
	medians := map[string]map[string]float64{}
	for _, sp := range specs {
		medians[sp.name] = map[string]float64{}
		for _, name := range endToEnd {
			medians[sp.name][name] = quantile(values(suites, sp.name, name), 0.5)
		}
	}
	line, err := json.Marshal(struct {
		Commit   string                        `json:"commit"`
		Date     string                        `json:"date"`
		Seed     int64                         `json:"seed"`
		Seconds  float64                       `json:"seconds"`
		Suites   int                           `json:"suites"`
		Hardware hardware                      `json:"hardware"`
		Medians  map[string]map[string]float64 `json:"medians"`
	}{c.record, time.Now().UTC().Format("2006-01-02"), c.seed, c.seconds, len(suites), hardwareContext(), medians})
	if err != nil {
		return err
	}
	f, err := os.OpenFile("history.jsonl", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
