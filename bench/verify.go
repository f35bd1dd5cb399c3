package main

// This file holds the output checks that run outside the timed phase.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"time"

	"kwsearch/internal/cn"
	"kwsearch/internal/core"
	"kwsearch/internal/exec"
	"kwsearch/internal/server"
)

// render serializes an answer as rank, score bits and text, the form
// server.RenderResults gives a served answer, so the two compare byte
// for byte.
func render(rs []core.Result) string {
	wire := make([]server.Result, len(rs))
	for i, r := range rs {
		wire[i] = server.Result{Rank: i + 1, Score: r.Score, Text: r.String()}
	}
	return server.RenderResults(wire)
}

// scoreBits is the answer's score sequence, bit for bit.
func scoreBits(rs []core.Result) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = math.Float64bits(r.Score)
	}
	return out
}

// recordBodies posts every distinct query once and returns the served
// bodies, after checking each against an in-process Engine.Query: status
// 200, not partial, ordered, and rank, score bits and text identical.
func (e *env) recordBodies(ctx context.Context) ([][]byte, error) {
	recorded := make([][]byte, len(e.w.queries))
	for q, query := range e.w.queries {
		status, body, err := e.http.post(q, -1)
		if err != nil {
			return nil, fmt.Errorf("%s: reference POST %q: %w", e.sp.name, query, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("%s: reference POST %q: status %d", e.sp.name, query, status)
		}
		recorded[q] = append([]byte(nil), body...)
		var served server.QueryResponse
		if err := json.Unmarshal(body, &served); err != nil {
			return nil, fmt.Errorf("%s: reference body of %q: %w", e.sp.name, query, err)
		}
		resp, err := e.eng.Query(ctx, e.request(q))
		if err != nil {
			return nil, fmt.Errorf("%s: in-process reference %q: %w", e.sp.name, query, err)
		}
		if served.Partial || resp.Partial || !ordered(resp.Results) ||
			server.RenderResults(served.Results) != render(resp.Results) {
			return nil, fmt.Errorf("%s: served answer of %q differs from Engine.Query", e.sp.name, query)
		}
	}
	return recorded, nil
}

// checkAfter runs the checks that follow the timed phase of an engine
// workload over the retained answers and returns how many operations
// failed one:
//
//   - cn_pool and cn_serial answer their shared queries with identical
//     score bits (text may differ among ties at the k boundary), checked
//     by running the first crossChecks operations down the other path;
//   - on the pool path, the first oracleChecks operations that were
//     faster than the workload's median are byte-identical to the scan
//     oracle Exec.TopKSerial.
func (e *env) checkAfter(ctx context.Context, kept []keptOp, lat []time.Duration) int {
	kept = kept[:min(len(kept), len(lat))]
	bad := make([]bool, len(kept))

	if !e.sp.selective {
		other := 2
		if e.sp.workers > 1 {
			other = 0
		}
		for i := 0; i < min(crossChecks, len(kept)); i++ {
			if !kept[i].ok {
				continue
			}
			req := e.request(e.w.ops[i])
			req.Workers = other
			resp, err := e.eng.Query(ctx, req)
			if err != nil || !slices.Equal(scoreBits(resp.Results), scoreBits(kept[i].rs)) {
				bad[i] = true
			}
		}
	}

	if e.sp.workers > 1 {
		median := time.Duration(quantile(millis(lat), 0.5) * float64(time.Millisecond))
		checked := 0
		for i := 0; i < len(kept) && checked < oracleChecks; i++ {
			if !kept[i].ok || lat[i] >= median {
				continue
			}
			checked++
			oracle := e.eng.Exec.TopKSerial(exec.Query{
				Terms: e.eng.Terms(e.w.queries[e.w.ops[i]], false), K: topK, MaxCNSize: maxCNSize,
			})
			if render(fromCN(oracle)) != render(kept[i].rs) {
				bad[i] = true
			}
		}
	}

	n := 0
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n
}

// keptOp is a timed operation's answer, kept for checkAfter; ok is false
// when the operation already failed its inline check.
type keptOp struct {
	rs []core.Result
	ok bool
}

// fromCN converts evaluator results to the engine's public shape.
func fromCN(rs []cn.Result) []core.Result {
	out := make([]core.Result, len(rs))
	for i, r := range rs {
		out[i] = core.Result{Score: r.Score, Tuples: r.Tuples, CN: r.CN}
	}
	return out
}
