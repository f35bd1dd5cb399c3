package server

// This file is the wire schema of the serving layer: the JSON bodies of
// POST /query and POST /batch, the typed error codes clients branch on,
// and the canonical result rendering the tests use to prove served
// answers byte-identical to in-process ones.

import (
	"fmt"
	"math"
	"strings"

	"kwsearch/internal/core"
)

// QueryRequest is the POST /query body. Every field except Query is
// optional; zero values take the engine defaults, exactly as a zero
// core.Request does.
type QueryRequest struct {
	// Query is the raw keyword query (required).
	Query string `json:"query"`
	// Semantics selects the result definition by name: auto (default),
	// cn, spark, banks, steiner, slca, elca.
	Semantics string `json:"semantics,omitempty"`
	// TopK bounds the result count (default 10).
	TopK int `json:"k,omitempty"`
	// MaxCNSize bounds candidate-network size (default 5, at most
	// core.MaxCNSizeLimit, 8: a larger size is a 400 bad_query under the
	// cn and spark semantics).
	MaxCNSize int `json:"max_cn_size,omitempty"`
	// Clean runs noisy-channel query cleaning before searching.
	Clean bool `json:"clean,omitempty"`
	// Workers sets the worker-pool size for cn evaluation; other
	// semantics ignore it.
	Workers int `json:"workers,omitempty"`
	// DeadlineMS is the per-request time budget in milliseconds (0 =
	// server default). An expiring deadline yields a 200 response with
	// "partial": true and the certified prefix computed so far.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace echoes the query's span tree in the response.
	Trace bool `json:"trace,omitempty"`
	// Stats echoes the engine-level stats block in the response.
	Stats bool `json:"stats,omitempty"`
}

// Result is one ranked answer on the wire.
type Result struct {
	Rank  int     `json:"rank"`
	Score float64 `json:"score"`
	Text  string  `json:"text"`
}

// QueryResponse is the POST /query (and per-item /batch) response body.
// On success Results/Partial are set; on failure Error describes the
// problem and Code carries the typed cause. Status mirrors the HTTP
// status so /batch items keep their individual outcome.
type QueryResponse struct {
	Query   string      `json:"query"`
	Status  int         `json:"status"`
	Partial bool        `json:"partial,omitempty"`
	Results []Result    `json:"results,omitempty"`
	Stats   *core.Stats `json:"stats,omitempty"`
	Trace   *core.Trace `json:"trace,omitempty"`
	Error   string      `json:"error,omitempty"`
	Code    string      `json:"code,omitempty"`
}

// BatchRequest is the POST /batch body: up to 64 queries
// executed concurrently, each individually subject to admission control.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchResponse is the POST /batch response: one QueryResponse per input
// query, in input order.
type BatchResponse struct {
	Responses []QueryResponse `json:"responses"`
}

// Typed error codes carried in QueryResponse.Code.
const (
	// CodeBadQuery: the request cannot execute (empty query, unknown
	// semantics, semantics the dataset lacks). HTTP 400.
	CodeBadQuery = "bad_query"
	// CodeOverloaded: admission control shed the query; retry later.
	// HTTP 429 with Retry-After.
	CodeOverloaded = "overloaded"
	// CodeDeadline: the deadline expired while the query was still
	// queued for admission — nothing ran. HTTP 503 with Retry-After.
	CodeDeadline = "deadline"
	// CodeInternal: any other failure. HTTP 500.
	CodeInternal = "internal"
)

// toWireResults converts engine results to the wire shape.
func toWireResults(rs []core.Result) []Result {
	out := make([]Result, 0, len(rs))
	for i, r := range rs {
		out = append(out, Result{Rank: i + 1, Score: r.Score, Text: r.String()})
	}
	return out
}

// RenderResults serializes wire results canonically — rank, raw score
// bits, rendered text — so two answers (one served over HTTP, one from
// an in-process Engine.Query) can be compared byte for byte, and a
// partial answer can be checked as an exact prefix of the full one.
// JSON round-trips float64 exactly (shortest-representation encoding),
// so the score bits survive the wire.
func RenderResults(rs []Result) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%d %016x %s\n", r.Rank, math.Float64bits(r.Score), r.Text)
	}
	return b.String()
}
