// Package core is the public façade of the library: a keyword-search
// engine over relational or XML data with pluggable result semantics — the
// full pipeline the tutorial describes, from query cleaning through
// structure inference to ranked results.
//
// Relational data is searched under candidate-network semantics (DISCOVER
// joins with IR or SPARK scoring) or graph semantics (distinct-root BANKS
// search, group Steiner trees). XML data is searched under SLCA or ELCA
// semantics with XSeek return-node inference available on the results.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"kwsearch/internal/banks"
	"kwsearch/internal/clean"
	"kwsearch/internal/cn"
	"kwsearch/internal/datagraph"
	"kwsearch/internal/exec"
	"kwsearch/internal/invindex"
	"kwsearch/internal/lca"
	"kwsearch/internal/obs"
	"kwsearch/internal/plan"
	"kwsearch/internal/relstore"
	"kwsearch/internal/resilience"
	"kwsearch/internal/schemagraph"
	"kwsearch/internal/spark"
	"kwsearch/internal/steiner"
	"kwsearch/internal/text"
	"kwsearch/internal/xmltree"
	"kwsearch/internal/xseek"
)

// Semantics selects what a "result" is (the tutorial's Options 1-3 and the
// XML ?LCA family).
type Semantics int

const (
	// Auto selects CandidateNetworks for relational engines and SLCA for
	// XML engines.
	Auto Semantics = iota
	// CandidateNetworks evaluates DISCOVER-style join trees with the
	// monotone IR score.
	CandidateNetworks
	// SparkNetworks evaluates join trees under SPARK's non-monotonic
	// virtual-document score.
	SparkNetworks
	// DistinctRoot runs BANKS-style backward search on the data graph.
	DistinctRoot
	// SteinerTree returns the top-1 group Steiner tree.
	SteinerTree
	// SLCA returns smallest LCAs of an XML tree.
	SLCA
	// ELCA returns exclusive LCAs of an XML tree.
	ELCA
)

// String names the semantics.
func (s Semantics) String() string {
	switch s {
	case Auto:
		return "auto"
	case CandidateNetworks:
		return "cn"
	case SparkNetworks:
		return "spark"
	case DistinctRoot:
		return "banks"
	case SteinerTree:
		return "steiner"
	case SLCA:
		return "slca"
	case ELCA:
		return "elca"
	}
	return fmt.Sprintf("semantics(%d)", int(s))
}

// MarshalJSON encodes the semantics as its String name, so JSON payloads
// (kwsearch -json, BENCH files) stay readable.
func (s Semantics) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// ParseSemantics maps a semantics name (the String form, with "" and
// "auto" both meaning Auto) back to the enum. Unknown names fail with an
// error matching ErrBadQuery, so transport layers can map it straight to
// an invalid-request response.
func ParseSemantics(name string) (Semantics, error) {
	switch name {
	case "", "auto":
		return Auto, nil
	case "cn":
		return CandidateNetworks, nil
	case "spark":
		return SparkNetworks, nil
	case "banks":
		return DistinctRoot, nil
	case "steiner":
		return SteinerTree, nil
	case "slca":
		return SLCA, nil
	case "elca":
		return ELCA, nil
	}
	return Auto, badQuery(fmt.Sprintf("unknown semantics %q", name))
}

// Result is one search answer under any semantics.
type Result struct {
	Score float64
	// Tuples and CN are set under CandidateNetworks/SparkNetworks.
	Tuples []*relstore.Tuple
	CN     *cn.CN
	// Root and Cost are set under DistinctRoot/SteinerTree (Root is the
	// answer root's tuple).
	Root *relstore.Tuple
	Cost float64
	// Node is set under SLCA/ELCA.
	Node *xmltree.Node
}

// String renders a one-line summary for CLIs.
func (r Result) String() string {
	switch {
	case r.CN != nil:
		// Every served answer is rendered here, so the text is built
		// in one buffer: "%.3f  table#id ⋈ …  via CN".
		via := r.CN.String()
		var num [32]byte
		var b strings.Builder
		b.Grow(len(via) + 16 + 24*len(r.Tuples))
		b.Write(strconv.AppendFloat(num[:0], r.Score, 'f', 3, 64))
		b.WriteString("  ")
		for i, tp := range r.Tuples {
			if i > 0 {
				b.WriteString(" ⋈ ")
			}
			b.WriteString(tp.Table)
			b.WriteByte('#')
			b.Write(strconv.AppendInt(num[:0], int64(tp.ID), 10))
		}
		b.WriteString("  via ")
		b.WriteString(via)
		return b.String()
	case r.Root != nil:
		return fmt.Sprintf("cost %.2f  root %s#%d", r.Cost, r.Root.Table, r.Root.ID)
	case r.Node != nil:
		return fmt.Sprintf("%s (%s)", r.Node.LabelPath(), r.Node.Dewey)
	}
	return fmt.Sprintf("score %.3f", r.Score)
}

// Engine searches one dataset. Construct with NewRelational or NewXML.
type Engine struct {
	// Relational side.
	DB     *relstore.DB
	Schema *schemagraph.Graph
	Graph  *datagraph.Graph
	Index  *invindex.Index
	// XML side.
	Tree   *xmltree.Tree
	XIndex *xmltree.Index

	Cleaner *clean.Cleaner
	// FreeTables are the relations allowed as free tuple sets in candidate
	// networks; defaults to the tables without text columns (link tables).
	FreeTables []string

	// Metrics is the engine's metrics registry: the inverted index, the
	// execution layer and its caches surface their counters here, and
	// Query records per-query histograms. Populated by the constructors;
	// internal/server (kwsd) serves it for live inspection.
	Metrics *obs.Registry

	// Exec is the concurrent cached execution layer every
	// CandidateNetworks search runs on; SparkNetworks searches bind and
	// plan through its Plan step. Populated by NewRelational.
	Exec *exec.Executor
	// Binder is the keyword→tuple binding layer Exec binds with: R^Q
	// sets are merged from per-term bindings and join indexes compiled
	// once for the snapshot. Populated by NewRelational; nil on XML
	// engines.
	Binder *cn.Binder
	// Plans is the candidate-network plan cache Exec plans with: a
	// query's compiled CN set depends only on the schema graph and the
	// keyword→relation membership signature, so warm signatures skip
	// enumeration entirely. Populated by NewRelational; nil on XML
	// engines.
	Plans *plan.Cache
	// gate is the admission controller, nil unless Admit installed one.
	gate *resilience.Gate
	// slowlog is the tail-sampling slow-query log, nil unless SetSlowLog
	// installed one. With it installed, every query runs a cheap trace
	// and slow/errored/shed/partial queries are retained as exemplars.
	slowlog *obs.SlowLog
}

// Registry returns the engine's metrics registry — the method form of
// the Metrics field, as the Searcher seam requires.
func (e *Engine) Registry() *obs.Registry { return e.Metrics }

// NewRelational builds an engine over a relational database, which must
// not change afterwards: the engine indexes it once, compiles every term
// binding and join index once, and caches results and plans that are
// never recomputed. To serve new data, build a new engine.
func NewRelational(db *relstore.DB) *Engine {
	ix := invindex.FromDB(db)
	reg := obs.NewRegistry()
	e := &Engine{
		DB:      db,
		Schema:  schemagraph.FromDB(db),
		Graph:   datagraph.FromDB(db, nil),
		Index:   ix,
		Cleaner: clean.NewCleaner(ix),
		Metrics: reg,
	}
	for _, name := range db.TableNames() {
		hasText := false
		for _, c := range db.Table(name).Schema.Columns {
			if c.Text {
				hasText = true
				break
			}
		}
		if !hasText {
			e.FreeTables = append(e.FreeTables, name)
		}
	}
	e.Plans = plan.New(plan.Options{Metrics: reg})
	e.Binder = cn.NewBinder(db, ix)
	e.Exec = exec.New(db, ix, exec.Options{
		FreeTables: e.FreeTables, Metrics: reg, Plans: e.Plans, Binder: e.Binder,
	})
	// Instrumented last, so the index counters count query work only,
	// not the binder compiling every term.
	ix.Instrument(reg, "invindex")
	return e
}

// NewXML builds an engine over an XML tree.
func NewXML(tree *xmltree.Tree) *Engine {
	xix := xmltree.NewIndex(tree)
	rix := invindex.New()
	for _, n := range tree.Nodes() {
		if n.Value != "" {
			rix.Add(invindex.DocID(n.ID), n.Value)
		}
	}
	reg := obs.NewRegistry()
	rix.Instrument(reg, "invindex")
	return &Engine{Tree: tree, XIndex: xix, Cleaner: clean.NewCleaner(rix), Metrics: reg}
}

// Terms tokenizes (and optionally cleans) the query.
func (e *Engine) Terms(query string, doClean bool) []string {
	if doClean && e.Cleaner != nil {
		return e.Cleaner.Clean(query).Tokens()
	}
	return text.Tokenize(query)
}

func (e *Engine) requireRelational() error {
	if e.DB == nil {
		return badQuery("semantics requires a relational engine")
	}
	return nil
}

// cnResults converts evaluator results to the public shape.
func cnResults(rs []cn.Result) []Result {
	var out []Result
	for _, r := range rs {
		out = append(out, Result{Score: r.Score, Tuples: r.Tuples, CN: r.CN})
	}
	return out
}

// searchCN answers a CandidateNetworks query on the exec worker pool —
// the one evaluation path for that semantics. Workers <= 1 is a pool of
// one goroutine draining the same queue, so the answer (ties at the k
// boundary included) is the same at every pool size.
func (e *Engine) searchCN(ctx context.Context, terms []string, req Request, sp *obs.Span, st *Stats) ([]Result, error) {
	if err := e.requireRelational(); err != nil {
		return nil, err
	}
	rs, xst, err := e.Exec.TopK(ctx, exec.Query{
		Terms: terms, K: req.TopK, MaxCNSize: req.MaxCNSize, Workers: req.Workers, Trace: sp,
	})
	st.Exec = &xst
	st.PlanSignature = xst.PlanKey
	if err != nil {
		// rs is the certified prefix (possibly empty); Query decides
		// whether the error becomes a partial response.
		return cnResults(rs), err
	}
	out := cnResults(rs)
	rankSpan(sp, len(out))
	return out, nil
}

// searchSpark answers a SparkNetworks query: the executor's bind and
// plan step (exec.Executor.Plan, over the shared binder and plan cache)
// feeds spark.TopK, which evaluates every CN exactly because the exec
// pool's bound pruning does not cover SPARK's non-monotonic score. SPARK
// keeps only total, minimal rows too, so it shares the CN path's plans.
// An interrupted query has no certified prefix: it returns no results
// and ctx's error.
func (e *Engine) searchSpark(ctx context.Context, terms []string, req Request, sp *obs.Span, st *Stats) ([]Result, error) {
	if err := e.requireRelational(); err != nil {
		return nil, err
	}
	b, ps, _, err := e.Exec.Plan(ctx, terms, req.MaxCNSize, sp)
	if err != nil {
		return nil, err
	}
	if ps == nil { // a term with no postings: AND semantics answers nothing
		rankSpan(sp, 0)
		return nil, nil
	}
	cns := ps.CNs() // immutable, share-safe: evaluation is read-only
	st.PlanSignature = ps.Key()
	vsp := sp.Child("evaluate")
	rs, err := spark.TopK(ctx, spark.NewScorer(b, e.Index), cns, req.TopK)
	vsp.SetAttr("cns", len(cns))
	if err != nil {
		vsp.SetAttr("cancelled", true)
		vsp.End()
		return nil, err
	}
	vsp.SetAttr("produced", len(rs))
	vsp.End()
	rankSpan(sp, len(rs))
	return cnResults(rs), nil
}

// rankSpan emits the terminal "rank" stage span: result conversion and
// final ordering (already done by the evaluation layers, which return
// sorted answers — the span records the merge point and result count).
func rankSpan(sp *obs.Span, results int) {
	rsp := sp.Child("rank")
	rsp.SetAttr("results", results)
	rsp.End()
}

// keywordGroups maps terms to data-graph node groups; ok is false when a
// term has no matches (AND semantics: no results).
func (e *Engine) keywordGroups(terms []string) ([][]datagraph.NodeID, bool) {
	groups := make([][]datagraph.NodeID, len(terms))
	for i, t := range terms {
		for _, d := range e.Index.Docs(t) {
			groups[i] = append(groups[i], datagraph.NodeID(d))
		}
		if len(groups[i]) == 0 {
			return nil, false
		}
	}
	return groups, true
}

// groupsSpan runs keywordGroups under a "lookup" child span recording the
// group count and total matched nodes.
func (e *Engine) groupsSpan(sp *obs.Span, terms []string) ([][]datagraph.NodeID, bool) {
	lsp := sp.Child("lookup")
	groups, ok := e.keywordGroups(terms)
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	lsp.SetAttr("terms", len(terms))
	lsp.SetAttr("matches", total)
	lsp.End()
	return groups, ok
}

func (e *Engine) searchBanks(ctx context.Context, terms []string, req Request, sp *obs.Span) ([]Result, error) {
	if err := e.requireRelational(); err != nil {
		return nil, err
	}
	groups, ok := e.groupsSpan(sp, terms)
	if !ok {
		return nil, nil
	}
	xsp := sp.Child("expand")
	answers, bst, err := banks.BackwardSearchCtx(ctx, e.Graph, groups, banks.Options{K: req.TopK})
	bst.Record(xsp)
	if err != nil {
		xsp.SetAttr("cancelled", true)
	}
	xsp.End()
	var out []Result
	for _, a := range answers {
		out = append(out, Result{
			Score: 1 / (1 + a.Cost),
			Cost:  a.Cost,
			Root:  e.DB.TupleByID(relstore.TupleID(a.Root)),
		})
	}
	if err != nil {
		return out, err // best-effort partials travel with the error
	}
	rankSpan(sp, len(out))
	return out, nil
}

func (e *Engine) searchSteiner(ctx context.Context, terms []string, sp *obs.Span) ([]Result, error) {
	if err := e.requireRelational(); err != nil {
		return nil, err
	}
	groups, ok := e.groupsSpan(sp, terms)
	if !ok {
		return nil, nil
	}
	xsp := sp.Child("expand")
	tree, found, err := steiner.GroupSteinerCtx(ctx, e.Graph, groups)
	if err != nil {
		xsp.SetAttr("cancelled", true)
		xsp.End()
		return nil, err
	}
	xsp.SetAttr("found", found)
	if found {
		xsp.SetAttr("cost", tree.Cost)
		xsp.SetAttr("nodes", len(tree.Nodes()))
	}
	xsp.End()
	if !found {
		rankSpan(sp, 0)
		return nil, nil
	}
	r := Result{
		Score: 1 / (1 + tree.Cost),
		Cost:  tree.Cost,
		Root:  e.DB.TupleByID(relstore.TupleID(tree.Root)),
	}
	for _, n := range tree.Nodes() {
		r.Tuples = append(r.Tuples, e.DB.TupleByID(relstore.TupleID(n)))
	}
	rankSpan(sp, 1)
	return []Result{r}, nil
}

func (e *Engine) searchXML(ctx context.Context, terms []string, req Request, sp *obs.Span) ([]Result, error) {
	if e.XIndex == nil {
		return nil, badQuery(fmt.Sprintf("semantics %v requires an XML engine", req.Semantics))
	}
	// The serial LCA algorithms are not context-aware; honoring ctx at
	// the stage boundary still stops an expired query before the scan.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vsp := sp.Child("evaluate")
	var nodes []*xmltree.Node
	var err error
	switch {
	case req.Semantics == ELCA:
		vsp.SetAttr("algorithm", "elca-stack")
		nodes = lca.ELCAStack(e.XIndex, terms, vsp)
	case req.Workers > 1:
		// Workers arrives unvalidated from outside (POST /query
		// "workers"), and SLCAParallel starts one goroutine per range up
		// to the anchor count: more ranges than cores buy nothing.
		vsp.SetAttr("algorithm", "slca-parallel")
		nodes, err = lca.SLCAParallel(ctx, e.XIndex, terms, min(req.Workers, runtime.GOMAXPROCS(0)), vsp)
	default:
		vsp.SetAttr("algorithm", "slca-ile")
		nodes = lca.SLCA(e.XIndex, terms, vsp)
	}
	vsp.End()
	if err != nil {
		return nil, err // SLCA has no sound partial answer (see lca docs)
	}
	// Rank results by subtree compactness (smaller, deeper subtrees
	// first), the default XML ranking heuristic.
	sort.SliceStable(nodes, func(i, j int) bool {
		si, sj := len(xmltree.Subtree(nodes[i])), len(xmltree.Subtree(nodes[j]))
		if si != sj {
			return si < sj
		}
		return nodes[i].ID < nodes[j].ID
	})
	var out []Result
	for i, n := range nodes {
		if i >= req.TopK {
			break
		}
		out = append(out, Result{Score: 1 / float64(1+len(xmltree.Subtree(n))), Node: n})
	}
	rankSpan(sp, len(out))
	return out, nil
}

// ReturnNodes applies XSeek inference to an XML result (slide 51).
func (e *Engine) ReturnNodes(terms []string, result *xmltree.Node) []xseek.ReturnNode {
	if e.Tree == nil {
		return nil
	}
	cats := xseek.Classify(e.Tree)
	qa := xseek.AnalyzeQuery(e.Tree, terms)
	return xseek.InferReturnNodes(e.Tree, cats, qa, result)
}
