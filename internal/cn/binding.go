package cn

import (
	"context"
	"slices"
	"sort"
	"strings"

	"kwsearch/internal/invindex"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
	"kwsearch/internal/text"
)

// termBinding is the index-derived binding of one query term: for each
// relation with matches, the matching tuples (ascending tuple ID — the
// posting-list order) and their TF·IDF weights. It depends only on
// (term, index generation), which is what makes it shareable across
// queries in the Binder's cache.
type termBinding struct {
	rels []termRel
}

// termRel is one relation's slice of a term binding. tuples[i] weighs
// weights[i]; both are immutable once built.
type termRel struct {
	table   string
	tuples  []*relstore.Tuple
	weights []float64
}

// MaxTerms is the most query terms a Binding can tell apart: coverage
// is a uint32 with one bit per term, so a 33rd term would shift out of
// the mask and drop out of the AND. Callers taking queries from outside
// reject longer ones (core.Engine.Query does, as ErrBadQuery).
const MaxTerms = 32

// mergedBinding is the immutable merged product of one query's term
// bindings — everything in a Binding that depends only on (terms,
// generation), not on which CNs later execute. It is what the Binder
// caches per query term list, so a repeated query skips the merge and
// sort entirely; all maps and slices are read-only after construction.
// The keyword bitset is derived from it per Binding and deliberately not
// held here (see keywordBits).
type mergedBinding struct {
	masks     map[relstore.TupleID]uint32
	scores    map[relstore.TupleID]float64
	kwSets    map[string][]*relstore.Tuple
	maxScores map[string]float64
	kwTables  []string
}

// Binding is one query's keyword→tuple binding: the R^Q sets, term
// masks, tuple scores and max-scores, built either from posting lists
// (bindTerms) or by full table scans (NewScanBinding). It implements
// BindSource; see that interface for the snapshot and sealing contract.
type Binding struct {
	db     *relstore.DB
	ix     *invindex.Index
	terms  []string
	binder *Binder // non-nil when term bindings and join indexes are shared

	masks     map[relstore.TupleID]uint32
	scores    map[relstore.TupleID]float64
	kwSets    map[string][]*relstore.Tuple
	maxScores map[string]float64
	kwTables  []string // sorted names of tables with a non-empty R^Q
	// kw is the union of the R^Q sets as a bitset: the keyword/free
	// partition test of the join loops.
	kw TupleSet

	// freeSets and joins memoize the lazy accessors until sealed (the
	// maps themselves are made on first write). joins additionally
	// caches indexes fetched from the shared binder, so sealed
	// concurrent evaluation reads a plain map without locking.
	freeSets map[string][]*relstore.Tuple
	joins    map[JoinKey]*JoinIndex
	sealed   bool

	cachedTerms, builtTerms int
}

// normalizeTerms applies the shared tokenizer normalization and drops
// empty tokens, preserving order (and duplicates — coverage masks give
// each occurrence its own bit, as the scan path always has).
func normalizeTerms(terms []string) []string {
	norm := make([]string, 0, len(terms))
	for _, t := range terms {
		if n := text.Normalize(t); n != "" {
			norm = append(norm, n)
		}
	}
	return norm
}

// newBinding wraps a merged product with fresh per-query state.
func newBinding(db *relstore.DB, ix *invindex.Index, norm []string, binder *Binder, mb *mergedBinding) *Binding {
	return &Binding{
		db: db, ix: ix, terms: norm, binder: binder,
		masks: mb.masks, scores: mb.scores,
		kwSets: mb.kwSets, maxScores: mb.maxScores, kwTables: mb.kwTables,
		kw: keywordBits(db, mb.kwSets),
	}
}

// buildTermBinding derives one term's binding by walking its posting
// list once: resolve each document to its tuple (skipping documents that
// are not tuples of db) and group by relation. Postings arrive in
// ascending DocID order and relstore IDs rise with insertion, so each
// relation's slice lands in insertion order without sorting.
func buildTermBinding(db *relstore.DB, ix *invindex.Index, term string) termBinding {
	ps, ws := ix.TermWeights(term)
	var tb termBinding
	idx := make(map[string]int)
	for i, p := range ps {
		tp := db.TupleByID(relstore.TupleID(p.Doc))
		if tp == nil {
			continue
		}
		j, ok := idx[tp.Table]
		if !ok {
			j = len(tb.rels)
			idx[tp.Table] = j
			tb.rels = append(tb.rels, termRel{table: tp.Table})
		}
		tb.rels[j].tuples = append(tb.rels[j].tuples, tp)
		tb.rels[j].weights = append(tb.rels[j].weights, ws[i])
	}
	return tb
}

// bindTerms builds an index-driven Binding for the (already normalized)
// terms: per-term bindings come from binder's cache when one is given
// (built and stored on miss), then merge into the query's R^Q sets,
// masks and scores. Work is O(total postings of the query terms), never
// O(database size).
//
// The result is byte-identical to the scan path: tuple IDs rise with
// insertion order, so the ID-sorted R^Q sets equal the scan order, and
// scores accumulate per-term weights in term order — each absent term
// contributed an exact 0.0 in the scan path's Σ TFIDF, and x+0.0 == x
// for the non-negative partial sums, so skipping them preserves every
// bit.
//
// The two sub-spans of sp split the work the way traces have always
// reported it: "postings" covers fetching per-term bindings (cache
// probes + posting walks), "materialize" the merge into per-table sets.
func bindTerms(db *relstore.DB, ix *invindex.Index, norm []string, binder *Binder, sp *obs.Span) *Binding {
	// A repeat of the whole query (same normalized term list, current
	// generation) reuses the merged product outright: the binding wraps
	// the cached immutable maps with fresh lazy state.
	var mergedKey string
	if binder != nil {
		mergedKey = strings.Join(norm, "\x00")
		if mb, ok := binder.merged.Get(mergedKey); ok {
			b := newBinding(db, ix, norm, binder, mb)
			b.cachedTerms = len(norm)
			psp := sp.Child("postings")
			psp.SetAttr("terms", len(norm))
			psp.SetAttr("cached_terms", b.cachedTerms)
			psp.SetAttr("built_terms", 0)
			psp.End()
			msp := sp.Child("materialize")
			msp.SetAttr("matched_tuples", len(b.masks))
			msp.SetAttr("keyword_tables", len(b.kwTables))
			msp.End()
			return b
		}
	}

	psp := sp.Child("postings")
	tbs := make([]termBinding, len(norm))
	cached, built := 0, 0
	for i, term := range norm {
		if binder != nil {
			if tb, ok := binder.terms.Get(term); ok {
				tbs[i] = tb
				cached++
				continue
			}
		}
		tbs[i] = buildTermBinding(db, ix, term)
		built++
		if binder != nil {
			binder.terms.Put(term, tbs[i])
			binder.builds.Inc()
		}
	}
	psp.SetAttr("terms", len(norm))
	psp.SetAttr("cached_terms", cached)
	psp.SetAttr("built_terms", built)
	psp.End()

	msp := sp.Child("materialize")
	// Size the merge from the term bindings: the per-tuple maps would
	// otherwise rehash their way up through every insert.
	matched, perTable := 0, make(map[string]int)
	for _, tb := range tbs {
		for _, r := range tb.rels {
			matched += len(r.tuples)
			perTable[r.table] += len(r.tuples)
		}
	}
	mb := &mergedBinding{
		masks:     make(map[relstore.TupleID]uint32, matched),
		scores:    make(map[relstore.TupleID]float64, matched),
		kwSets:    make(map[string][]*relstore.Tuple, len(perTable)),
		maxScores: make(map[string]float64, len(perTable)),
		kwTables:  make([]string, 0, len(perTable)),
	}
	for ti, tb := range tbs {
		bit := uint32(1) << uint(ti)
		for _, r := range tb.rels {
			set := mb.kwSets[r.table]
			if set == nil {
				set = make([]*relstore.Tuple, 0, perTable[r.table])
			}
			for i, tp := range r.tuples {
				m := mb.masks[tp.ID]
				if m == 0 {
					set = append(set, tp)
				}
				mb.masks[tp.ID] = m | bit
				mb.scores[tp.ID] += r.weights[i]
			}
			mb.kwSets[r.table] = set
		}
	}
	for table, set := range mb.kwSets {
		// A tuple matching several terms was appended at its first term;
		// restore global insertion order by ID (IDs rise with insertion).
		slices.SortFunc(set, func(a, b *relstore.Tuple) int { return int(a.ID) - int(b.ID) })
		best := 0.0
		for _, tp := range set {
			if s := mb.scores[tp.ID]; s > best {
				best = s
			}
		}
		mb.maxScores[table] = best
		mb.kwTables = append(mb.kwTables, table)
	}
	sort.Strings(mb.kwTables)
	msp.SetAttr("matched_tuples", len(mb.masks))
	msp.SetAttr("keyword_tables", len(mb.kwTables))
	msp.End()
	if binder != nil {
		binder.merged.Put(mergedKey, mb)
	}
	b := newBinding(db, ix, norm, binder, mb)
	b.cachedTerms, b.builtTerms = cached, built
	return b
}

// NewScanBinding builds a Binding the pre-binder way: one full scan of
// every table, partitioning tuples into R^Q/R^{} and scoring matches
// through Index.Score. It is the reference implementation the
// index-driven path is asserted byte-identical against (and the oracle
// exec.TopKSerial evaluates with), deliberately kept as an independent
// computation path.
func NewScanBinding(db *relstore.DB, ix *invindex.Index, terms []string) *Binding {
	norm := normalizeTerms(terms)
	mb := &mergedBinding{
		masks:     make(map[relstore.TupleID]uint32),
		scores:    make(map[relstore.TupleID]float64),
		kwSets:    make(map[string][]*relstore.Tuple),
		maxScores: make(map[string]float64),
	}
	for ti, term := range norm {
		for _, doc := range ix.Docs(term) {
			mb.masks[relstore.TupleID(doc)] |= 1 << uint(ti)
		}
	}
	freeSets := make(map[string][]*relstore.Tuple)
	for _, name := range db.TableNames() {
		t := db.Table(name)
		var kw, free []*relstore.Tuple
		for _, tp := range t.Tuples() {
			if mb.masks[tp.ID] != 0 {
				kw = append(kw, tp)
			} else {
				free = append(free, tp)
			}
		}
		if len(kw) > 0 {
			mb.kwSets[name] = kw
			mb.kwTables = append(mb.kwTables, name)
		}
		freeSets[name] = free
		best := 0.0
		for _, tp := range kw {
			s := ix.Score(norm, invindex.DocID(tp.ID))
			mb.scores[tp.ID] = s
			if s > best {
				best = s
			}
		}
		mb.maxScores[name] = best
	}
	sort.Strings(mb.kwTables)
	b := newBinding(db, ix, norm, nil, mb)
	b.freeSets = freeSets
	return b
}

// Terms returns the normalized query terms. Shared; do not mutate.
func (b *Binding) Terms() []string { return b.terms }

// TermsCached and TermsBuilt split the query's terms by whether their
// bindings came from the shared binder cache or were built fresh from
// posting lists (always "built" for scan and one-shot bindings).
func (b *Binding) TermsCached() int { return b.cachedTerms }

// TermsBuilt reports the terms whose bindings were built on this call.
func (b *Binding) TermsBuilt() int { return b.builtTerms }

// KeywordTables returns the tables with a non-empty R^Q, sorted.
func (b *Binding) KeywordTables() []string {
	return append([]string(nil), b.kwTables...)
}

// KeywordSet returns R^Q for a table, in insertion (ascending ID) order.
func (b *Binding) KeywordSet(table string) []*relstore.Tuple { return b.kwSets[table] }

// FreeSet returns R^{} for a table, materialized lazily: a table with no
// matching tuple reuses the table's own tuple slice (for text-less link
// tables — the common free fillers — this makes R^{} engine-lifetime
// state, not per-query work), a matched table pays one complement scan,
// memoized until the binding is sealed.
func (b *Binding) FreeSet(table string) []*relstore.Tuple {
	if fs, ok := b.freeSets[table]; ok {
		return fs
	}
	fs := b.computeFreeSet(table)
	if !b.sealed {
		if b.freeSets == nil {
			b.freeSets = make(map[string][]*relstore.Tuple)
		}
		b.freeSets[table] = fs
	}
	return fs
}

func (b *Binding) computeFreeSet(table string) []*relstore.Tuple {
	t := b.db.Table(table)
	if t == nil {
		return nil
	}
	if len(b.kwSets[table]) == 0 {
		return t.Tuples() // nothing matched: R^{} is the whole table
	}
	var free []*relstore.Tuple
	for _, tp := range t.Tuples() {
		if !b.kw.Has(tp.ID) {
			free = append(free, tp)
		}
	}
	return free
}

// MaxNodeScore returns the best tuple score available in table's R^Q.
func (b *Binding) MaxNodeScore(table string) float64 { return b.maxScores[table] }

// TupleScore returns the IR score of tp for the query. Matching tuples
// were scored at construction; every other tuple scores exactly 0 — a
// tuple outside all R^Q sets has TF 0 for each query term, so its
// Σ TFIDF is an exact 0.0 and nothing needs recomputing (the pre-binder
// evaluator silently re-derived that zero through the index on every
// call; assertZeroScore in the tests pins the equivalence).
func (b *Binding) TupleScore(tp *relstore.Tuple) float64 {
	return b.scores[tp.ID] // zero value is the exact score of a free tuple
}

// TermMask returns the query-term bitmask of tuple id (0 = free tuple).
func (b *Binding) TermMask(id relstore.TupleID) uint32 { return b.masks[id] }

// KeywordBits returns the union of every R^Q as a bitset over tuple
// IDs. Shared; do not mutate.
func (b *Binding) KeywordBits() TupleSet { return b.kw }

// Join returns the index of one directed schema join. Indexes come from
// the shared binder when one backs this binding (built once per
// generation, not per query) and are memoized locally until sealed so
// sealed concurrent evaluation never takes the binder's lock.
func (b *Binding) Join(k JoinKey) *JoinIndex {
	if ji, ok := b.joins[k]; ok {
		return ji
	}
	var ji *JoinIndex
	if b.binder != nil {
		ji = b.binder.join(k)
	} else {
		ji = buildJoinIndex(b.db, k)
	}
	if !b.sealed {
		if b.joins == nil {
			b.joins = make(map[JoinKey]*JoinIndex)
		}
		b.joins[k] = ji
	}
	return ji
}

// Prewarm materializes every free set and join index the given CNs can
// touch — both directions of every edge, since a search may start at
// any node — then seals the binding (see BindSource). The posting lists
// are touched too, preserving the old contract that sorts them in place
// before any concurrent reader exists.
func (b *Binding) Prewarm(ctx context.Context, cns []*CN) error {
	for _, term := range b.terms {
		b.ix.Postings(term)
	}
	for _, c := range cns {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, n := range c.Nodes {
			if n.Free {
				b.FreeSet(n.Table)
			}
		}
		for _, k := range c.program().joins {
			b.Join(k)
		}
	}
	b.sealed = true
	return nil
}
