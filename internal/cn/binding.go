package cn

import (
	"slices"
	"sort"

	"kwsearch/internal/invindex"
	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
	"kwsearch/internal/text"
)

// termBinding is the index-derived binding of one query term: for each
// relation with matches, the matching tuples (ascending tuple ID — the
// posting-list order) and their TF·IDF weights. It depends only on the
// term (a Binder's index never changes), which is what makes it
// shareable across queries in the Binder's cache.
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

// Binding is one query's keyword→tuple binding: the R^Q sets, term
// masks, tuple scores and max-scores, built either from posting lists
// (bindTerms) or by full table scans (NewScanBinding). It is immutable
// once its constructor returns, so any number of goroutines may evaluate
// over one binding with no warm-up step. The free sets R^{} are not
// held: a free tuple is one outside KeywordBits.
type Binding struct {
	terms []string

	masks     map[relstore.TupleID]uint32
	scores    map[relstore.TupleID]float64
	kwSets    map[string][]*relstore.Tuple
	maxScores map[string]float64
	kwTables  []string // sorted names of tables with a non-empty R^Q
	// kw is the union of the R^Q sets as a bitset: the keyword/free
	// partition test of the join loops.
	kw TupleSet
	// joins is the join table (synchronised; see joinTable), shared with
	// the binder's other bindings or private to this one.
	joins *joinTable

	cachedTerms, builtTerms int
}

// NormalizeTerms applies the shared tokenizer normalization and drops
// empty tokens, preserving order (and duplicates — coverage masks give
// each occurrence its own bit, as the scan path always has). The binder,
// the evaluators and internal/exec all normalize query terms with it.
func NormalizeTerms(terms []string) []string {
	norm := make([]string, 0, len(terms))
	for _, t := range terms {
		if n := text.Normalize(t); n != "" {
			norm = append(norm, n)
		}
	}
	return norm
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
	b := &Binding{terms: norm}
	if binder != nil {
		b.joins = binder.joins
	} else {
		b.joins = newJoinTable(db)
	}

	psp := sp.Child("postings")
	tbs := make([]termBinding, len(norm))
	for i, term := range norm {
		if binder != nil {
			if tb, ok := binder.terms.Get(term); ok {
				tbs[i] = tb
				b.cachedTerms++
				continue
			}
		}
		tbs[i] = buildTermBinding(db, ix, term)
		b.builtTerms++
		if binder != nil {
			binder.terms.Put(term, tbs[i])
			binder.builds.Inc()
		}
	}
	psp.SetAttr("terms", len(norm))
	psp.SetAttr("cached_terms", b.cachedTerms)
	psp.SetAttr("built_terms", b.builtTerms)
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
	b.masks = make(map[relstore.TupleID]uint32, matched)
	b.scores = make(map[relstore.TupleID]float64, matched)
	b.kwSets = make(map[string][]*relstore.Tuple, len(perTable))
	b.maxScores = make(map[string]float64, len(perTable))
	b.kwTables = make([]string, 0, len(perTable))
	b.kw = newTupleSet(db)
	for ti, tb := range tbs {
		bit := uint32(1) << uint(ti)
		for _, r := range tb.rels {
			set := b.kwSets[r.table]
			if set == nil {
				set = make([]*relstore.Tuple, 0, perTable[r.table])
			}
			for i, tp := range r.tuples {
				m := b.masks[tp.ID]
				if m == 0 {
					set = append(set, tp)
					b.kw.add(tp.ID)
				}
				b.masks[tp.ID] = m | bit
				b.scores[tp.ID] += r.weights[i]
			}
			b.kwSets[r.table] = set
		}
	}
	for table, set := range b.kwSets {
		// A tuple matching several terms was appended at its first term;
		// restore global insertion order by ID (IDs rise with insertion).
		slices.SortFunc(set, func(x, y *relstore.Tuple) int { return int(x.ID) - int(y.ID) })
		best := 0.0
		for _, tp := range set {
			if s := b.scores[tp.ID]; s > best {
				best = s
			}
		}
		b.maxScores[table] = best
		b.kwTables = append(b.kwTables, table)
	}
	sort.Strings(b.kwTables)
	msp.SetAttr("matched_tuples", len(b.masks))
	msp.SetAttr("keyword_tables", len(b.kwTables))
	msp.End()
	return b
}

// NewScanBinding builds a Binding the pre-binder way: one full scan of
// every table, collecting the tuples that match a term and scoring them
// through Index.Score. It is the reference implementation the
// index-driven path is asserted byte-identical against (and the oracle
// exec.TopKSerial evaluates with), deliberately kept as an independent
// computation path.
func NewScanBinding(db *relstore.DB, ix *invindex.Index, terms []string) *Binding {
	norm := NormalizeTerms(terms)
	b := &Binding{
		terms:     norm,
		masks:     make(map[relstore.TupleID]uint32),
		scores:    make(map[relstore.TupleID]float64),
		kwSets:    make(map[string][]*relstore.Tuple),
		maxScores: make(map[string]float64),
		kw:        newTupleSet(db),
		joins:     newJoinTable(db),
	}
	for ti, term := range norm {
		for _, doc := range ix.Docs(term) {
			b.masks[relstore.TupleID(doc)] |= 1 << uint(ti)
		}
	}
	for _, name := range db.TableNames() {
		var kw []*relstore.Tuple
		best := 0.0
		for _, tp := range db.Table(name).Tuples() {
			if b.masks[tp.ID] == 0 {
				continue
			}
			kw = append(kw, tp)
			b.kw.add(tp.ID)
			s := ix.Score(norm, invindex.DocID(tp.ID))
			b.scores[tp.ID] = s
			if s > best {
				best = s
			}
		}
		if len(kw) > 0 {
			b.kwSets[name] = kw
			b.kwTables = append(b.kwTables, name)
		}
		b.maxScores[name] = best
	}
	sort.Strings(b.kwTables)
	return b
}

// Terms returns the normalized query terms. Shared; do not mutate.
func (b *Binding) Terms() []string { return b.terms }

// TermsCached and TermsBuilt split the query's terms by whether their
// bindings came from the shared binder cache or were built fresh from
// posting lists (always "built" for one-shot bindings; both 0 for a
// scan binding).
func (b *Binding) TermsCached() int { return b.cachedTerms }

// TermsBuilt reports the terms whose bindings were built on this call.
func (b *Binding) TermsBuilt() int { return b.builtTerms }

// KeywordTables returns the tables with a non-empty R^Q, sorted.
func (b *Binding) KeywordTables() []string {
	return append([]string(nil), b.kwTables...)
}

// KeywordSet returns R^Q for a table, in insertion (ascending ID) order.
func (b *Binding) KeywordSet(table string) []*relstore.Tuple { return b.kwSets[table] }

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

// TermMask returns the query-term bitmask of tuple id: bit i is set when
// the tuple matches Terms()[i]; 0 for a free tuple.
func (b *Binding) TermMask(id relstore.TupleID) uint32 { return b.masks[id] }

// KeywordBits returns the union of every R^Q as a bitset over tuple
// IDs: Has(id) ⇔ TermMask(id) != 0. Shared; do not mutate.
func (b *Binding) KeywordBits() TupleSet { return b.kw }

// Join returns the index of one directed schema join, built on first
// use and shared by every binding on the same join table. The index is
// immutable; the lookup is safe from any number of goroutines.
func (b *Binding) Join(k JoinKey) *JoinIndex { return b.joins.get(k) }
