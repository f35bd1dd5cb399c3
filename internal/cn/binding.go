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
// relation with matches, the matching tuple IDs (ascending, the
// posting-list order) and their TF·IDF weights. It depends only on the
// term, so NewBinder builds one per vocabulary term and every query
// shares it.
type termBinding struct {
	rels []termRel
}

// termRel is one relation's slice of a term binding. ids[i] weighs
// weights[i]; both are immutable once built.
type termRel struct {
	table   string
	ids     []relstore.TupleID
	weights []float64
}

// MaxTerms is the most query terms a Binding can tell apart: coverage
// is a uint32 with one bit per term, so a 33rd term would shift out of
// the mask and drop out of the AND. Callers taking queries from outside
// reject longer ones (core.Engine.Query does, as ErrBadQuery).
const MaxTerms = 32

// Binding is one query's keyword→tuple binding and the evaluator over
// it: the R^Q sets, term masks, tuple scores and max-scores, built
// either from posting lists (bindTerms) or by full table scans
// (NewScanBinding), plus the search and level-wise kernels and the top-k
// bound that run on them. It is immutable once its constructor returns,
// so any number of goroutines may evaluate over one binding with no
// warm-up step. The free sets R^{} are not held: a free tuple is one
// outside kw.
type Binding struct {
	db    *relstore.DB
	terms []string

	masks     map[relstore.TupleID]uint32 // bit i: the tuple matches terms[i]
	scores    map[relstore.TupleID]float64
	kwSets    map[string][]*relstore.Tuple
	maxScores map[string]float64
	kwTables  []string // sorted names of tables with a non-empty R^Q
	// kw is the union of the R^Q sets as a bitset: the keyword/free
	// partition test of the join loops (kw.Has(id) ⇔ masks[id] != 0).
	kw TupleSet
	// joins is the binder's read-only join-index map, shared by every
	// binding it makes.
	joins map[JoinKey]*JoinIndex
}

// NewEvaluatorFrom returns b. It is kept, with its signature, only
// because the repository benchmark (bench/) calls it; every other
// caller evaluates on the Binding directly.
func NewEvaluatorFrom(_ *relstore.DB, _ *invindex.Index, b *Binding) *Binding { return b }

// NormalizeTerms applies the shared tokenizer normalization and drops
// empty tokens, preserving order (and duplicates — coverage masks give
// each occurrence its own bit, as the scan path always has). The binder
// and internal/exec both normalize query terms with it.
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
// relation's slice lands in insertion order without sorting. The binder
// keeps the binding for its lifetime, so the slices are copied to their
// length, without append's slack.
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
		tb.rels[j].ids = append(tb.rels[j].ids, tp.ID)
		tb.rels[j].weights = append(tb.rels[j].weights, ws[i])
	}
	for j := range tb.rels {
		r := &tb.rels[j]
		r.ids, r.weights = slices.Clone(r.ids), slices.Clone(r.weights)
	}
	return tb
}

// bindTerms builds an index-driven Binding for the (already normalized)
// terms: their compiled term bindings merge into the query's R^Q sets,
// masks and scores. Work is O(total postings of the query terms), never
// O(database size); a term outside the vocabulary binds nothing.
//
// The result is byte-identical to the scan path: tuple IDs rise with
// insertion order, so the ID-sorted R^Q sets equal the scan order, and
// scores accumulate per-term weights in term order — each absent term
// contributed an exact 0.0 in the scan path's Σ TFIDF, and x+0.0 == x
// for the non-negative partial sums, so skipping them preserves every
// bit.
func bindTerms(bd *Binder, norm []string, sp *obs.Span) *Binding {
	db := bd.db
	b := &Binding{db: db, terms: norm, joins: bd.joins}
	tbs := make([]termBinding, len(norm))
	for i, term := range norm {
		tbs[i] = bd.terms[term]
	}

	// Size the merge from the term bindings: the per-tuple maps would
	// otherwise rehash their way up through every insert.
	matched, perTable := 0, make(map[string]int)
	for _, tb := range tbs {
		for _, r := range tb.rels {
			matched += len(r.ids)
			perTable[r.table] += len(r.ids)
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
			for i, id := range r.ids {
				m := b.masks[id]
				if m == 0 {
					set = append(set, db.TupleByID(id))
					b.kw.add(id)
				}
				b.masks[id] = m | bit
				b.scores[id] += r.weights[i]
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
	sp.SetAttr("matched_tuples", len(b.masks))
	return b
}

// NewScanBinding builds a Binding the pre-binder way: one full scan of
// bd's tables, collecting the tuples that match a term and scoring them
// through Index.Score. It is the reference implementation the
// index-driven path is asserted byte-identical against (and the oracle
// exec.TopKSerial evaluates with), deliberately kept as an independent
// computation path; only the join indexes, which both share, come from
// bd.
func NewScanBinding(bd *Binder, terms []string) *Binding {
	db, ix := bd.db, bd.ix
	norm := NormalizeTerms(terms)
	b := &Binding{
		db:        db,
		terms:     norm,
		masks:     make(map[relstore.TupleID]uint32),
		scores:    make(map[relstore.TupleID]float64),
		kwSets:    make(map[string][]*relstore.Tuple),
		maxScores: make(map[string]float64),
		kw:        newTupleSet(db),
		joins:     bd.joins,
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

// KeywordTables returns the tables with a non-empty R^Q, sorted.
func (b *Binding) KeywordTables() []string {
	return append([]string(nil), b.kwTables...)
}

// KeywordSet returns R^Q for a table, in insertion (ascending ID) order.
func (b *Binding) KeywordSet(table string) []*relstore.Tuple { return b.kwSets[table] }

// FreeSetSize returns |R^{}| for a table: its tuples outside R^Q.
func (b *Binding) FreeSetSize(table string) int {
	return b.db.Table(table).Len() - len(b.kwSets[table])
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

// join returns the index of one directed schema join, shared by every
// binding of the binder. A join outside the schema yields an index in
// which nothing joins. The index is immutable; the lookup is safe from
// any number of goroutines.
func (b *Binding) join(k JoinKey) *JoinIndex {
	if ji := b.joins[k]; ji != nil {
		return ji
	}
	return &noJoins
}
