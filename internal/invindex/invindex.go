// Package invindex implements an inverted index with TF/IDF statistics over
// arbitrary documents (relational tuples, XML subtrees, form descriptions).
// It is the IR substrate for keyword matching, SPARK-style scoring, data
// clouds and form ranking.
package invindex

import (
	"math"
	"slices"
	"sort"

	"kwsearch/internal/obs"
	"kwsearch/internal/relstore"
	"kwsearch/internal/text"
)

// DocID identifies an indexed document. When indexing a relstore database,
// DocID equals the tuple's global relstore.TupleID.
type DocID int32

// Posting records one (document, term frequency) pair.
type Posting struct {
	Doc DocID
	TF  int32
}

// Index is an append-only inverted index.
type Index struct {
	postings map[string][]Posting
	docLen   map[DocID]int
	totalLen int64
	numDocs  int

	// instr counters are nil until Instrument is called; obs counters
	// no-op on nil, so un-instrumented indexes pay one branch per event.
	lookups         *obs.Counter
	postingsScanned *obs.Counter
	gallopPicks     *obs.Counter
	mergePicks      *obs.Counter
}

// Instrument surfaces the index's work counters in reg:
// "<prefix>.lookups" (posting-list reads through Postings or Docs),
// ".postings_scanned" (postings those reads returned),
// ".intersect_gallop" and ".intersect_merge" (which pairwise
// intersection path IntersectLists chose). DF, TF, IDF, HasTerm, TFIDF
// and TermWeights count nothing. Call before concurrent use.
func (ix *Index) Instrument(reg *obs.Registry, prefix string) {
	ix.lookups = reg.Counter(prefix + ".lookups")
	ix.postingsScanned = reg.Counter(prefix + ".postings_scanned")
	ix.gallopPicks = reg.Counter(prefix + ".intersect_gallop")
	ix.mergePicks = reg.Counter(prefix + ".intersect_merge")
}

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[string][]Posting),
		docLen:   make(map[DocID]int),
	}
}

// Add tokenizes content and indexes it under doc. Calling Add twice with
// the same doc extends that document. Every posting list stays in
// ascending Doc order with one posting per document, so readers never
// sort: documents normally arrive once each in increasing order and are
// appended; an out-of-order or repeated doc pays a binary search and,
// when new to the list, an insert.
func (ix *Index) Add(doc DocID, content string) {
	toks := text.Tokenize(content)
	if _, seen := ix.docLen[doc]; !seen {
		ix.numDocs++
	}
	ix.docLen[doc] += len(toks)
	ix.totalLen += int64(len(toks))
	counts := make(map[string]int32, len(toks))
	for _, t := range toks {
		counts[t]++
	}
	for t, c := range counts {
		list := ix.postings[t]
		if n := len(list); n == 0 || list[n-1].Doc < doc {
			ix.postings[t] = append(list, Posting{Doc: doc, TF: c})
			continue
		}
		// The last posting is at or past doc, so i is in range.
		i := sort.Search(len(list), func(i int) bool { return list[i].Doc >= doc })
		if list[i].Doc == doc {
			list[i].TF += c
		} else {
			ix.postings[t] = slices.Insert(list, i, Posting{Doc: doc, TF: c})
		}
	}
}

// FromDB indexes every tuple of db by its text columns.
func FromDB(db *relstore.DB) *Index {
	ix := New()
	for _, name := range db.TableNames() {
		t := db.Table(name)
		for _, tp := range t.Tuples() {
			if s := tp.Text(t.Schema); s != "" {
				ix.Add(DocID(tp.ID), s)
			}
		}
	}
	return ix
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.numDocs }

// DocLen returns the token count of doc.
func (ix *Index) DocLen(doc DocID) int { return ix.docLen[doc] }

// AvgDocLen returns the mean document length.
func (ix *Index) AvgDocLen() float64 {
	if ix.numDocs == 0 {
		return 0
	}
	return float64(ix.totalLen) / float64(ix.numDocs)
}

// Postings returns the posting list of term, ascending by DocID (Add
// keeps it so). It is a lookup that writes nothing but its counters, so
// concurrent readers need no warm-up. The slice is shared; callers must
// not mutate it.
func (ix *Index) Postings(term string) []Posting {
	list := ix.list(term)
	ix.lookups.Inc()
	ix.postingsScanned.Add(uint64(len(list)))
	return list
}

// list is Postings without the counters, for the statistics that read
// a posting list without scanning it for the caller.
func (ix *Index) list(term string) []Posting { return ix.postings[text.Normalize(term)] }

// Docs returns just the document IDs matching term, sorted.
func (ix *Index) Docs(term string) []DocID {
	ps := ix.Postings(term)
	out := make([]DocID, len(ps))
	for i, p := range ps {
		out[i] = p.Doc
	}
	return out
}

// DF returns the document frequency of term.
func (ix *Index) DF(term string) int { return len(ix.list(term)) }

// TF returns the term frequency of term in doc (0 if absent).
func (ix *Index) TF(term string, doc DocID) int {
	ps := ix.list(term)
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= doc })
	if i < len(ps) && ps[i].Doc == doc {
		return int(ps[i].TF)
	}
	return 0
}

// IDF returns ln((N+1)/(df+1)) + 1, a smoothed inverse document frequency
// that stays positive for ubiquitous terms.
func (ix *Index) IDF(term string) float64 {
	return math.Log(float64(ix.numDocs+1)/float64(ix.DF(term)+1)) + 1
}

// Terms returns all indexed terms, sorted.
func (ix *Index) Terms() []string {
	out := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// HasTerm reports whether the term occurs in the corpus.
func (ix *Index) HasTerm(term string) bool { return ix.DF(term) > 0 }

// tfWeight is the log-scaled term-frequency factor 1+ln(tf), shared by
// TFIDF and TermWeights so per-term accumulation of weights reproduces
// Score bit-for-bit.
func tfWeight(tf int32) float64 { return 1 + math.Log(float64(tf)) }

// TFIDF returns the TF·IDF weight of term in doc with log-scaled TF:
// (1+ln(tf))·idf, or 0 when absent.
func (ix *Index) TFIDF(term string, doc DocID) float64 {
	tf := ix.TF(term, doc)
	if tf == 0 {
		return 0
	}
	return tfWeight(int32(tf)) * ix.IDF(term)
}

// TermWeights returns term's posting list together with each posting's
// TF·IDF weight — one pass over the list instead of a binary search per
// document, which is what makes index-driven keyword binding O(matched
// tuples). The weight expression is exactly TFIDF's, so summing a
// document's weights over the query terms (in term order) yields the
// same float64 bits as Score. The posting slice is shared; callers must
// not mutate it.
func (ix *Index) TermWeights(term string) ([]Posting, []float64) {
	ps := ix.list(term)
	if len(ps) == 0 {
		return ps, nil
	}
	idf := ix.IDF(term)
	ws := make([]float64, len(ps))
	for i, p := range ps {
		ws[i] = tfWeight(p.TF) * idf
	}
	return ps, ws
}

// Score sums TFIDF over the query terms for doc — the basic vector-space
// relevance used as a building block by the ranking packages.
func (ix *Index) Score(queryTerms []string, doc DocID) float64 {
	s := 0.0
	for _, t := range queryTerms {
		s += ix.TFIDF(t, doc)
	}
	return s
}

// GallopCrossover is the list-length ratio past which Intersect switches
// from the linear merge to galloping: when |large|/|small| meets or
// exceeds it, the O(|small|·log|large|) exponential search wins over the
// O(|small|+|large|) merge. The value was measured with
// BenchmarkIntersectGallopVsMerge (bench_test.go): on this container the
// crossover sits between ratio 4 and 16, and 8 is the conservative
// midpoint — merge keeps its streaming advantage below it.
const GallopCrossover = 8

// IntersectMerge intersects two sorted, duplicate-free DocID lists by
// linear merge — the baseline that wins when the lists have comparable
// lengths.
func IntersectMerge(a, b []DocID) []DocID {
	var out []DocID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// gallopSearch returns the first index k >= lo with list[k] >= target,
// probing at exponentially growing strides from lo before binary-searching
// the bracketed range — O(log distance) rather than O(log |list|), which
// is what makes skewed intersections cheap.
func gallopSearch(list []DocID, lo int, target DocID) int {
	if lo >= len(list) || list[lo] >= target {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < len(list) && list[hi] < target {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(list) {
		hi = len(list)
	}
	return lo + 1 + sort.Search(hi-lo-1, func(k int) bool { return list[lo+1+k] >= target })
}

// IntersectGallop intersects two sorted, duplicate-free DocID lists by
// galloping (exponential search) in the longer list — the winner when the
// lengths are skewed past GallopCrossover. The arguments may be given in
// either order.
func IntersectGallop(a, b []DocID) []DocID {
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	var out []DocID
	pos := 0
	for _, d := range small {
		pos = gallopSearch(large, pos, d)
		if pos == len(large) {
			break
		}
		if large[pos] == d {
			out = append(out, d)
			pos++
		}
	}
	return out
}

// IntersectLists folds sorted, duplicate-free DocID lists smallest-first,
// choosing galloping over linear merge per pair once the length skew
// passes GallopCrossover. Zero lists yield nil; any empty list yields an
// empty intersection.
func IntersectLists(lists [][]DocID) []DocID {
	return intersectListsCounted(lists, nil, nil)
}

// intersectListsCounted is IntersectLists with per-path counters: each
// pairwise fold step increments gallop or merge according to the path
// taken (nil counters no-op).
func intersectListsCounted(lists [][]DocID, gallop, merge *obs.Counter) []DocID {
	if len(lists) == 0 {
		return nil
	}
	sorted := make([][]DocID, len(lists))
	copy(sorted, lists)
	sort.SliceStable(sorted, func(i, j int) bool { return len(sorted[i]) < len(sorted[j]) })
	out := sorted[0]
	for _, other := range sorted[1:] {
		if len(out) == 0 {
			return nil
		}
		if len(other) >= GallopCrossover*len(out) {
			gallop.Inc()
			out = IntersectGallop(out, other)
		} else {
			merge.Inc()
			out = IntersectMerge(out, other)
		}
	}
	return out
}

// Intersect returns the documents containing every term, sorted. An empty
// term list yields nil. Pairwise intersections switch between linear
// merge and galloping search based on GallopCrossover.
func (ix *Index) Intersect(terms []string) []DocID {
	if len(terms) == 0 {
		return nil
	}
	lists := make([][]DocID, len(terms))
	for i, t := range terms {
		lists[i] = ix.Docs(t)
		if len(lists[i]) == 0 {
			return nil
		}
	}
	return intersectListsCounted(lists, ix.gallopPicks, ix.mergePicks)
}

// Union returns the documents containing any of the terms, sorted and
// deduplicated.
func (ix *Index) Union(terms []string) []DocID {
	seen := map[DocID]bool{}
	var out []DocID
	for _, t := range terms {
		for _, p := range ix.Postings(t) {
			if !seen[p.Doc] {
				seen[p.Doc] = true
				out = append(out, p.Doc)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
