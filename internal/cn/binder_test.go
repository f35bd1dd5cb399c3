package cn

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
)

// assertBindingsEqual compares two Bindings bit-for-bit over every
// observable: table membership, set contents and order, the
// keyword/free partition, masks, scores and max-scores.
func assertBindingsEqual(t *testing.T, db *relstore.DB, want, got *Binding, label string) {
	t.Helper()
	w, g := want.KeywordTables(), got.KeywordTables()
	if fmt.Sprint(w) != fmt.Sprint(g) {
		t.Fatalf("%s: keyword tables %v != %v", label, g, w)
	}
	ids := func(set []*relstore.Tuple) string {
		var b strings.Builder
		for _, tp := range set {
			b.WriteString(strconv.Itoa(int(tp.ID)))
			b.WriteByte(' ')
		}
		return b.String()
	}
	for _, name := range db.TableNames() {
		if w, g := ids(want.KeywordSet(name)), ids(got.KeywordSet(name)); w != g {
			t.Fatalf("%s: R^Q(%s) = [%s], want [%s]", label, name, g, w)
		}
		wm, gm := want.MaxNodeScore(name), got.MaxNodeScore(name)
		if math.Float64bits(wm) != math.Float64bits(gm) {
			t.Fatalf("%s: max score (%s) = %v, want %v", label, name, gm, wm)
		}
		for _, tp := range db.Table(name).Tuples() {
			if want.masks[tp.ID] != got.masks[tp.ID] {
				t.Fatalf("%s: mask(%d) = %b, want %b", label, tp.ID, got.masks[tp.ID], want.masks[tp.ID])
			}
			if w, g := want.kw.Has(tp.ID), got.kw.Has(tp.ID); w != g || g != (got.masks[tp.ID] != 0) {
				t.Fatalf("%s: kw.Has(%d) = %v, want %v (mask %b)", label, tp.ID, g, w, got.masks[tp.ID])
			}
			ws, gs := want.TupleScore(tp), got.TupleScore(tp)
			if math.Float64bits(ws) != math.Float64bits(gs) {
				t.Fatalf("%s: score(%d) = %v, want %v", label, tp.ID, gs, ws)
			}
		}
	}
}

// renderResults serializes results bit-exactly (canonical CN,
// tuple IDs, raw score bits): two lists render equal iff they are
// byte-identical answers.
func renderResults(rs []Result) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.CN.Canonical())
		for _, tp := range r.Tuples {
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(int(tp.ID)))
		}
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.Score), 16))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestBindingMatchesScanRandomCorpus is the acceptance check for the
// index-driven binder: over a randomized corpus of schemas, data and
// queries, the binding a compiled binder serves must be bit-equal to the
// full-scan reference — and so must the complete top-k answers
// evaluated through them.
func TestBindingMatchesScanRandomCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		db, freeTables := dataset.RandomCorpus(rng, 2+rng.Intn(3))
		binder := NewBinder(db, invindex.FromDB(db))
		for q := 0; q < 4; q++ {
			terms := make([]string, 1+rng.Intn(3))
			for i := range terms {
				terms[i] = dataset.CorpusVocab[rng.Intn(len(dataset.CorpusVocab))]
			}
			label := fmt.Sprintf("trial %d %v", trial, terms)
			scan := NewScanBinding(binder, terms)
			got := binder.BindTraced(terms, nil)
			assertBindingsEqual(t, db, scan, got, label)

			sg := schemagraph.FromDB(db)
			cns := Enumerate(sg, EnumerateOptions{
				MaxSize:       4,
				KeywordTables: scan.KeywordTables(),
				FreeTables:    freeTables,
			})
			wantRs := renderResults(TopKNaive(NewScanBinding(binder, terms), cns, 10))
			gotRs := renderResults(TopKNaive(got, cns, 10))
			if wantRs != gotRs {
				t.Fatalf("%s: top-k differs\ngot:\n%swant:\n%s", label, gotRs, wantRs)
			}
		}
	}
}

// FuzzBinderMatchesScan checks the compiled binder against the full-scan
// reference on generated corpora and 1–4 term queries, out-of-vocabulary
// and repeated terms included: R^Q, masks, score bits and the kw bitset
// must agree.
func FuzzBinderMatchesScan(f *testing.F) {
	f.Add(int64(1), uint8(2), []byte{0})
	f.Add(int64(2), uint8(3), []byte{4, 4})     // one term twice
	f.Add(int64(3), uint8(4), []byte{8, 3, 12}) // an unknown term between two known ones
	f.Add(int64(4), uint8(2), []byte{3, 7, 11, 15})
	f.Fuzz(func(t *testing.T, seed int64, nEnt uint8, picks []byte) {
		db, _ := dataset.RandomCorpus(rand.New(rand.NewSource(seed)), 1+int(nEnt)%4)
		if len(picks) == 0 {
			picks = []byte{0}
		}
		var terms []string
		for _, p := range picks[:min(len(picks), 4)] {
			if p%4 == 3 {
				terms = append(terms, "nosuchterm")
				continue
			}
			terms = append(terms, dataset.CorpusVocab[int(p/4)%len(dataset.CorpusVocab)])
		}
		binder := NewBinder(db, invindex.FromDB(db))
		assertBindingsEqual(t, db, NewScanBinding(binder, terms), binder.BindTraced(terms, nil), fmt.Sprint(terms))
	})
}

// TestConcurrentBindsOnSharedBinder binds and evaluates one query from
// concurrent goroutines over one shared binder. Every answer must equal
// the scan baseline, and under -race (internal/cn is in verify.sh's
// -race gate) a write left on the bind path would be reported.
func TestConcurrentBindsOnSharedBinder(t *testing.T) {
	db := dataset.WidomBib()
	ix := invindex.FromDB(db)
	binder := NewBinder(db, ix)
	terms := []string{"Widom", "XML"}
	sg := schemagraph.FromDB(db)
	scan := NewScanBinding(binder, terms)
	cns := Enumerate(sg, EnumerateOptions{
		MaxSize:       5,
		KeywordTables: scan.KeywordTables(),
		FreeTables:    []string{"write"},
	})
	want := renderResults(TopKNaive(NewScanBinding(binder, terms), cns, 10))

	const workers, iters = 4, 50
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ev := binder.BindTraced(terms, nil)
				if got := renderResults(TopKNaive(ev, cns, 10)); got != want {
					select {
					case errs <- got:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case got := <-errs:
		t.Fatalf("answer diverged under concurrent binds:\ngot:\n%swant:\n%s", got, want)
	default:
	}
}

// TestTupleScoreZeroFastPath pins the satellite bugfix: the pre-binder
// evaluator recomputed (and never cached) scores for free tuples on
// every call; the binding returns an exact 0.0 without touching the
// index, which is provably the same value — a tuple matching no query
// term has TF 0 for each, so its Σ TFIDF is exactly 0.
func TestTupleScoreZeroFastPath(t *testing.T) {
	db := dataset.WidomBib()
	ix := invindex.FromDB(db)
	terms := []string{"Widom", "XML"}
	b := NewBinder(db, ix).BindTraced(terms, nil)
	checked := 0
	for _, name := range db.TableNames() {
		for _, tp := range db.Table(name).Tuples() {
			want := ix.Score(b.Terms(), invindex.DocID(tp.ID))
			got := b.TupleScore(tp)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("score(%s#%d) = %v, want %v", name, tp.ID, got, want)
			}
			if b.masks[tp.ID] == 0 {
				if got != 0 {
					t.Fatalf("free tuple %s#%d scored %v, want exact 0", name, tp.ID, got)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("corpus has no free tuples; the fast path went unexercised")
	}
}
