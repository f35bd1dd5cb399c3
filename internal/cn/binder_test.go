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
			if want.TermMask(tp.ID) != got.TermMask(tp.ID) {
				t.Fatalf("%s: mask(%d) = %b, want %b", label, tp.ID, got.TermMask(tp.ID), want.TermMask(tp.ID))
			}
			if w, g := want.KeywordBits().Has(tp.ID), got.KeywordBits().Has(tp.ID); w != g || g != (got.TermMask(tp.ID) != 0) {
				t.Fatalf("%s: KeywordBits(%d) = %v, want %v (mask %b)", label, tp.ID, g, w, got.TermMask(tp.ID))
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
// queries, the cold one-shot binding, the cold shared-binder binding and
// the warm (fully cached) shared-binder binding must all be bit-equal to
// the full-scan reference — and so must the complete top-k answers
// evaluated through them.
func TestBindingMatchesScanRandomCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		db, freeTables := dataset.RandomCorpus(rng, 2+rng.Intn(3))
		ix := invindex.FromDB(db)
		binder := NewBinder(db, ix, BinderOptions{})
		for q := 0; q < 4; q++ {
			terms := make([]string, 1+rng.Intn(3))
			for i := range terms {
				terms[i] = dataset.CorpusVocab[rng.Intn(len(dataset.CorpusVocab))]
			}
			label := fmt.Sprintf("trial %d %v", trial, terms)
			scan := NewScanBinding(db, ix, terms)
			oneShot := bindTerms(db, ix, NormalizeTerms(terms), nil, nil)
			cold := binder.BindTraced(terms, nil)
			builds := binder.Builds()
			warm := binder.BindTraced(terms, nil)
			// The count that replaces the old warm-bind-share timing gate:
			// a repeated bind builds nothing, so its cost is cache probes.
			if warm.TermsCached() != len(terms) || warm.TermsBuilt() != 0 || binder.Builds() != builds {
				t.Fatalf("%s: warm bind built %d terms (cached %d, binder builds %d -> %d), want all %d cached",
					label, warm.TermsBuilt(), warm.TermsCached(), builds, binder.Builds(), len(terms))
			}
			assertBindingsEqual(t, db, scan, oneShot, label+" one-shot")
			assertBindingsEqual(t, db, scan, cold, label+" cold-binder")
			assertBindingsEqual(t, db, scan, warm, label+" warm-binder")

			sg := schemagraph.FromDB(db)
			cns := Enumerate(sg, EnumerateOptions{
				MaxSize:       4,
				KeywordTables: scan.KeywordTables(),
				FreeTables:    freeTables,
			})
			wantRs := renderResults(TopKNaive(NewScanEvaluator(db, ix, terms), cns, 10))
			gotRs := renderResults(TopKNaive(NewEvaluatorFrom(db, ix, warm), cns, 10))
			if wantRs != gotRs {
				t.Fatalf("%s: top-k differs\ngot:\n%swant:\n%s", label, gotRs, wantRs)
			}
		}
	}
}

// TestBinderGenChurnRace hammers one cold binder from concurrent
// queries, so first term-binding builds and first join-index builds
// race each other. Every query's answer must equal the scan baseline — a
// torn R^Q slice or join-index map would either diverge or trip the race
// detector (internal/cn is in verify.sh's -race gate).
func TestBinderGenChurnRace(t *testing.T) {
	db := dataset.WidomBib()
	ix := invindex.FromDB(db)
	binder := NewBinder(db, ix, BinderOptions{})
	terms := []string{"Widom", "XML"}
	sg := schemagraph.FromDB(db)
	scan := NewScanBinding(db, ix, terms)
	cns := Enumerate(sg, EnumerateOptions{
		MaxSize:       5,
		KeywordTables: scan.KeywordTables(),
		FreeTables:    []string{"write"},
	})
	want := renderResults(TopKNaive(NewScanEvaluator(db, ix, terms), cns, 10))

	const workers, iters = 4, 50
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ev := NewEvaluatorFrom(db, ix, binder.BindTraced(terms, nil))
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
	b := NewBinder(db, ix, BinderOptions{}).BindTraced(terms, nil)
	checked := 0
	for _, name := range db.TableNames() {
		for _, tp := range db.Table(name).Tuples() {
			want := ix.Score(b.Terms(), invindex.DocID(tp.ID))
			got := b.TupleScore(tp)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("score(%s#%d) = %v, want %v", name, tp.ID, got, want)
			}
			if b.TermMask(tp.ID) == 0 {
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
