package cn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
			if want.mask(tp.ID) != got.mask(tp.ID) {
				t.Fatalf("%s: mask(%d) = %b, want %b", label, tp.ID, got.mask(tp.ID), want.mask(tp.ID))
			}
			if w, g := want.kw.Has(tp.ID), got.kw.Has(tp.ID); w != g || g != (got.mask(tp.ID) != 0) {
				t.Fatalf("%s: kw.Has(%d) = %v, want %v (mask %b)", label, tp.ID, g, w, got.mask(tp.ID))
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

// assertBindsLikeScan binds terms through binder and through the scan
// reference and requires equal bindings and equal top-10 answers over
// every CN of up to four nodes.
func assertBindsLikeScan(t *testing.T, db *relstore.DB, binder *Binder, terms, freeTables []string, label string) {
	t.Helper()
	scan := NewScanBinding(binder, terms)
	got := binder.BindTraced(terms, nil)
	assertBindingsEqual(t, db, scan, got, label)

	cns := Enumerate(schemagraph.FromDB(db), EnumerateOptions{
		MaxSize:       4,
		KeywordTables: scan.KeywordTables(),
		FreeTables:    freeTables,
	})
	wantRs := renderResults(TopKNaive(scan, cns, 10))
	gotRs := renderResults(TopKNaive(got, cns, 10))
	if wantRs != gotRs {
		t.Fatalf("%s: top-k differs\ngot:\n%swant:\n%s", label, gotRs, wantRs)
	}
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
			assertBindsLikeScan(t, db, binder, terms, freeTables, fmt.Sprintf("trial %d %v", trial, terms))
		}
	}
}

// TestBindingMatchesScanDBLP compares the binder with the scan reference
// on ×1 DBLP, whose ≈5.4 k tuples span ≈85 words of the keyword bitset,
// so a rank that slips at a word boundary shows up here even where the
// small random corpora fit in a word or two. The queries are the query
// log's 1–3-term entries and 4-term joins of neighbouring entries.
func TestBindingMatchesScanDBLP(t *testing.T) {
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	binder := NewBinder(db, invindex.FromDB(db))
	log := dataset.QueryLog(db, 100, 1)
	for i, le := range log {
		assertBindingsEqual(t, db, NewScanBinding(binder, le.Terms), binder.BindTraced(le.Terms, nil), fmt.Sprint(le.Terms))
		if terms := append(slices.Clone(le.Terms), log[(i+1)%len(log)].Terms...); len(terms) >= 4 {
			terms = terms[:4]
			assertBindingsEqual(t, db, NewScanBinding(binder, terms), binder.BindTraced(terms, nil), fmt.Sprint(terms))
		}
	}
}

// wordEdgeCorpus is a two-table corpus of 200 tuples whose keyword
// tuples sit on both sides of the keyword bitset's word boundaries:
// docs 63, 64 and 128, and notes 127 and 199 (the last tuple, which
// references doc 128). IDs 0–99 are docs; from 100 on, even IDs are
// docs and odd IDs notes, so a term's R^Q meets its tables in
// alternating runs and a table's set resumes after the other's tuples
// ("alpha": doc 63, note 127, doc 128). "filler" matches every third
// tuple, so its R^Q runs through all four words and both tables.
func wordEdgeCorpus() *relstore.DB {
	db := relstore.NewDB()
	db.MustCreateTable(&relstore.TableSchema{
		Name: "doc",
		Columns: []relstore.Column{
			{Name: "did", Type: relstore.KindInt},
			{Name: "body", Type: relstore.KindString, Text: true},
		},
		Key: "did",
	})
	db.MustCreateTable(&relstore.TableSchema{
		Name: "note",
		Columns: []relstore.Column{
			{Name: "nid", Type: relstore.KindInt},
			{Name: "did", Type: relstore.KindInt},
			{Name: "body", Type: relstore.KindString, Text: true},
		},
		Key:         "nid",
		ForeignKeys: []relstore.ForeignKey{{Column: "did", RefTable: "doc", RefColumn: "did"}},
	})
	keywords := map[int]string{63: "alpha", 64: "beta", 127: "alpha beta", 128: "gamma alpha", 199: "beta gamma gamma"}
	body := func(id int) relstore.Value {
		text := keywords[id]
		if id%3 == 0 {
			text += " filler"
		}
		return relstore.String(text)
	}
	for id := 0; id < 200; id++ {
		if id < 100 || id%2 == 0 {
			db.MustInsert("doc", map[string]relstore.Value{"did": relstore.Int(int64(id)), "body": body(id)})
			continue
		}
		did := int64(id*7) % 100
		if id == 199 {
			did = 128
		}
		db.MustInsert("note", map[string]relstore.Value{
			"nid": relstore.Int(int64(id)), "did": relstore.Int(did), "body": body(id),
		})
	}
	return db
}

// TestBindingMatchesScanAtWordEdges binds every 1–3-term query over the
// word-edge corpus's four terms through the binder and the scan
// reference: the bindings and the top-10 answers must agree, and every
// tuple's mask and score must also equal what the index says directly,
// so a rank slip that both bindings share cannot hide.
func TestBindingMatchesScanAtWordEdges(t *testing.T) {
	db := wordEdgeCorpus()
	if got := db.NumTuples(); got != 200 {
		t.Fatalf("corpus holds %d tuples, want 200", got)
	}
	ix := invindex.FromDB(db)
	binder := NewBinder(db, ix)
	if b := binder.BindTraced([]string{"alpha", "beta", "gamma"}, nil); len(b.masks) != 5 {
		t.Fatalf("alpha beta gamma binds %d tuples, want 5 (IDs 63, 64, 127, 128, 199)", len(b.masks))
	}
	check := func(terms ...string) {
		label := fmt.Sprint(terms)
		assertBindsLikeScan(t, db, binder, terms, nil, label)
		b := binder.BindTraced(terms, nil)
		for id := 0; id < db.NumTuples(); id++ {
			tp := db.TupleByID(relstore.TupleID(id))
			var mask uint32
			for i, term := range b.Terms() {
				if ix.TF(term, invindex.DocID(id)) > 0 {
					mask |= 1 << i
				}
			}
			if got := b.mask(tp.ID); got != mask {
				t.Fatalf("%s: mask(%d) = %b, want %b", label, id, got, mask)
			}
			want, got := ix.Score(b.Terms(), invindex.DocID(id)), b.TupleScore(tp)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("%s: score(%d) = %v, want %v", label, id, got, want)
			}
		}
	}
	vocab := []string{"alpha", "beta", "gamma", "filler"}
	for _, a := range vocab {
		check(a)
		for _, b := range vocab {
			check(a, b)
			for _, c := range vocab {
				check(a, b, c)
			}
		}
	}
}

// TestBindAllocs pins what one warm bind allocates on ×1 DBLP, bytes
// and mallocs. The binder is compiled, so a bind only merges: the rank
// table, the rank-indexed masks and scores, and the R^Q sets presized
// from the term bindings' per-table lengths. Before the rank layout the
// merge kept two tuple-ID maps and read ≈64.5 kB and 27–33 mallocs on
// these queries. The bounds are about 1.1× the rank layout's readings;
// like every pin they only tighten.
func TestBindAllocs(t *testing.T) {
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	binder := NewBinder(db, invindex.FromDB(db))
	for _, c := range []struct {
		query    string
		maxBytes uint64
		maxAlloc float64
	}{
		{"www sigmod search keyword", 21_600, 25},
		{"search www wang keyword", 21_750, 26},
		{"keyword search", 21_400, 20},
	} {
		terms := strings.Fields(c.query)
		allocs := testing.AllocsPerRun(20, func() { binder.BindTraced(terms, nil) })
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			binder.BindTraced(terms, nil)
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		if bytes > c.maxBytes || allocs > c.maxAlloc {
			t.Errorf("%q: a bind allocates %d bytes in %.0f mallocs, want <= %d bytes and <= %.0f mallocs",
				c.query, bytes, allocs, c.maxBytes, c.maxAlloc)
		}
		t.Logf("%q: %d bytes, %.0f mallocs per bind", c.query, bytes, allocs)
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
			if b.mask(tp.ID) == 0 {
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
