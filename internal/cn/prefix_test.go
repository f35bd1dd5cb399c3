package cn

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
)

func prefixSetup(t *testing.T) (*Binding, []*CN) {
	t.Helper()
	db := dataset.DBLP(dataset.DefaultDBLPConfig())
	ix := invindex.FromDB(db)
	ev := NewBinder(db, ix).BindTraced([]string{"keyword", "search"}, nil)
	cns := Enumerate(schemagraph.FromDB(db), EnumerateOptions{
		MaxSize:       5,
		KeywordTables: ev.KeywordTables(),
		FreeTables:    []string{"write", "cite"},
	})
	if len(cns) == 0 {
		t.Fatal("no CNs")
	}
	return ev, cns
}

// resultSig renders a result into a canonical comparison string.
func resultSig(r Result) string {
	return fmt.Sprintf("%s|%s|%.12f", r.CN.Canonical(), resultKey(r), r.Score)
}

func sigSet(rs []Result) map[string]int {
	m := map[string]int{}
	for _, r := range rs {
		m[resultSig(r)]++
	}
	return m
}

// sortedRender renders rs bit-exactly after SortResults on a copy.
func sortedRender(rs []Result) string {
	rs = append([]Result(nil), rs...)
	SortResults(rs)
	return renderResults(rs)
}

// mustEvaluateLevels runs EvaluateLevels under a context that never ends.
func mustEvaluateLevels(t *testing.T, ev *Binding, c *CN) []Result {
	t.Helper()
	rs, err := ev.EvaluateLevels(context.Background(), c)
	if err != nil {
		t.Fatalf("EvaluateLevels(%s): %v", c, err)
	}
	return rs
}

// tileRoots evaluates c as consecutive root ranges whose sizes cycle
// through sizes, and returns the ranges' results laid end to end.
func tileRoots(t *testing.T, ev *Binding, c *CN, sizes []int) []Result {
	t.Helper()
	var got []Result
	for lo, i := 0, 0; lo < ev.RootCount(c); i++ {
		hi := lo + sizes[i%len(sizes)]
		rs, _, err := ev.EvaluateRoots(context.Background(), c, lo, hi)
		if err != nil {
			t.Fatalf("EvaluateRoots(%s, %d, %d): %v", c, lo, hi, err)
		}
		got = append(got, rs...)
		lo = hi
	}
	return got
}

// TestEvaluateLevelsMatchesEvaluateCN asserts the two traversals of the
// same join graph — the level-wise reference and the served depth-first
// search — produce the same results for every enumerated CN, score bits,
// CN and tuple IDs, once SortResults puts them in one order.
func TestEvaluateLevelsMatchesEvaluateCN(t *testing.T) {
	ev, cns := prefixSetup(t)
	total := 0
	for ci, c := range cns {
		want := mustEvaluate(t, ev, c)
		total += len(want)
		if got, want := sortedRender(mustEvaluateLevels(t, ev, c)), sortedRender(want); got != want {
			t.Fatalf("CN %d (%s): EvaluateLevels differs from EvaluateCN\ngot:\n%swant:\n%s", ci, c, got, want)
		}
	}
	if total == 0 {
		t.Fatal("fixture lost its shape: no results")
	}
}

// completeRows counts the join-consistent bindings of all of c's nodes:
// the rows the search takes to totality and minimality, survivors or
// not.
func completeRows(t *testing.T, ev *Binding, c *CN) int {
	t.Helper()
	ids := make([]relstore.TupleID, ev.RootCount(c))
	for i, tp := range ev.rootSet(c) {
		ids[i] = tp.ID
	}
	w := 1
	for _, st := range c.program().grow {
		var err error
		if ids, err = extendLevel(context.Background(), ids, w, st, ev.join(st.join), ev.kw); err != nil {
			t.Fatal(err)
		}
		w++
	}
	return len(ids) / w
}

// TestEvaluateCNAllocsDoNotGrowWithRows pins the served kernel's
// allocations by count: the search holds one row and a few slices
// sized by the CN, and allocates for the rows that survive totality and
// minimality — their Tuples, the growing result slice — not for the
// partial bindings it walks or the complete rows it rejects.
func TestEvaluateCNAllocsDoNotGrowWithRows(t *testing.T) {
	ev, cns := prefixSetup(t)
	ctx := context.Background()
	rejected := 0
	for ci, c := range cns {
		rs := mustEvaluate(t, ev, c)
		rows := completeRows(t, ev, c)
		rejected += rows - len(rs)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ev.EvaluateCN(ctx, c); err != nil {
				t.Fatal(err)
			}
		})
		// One Tuples slice per survivor, the result slice's doublings
		// (log2 of at most a few thousand) and the search's scratch.
		if limit := float64(len(rs) + 16); allocs > limit {
			t.Errorf("CN %d (%s): searching %d complete rows (%d survive) made %.0f allocations, want <= %.0f",
				ci, c, rows, len(rs), allocs, limit)
		}
	}
	if rejected < 1000 {
		t.Fatalf("fixture lost its shape: %d rejected rows", rejected)
	}
}

// TestRootRangesTile pins the property the exec pool's job queue rests
// on: cut a CN's root set into contiguous ranges of any size, search
// each range on its own, and the results laid end to end in range order
// are EvaluateCN's, in EvaluateCN's order; a range past the end of the
// root set is clamped.
func TestRootRangesTile(t *testing.T) {
	ev, cns := prefixSetup(t)
	ctx := context.Background()
	for ci, c := range cns {
		n := ev.RootCount(c)
		want := renderResults(mustEvaluate(t, ev, c))
		for _, per := range []int{1, 7, 64, max(n, 1)} {
			if got := renderResults(tileRoots(t, ev, c, []int{per})); got != want {
				t.Fatalf("CN %d (%s), %d roots per range: tiled results differ from EvaluateCN", ci, c, per)
			}
		}
		if rs, _, err := ev.EvaluateRoots(ctx, c, 0, n+5); err != nil || renderResults(rs) != want {
			t.Fatalf("CN %d (%s): EvaluateRoots past the root set = %d results, %v", ci, c, len(rs), err)
		}
		if rs, _, err := ev.EvaluateRoots(ctx, c, n, n+5); err != nil || len(rs) != 0 {
			t.Fatalf("CN %d (%s): EvaluateRoots beyond the root set = %d results, %v", ci, c, len(rs), err)
		}
	}
}

// kernelCorpus is fkCorpus under its schema graph: emp.boss -> emp.id
// (a self-reference), emp.dept -> dept.id and emp.floor -> dept.floor,
// whose repeated non-key values make every department on a floor a hub
// for the employees on it. Only the first 16 rows are read: on dense
// joins a 5-node CN's bindings grow with the fifth power of the rows,
// and the level-wise kernel holds all of them.
func kernelCorpus(data []byte) (*relstore.DB, *schemagraph.Graph) {
	g, err := schemagraph.New([]string{"dept", "emp"}, []schemagraph.Edge{
		{From: "emp", FromCol: "boss", To: "emp", ToCol: "id"},
		{From: "emp", FromCol: "dept", To: "dept", ToCol: "id"},
		{From: "emp", FromCol: "floor", To: "dept", ToCol: "floor"},
	})
	if err != nil {
		panic(err)
	}
	return fkCorpus(data[:min(len(data), 4*16)]), g
}

// hubRows is a kernelCorpus input of n rows whose first byte steps by
// mul (table and word), bosses among emps 1–4 and floors 1–2, so a few
// tuples are hubs of the self-reference and of the floor join.
func hubRows(n, mul int) []byte {
	var data []byte
	for r := 0; r < n; r++ {
		data = append(data, byte(r*mul+1), byte(1+r%4), byte(1+r%3), byte(1+r%2))
	}
	return data
}

// kernelCNs returns the CNs of up to five nodes over kernelCorpus's
// schema graph g for the keyword tables kw, enumerating each table set
// once per process (kernelCNsMemo). Only three sets occur, and with both
// tables keyword tables enumeration takes about 17 ms for 319 CNs, six
// times their evaluation by all three kernels: unmemoized, a fuzz
// input's minimization (a few thousand calls) outlasts a 5 s smoke.
func kernelCNs(g *schemagraph.Graph, kw []string) []*CN {
	key := strings.Join(kw, ",")
	cns, ok := kernelCNsMemo[key]
	if !ok {
		cns = Enumerate(g, EnumerateOptions{
			MaxSize:       5,
			KeywordTables: kw,
			FreeTables:    []string{"dept", "emp"},
		})
		kernelCNsMemo[key] = cns
	}
	return cns
}

var kernelCNsMemo = map[string][]*CN{}

// FuzzKernelsAgree checks the two join kernels against each other on
// generated corpora with a self-referencing foreign key and hub joins:
// for every enumerated CN of up to five nodes of a 1–2 term query
// (five, because no shorter CN here can bind one tuple twice),
// EvaluateLevels equals EvaluateCN after SortResults, and EvaluateRoots
// over a fuzzed tiling of the root set equals EvaluateCN in order —
// score bits, CN and tuple IDs.
func FuzzKernelsAgree(f *testing.F) {
	f.Add(hubRows(16, 1), uint8(0), uint8(5), []byte{0})       // "query search", one-root ranges
	f.Add(hubRows(16, 5), uint8(2), uint8(9), []byte{2, 0, 5}) // "search join", ranges of 3, 1, 6
	f.Add(hubRows(16, 7), uint8(1), uint8(0), []byte{})        // "keyword", one range
	// Emps 2 ("search") and 3 ("join") report to emp 1 ("query"), which
	// is on the floor of dept 1: emp^Q -> emp^{} -> dept^{} <- emp^{} <-
	// emp^Q binds emp 1 twice unless the joining-tree check drops the
	// row.
	f.Add(append([]byte{1, 2, 3, 1, 0, 1, 0, 0, 7, 1, 2, 2, 13, 1, 2, 2}, hubRows(12, 5)...), uint8(2), uint8(9), []byte{1, 4})
	f.Fuzz(func(t *testing.T, data []byte, t1, t2 uint8, tiling []byte) {
		db, g := kernelCorpus(data)
		terms := []string{dataset.CorpusVocab[int(t1)%len(dataset.CorpusVocab)]}
		if t2%2 == 1 {
			terms = append(terms, dataset.CorpusVocab[int(t2/2)%len(dataset.CorpusVocab)])
		}
		// The corpus declares no foreign keys (relstore cannot declare
		// the self-reference), so the binder indexes g's edges.
		ix := invindex.FromDB(db)
		ev := newBinder(db, ix, g.Edges()).BindTraced(terms, nil)
		sizes := []int{1 << 30} // no tiling bytes: one range
		if len(tiling) > 0 {
			sizes = sizes[:0]
			for _, b := range tiling {
				sizes = append(sizes, 1+int(b)%9)
			}
		}
		for _, c := range kernelCNs(g, ev.KeywordTables()) {
			want := mustEvaluate(t, ev, c)
			if got, want := sortedRender(mustEvaluateLevels(t, ev, c)), sortedRender(want); got != want {
				t.Fatalf("%v %s: EvaluateLevels differs from EvaluateCN\ngot:\n%swant:\n%s", terms, c, got, want)
			}
			if got, want := renderResults(tileRoots(t, ev, c, sizes)), renderResults(want); got != want {
				t.Fatalf("%v %s: EvaluateRoots over ranges of %v differs from EvaluateCN\ngot:\n%swant:\n%s", terms, c, sizes, got, want)
			}
		}
	})
}
