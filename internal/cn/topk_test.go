package cn

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"kwsearch/internal/fmath"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
)

// resultKey is the string form of Less's tuple-ID tie-break: the sorted
// tuple IDs, each in decimal followed by a comma. Less renders it into
// stack buffers instead of building strings; this is the oracle it must
// agree with.
func resultKey(r Result) string {
	ids := make([]int, len(r.Tuples))
	for i, tp := range r.Tuples {
		ids[i] = int(tp.ID)
	}
	sort.Ints(ids)
	key := ""
	for _, id := range ids {
		key += strconv.Itoa(id) + ","
	}
	return key
}

// lessOracle is Less with the tuple-ID tie-break taken through
// resultKey strings.
func lessOracle(a, b Result) bool {
	if !fmath.Eq(a.Score, b.Score) {
		return a.Score > b.Score
	}
	if len(a.Tuples) != len(b.Tuples) {
		return len(a.Tuples) < len(b.Tuples)
	}
	if ka, kb := resultKey(a), resultKey(b); ka != kb {
		return ka < kb
	}
	if ca, cb := a.CN.Canonical(), b.CN.Canonical(); ca != cb {
		return ca < cb
	}
	for n := range a.Tuples {
		if ta, tb := a.Tuples[n].ID, b.Tuples[n].ID; ta != tb {
			return ta < tb
		}
	}
	return false
}

// orderCNs returns CNs for the order tests: two of size 1, two of size 3
// with distinct canonical strings, and two symmetric ones of size 5,
// whose twin bindings use one tuple multiset in swapped positions.
func orderCNs() []*CN {
	wa := schemagraph.Edge{From: "write", FromCol: "aid", To: "author", ToCol: "aid"}
	wp := schemagraph.Edge{From: "write", FromCol: "pid", To: "paper", ToCol: "pid"}
	ca := schemagraph.Edge{From: "cite", FromCol: "citing", To: "paper", ToCol: "pid"}
	cb := schemagraph.Edge{From: "cite", FromCol: "cited", To: "paper", ToCol: "pid"}
	a, p := NodeSpec{Table: "author"}, NodeSpec{Table: "paper"}
	w, c := NodeSpec{Table: "write", Free: true}, NodeSpec{Table: "cite", Free: true}
	return []*CN{
		{Nodes: []NodeSpec{a}},
		{Nodes: []NodeSpec{p}},
		{Nodes: []NodeSpec{a, w, p}, Edges: []EdgeSpec{{A: 1, B: 0, Via: wa}, {A: 1, B: 2, Via: wp}}},
		{Nodes: []NodeSpec{p, c, p}, Edges: []EdgeSpec{{A: 1, B: 0, Via: ca}, {A: 1, B: 2, Via: cb}}},
		{Nodes: []NodeSpec{p, w, a, w, p}, Edges: []EdgeSpec{
			{A: 1, B: 0, Via: wp}, {A: 1, B: 2, Via: wa}, {A: 3, B: 2, Via: wa}, {A: 3, B: 4, Via: wp}}},
		{Nodes: []NodeSpec{a, w, p, w, a}, Edges: []EdgeSpec{
			{A: 1, B: 0, Via: wa}, {A: 1, B: 2, Via: wp}, {A: 3, B: 2, Via: wp}, {A: 3, B: 4, Via: wa}}},
	}
}

// orderIDs straddle the decimal digit boundaries, where the key's
// bytewise order ("10," < "9,") departs from the numeric one.
var orderIDs = []relstore.TupleID{0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 12345, 1 << 30}

// orderResult builds a result of c scoring score whose tuple IDs are
// the orderIDs that ids pick, one per node of c.
func orderResult(c *CN, score float64, ids []byte) Result {
	r := Result{CN: c, Score: score, Tuples: make([]*relstore.Tuple, len(c.Nodes))}
	for i := range r.Tuples {
		r.Tuples[i] = &relstore.Tuple{ID: orderIDs[int(ids[i])%len(orderIDs)]}
	}
	return r
}

func tuplesOf(ids ...relstore.TupleID) []*relstore.Tuple {
	out := make([]*relstore.Tuple, len(ids))
	for i, id := range ids {
		out[i] = &relstore.Tuple{ID: id}
	}
	return out
}

// TestLessMatchesKeyOrder asserts Less equals lessOracle: on a table of
// ties that reach each tie-break, and on every ordered pair of a
// generated population heavy in equal scores, equal sizes and symmetric
// twins.
func TestLessMatchesKeyOrder(t *testing.T) {
	cns := orderCNs()
	awp, sym := cns[2], cns[5]
	cases := []struct {
		name string
		a, b Result
		want bool
	}{
		{"higher score first", Result{CN: awp, Score: 2, Tuples: tuplesOf(5, 6, 7)}, Result{CN: awp, Score: 1, Tuples: tuplesOf(1, 2, 3)}, true},
		{"smaller CN first", Result{CN: cns[0], Score: 1, Tuples: tuplesOf(9)}, Result{CN: awp, Score: 1, Tuples: tuplesOf(1, 2, 3)}, true},
		{"10 renders before 9", Result{CN: cns[0], Score: 1, Tuples: tuplesOf(10)}, Result{CN: cns[0], Score: 1, Tuples: tuplesOf(9)}, true},
		{"100 renders before 99", Result{CN: awp, Score: 1, Tuples: tuplesOf(100, 1, 2)}, Result{CN: awp, Score: 1, Tuples: tuplesOf(99, 1, 2)}, true},
		{"IDs compare sorted", Result{CN: awp, Score: 1, Tuples: tuplesOf(3, 2, 1)}, Result{CN: awp, Score: 1, Tuples: tuplesOf(1, 2, 4)}, true},
		{"first differing ID decides", Result{CN: awp, Score: 1, Tuples: tuplesOf(1, 2, 3)}, Result{CN: awp, Score: 1, Tuples: tuplesOf(1, 3, 4)}, true},
		{"canonical breaks key ties", Result{CN: cns[1], Score: 1, Tuples: tuplesOf(4)}, Result{CN: cns[0], Score: 1, Tuples: tuplesOf(4)}, cns[1].Canonical() < cns[0].Canonical()},
		{"symmetric twins by node order", Result{CN: sym, Score: 1, Tuples: tuplesOf(1, 2, 3, 4, 5)}, Result{CN: sym, Score: 1, Tuples: tuplesOf(5, 4, 3, 2, 1)}, true},
		{"equal results", Result{CN: sym, Score: 1, Tuples: tuplesOf(1, 2, 3, 4, 5)}, Result{CN: sym, Score: 1, Tuples: tuplesOf(1, 2, 3, 4, 5)}, false},
	}
	for _, tc := range cases {
		if got, orc := Less(tc.a, tc.b), lessOracle(tc.a, tc.b); got != tc.want || orc != tc.want {
			t.Errorf("%s: Less = %v, oracle = %v, want %v", tc.name, got, orc, tc.want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	scores := []float64{0.5, 0.5 + fmath.Eps/4, 1, 2}
	rs := make([]Result, 400)
	for i := range rs {
		c := cns[rng.Intn(len(cns))]
		ids := make([]byte, len(c.Nodes))
		rng.Read(ids)
		rs[i] = orderResult(c, scores[rng.Intn(len(scores))], ids)
		if i%4 == 3 { // a symmetric twin of the previous result
			prev := rs[i-1]
			rs[i] = Result{CN: prev.CN, Score: prev.Score, Tuples: make([]*relstore.Tuple, len(prev.Tuples))}
			for n, tp := range prev.Tuples {
				rs[i].Tuples[len(prev.Tuples)-1-n] = tp
			}
		}
	}
	for _, a := range rs {
		for _, b := range rs {
			if got, want := Less(a, b), lessOracle(a, b); got != want {
				t.Fatalf("Less(%s %s, %s %s) = %v, oracle %v",
					a.CN.Canonical(), resultKey(a), b.CN.Canonical(), resultKey(b), got, want)
			}
		}
	}
}

// TestLessAllocs pins Less at zero allocations on ties that run through
// every tie-break: equal scores and sizes with different keys, and
// symmetric twins that only the node-order IDs separate.
func TestLessAllocs(t *testing.T) {
	sym := orderCNs()[5]
	a := Result{CN: sym, Score: 1, Tuples: tuplesOf(1, 20, 300, 4000, 50000)}
	b := Result{CN: sym, Score: 1, Tuples: tuplesOf(50000, 4000, 300, 20, 1)}
	c := Result{CN: sym, Score: 1, Tuples: tuplesOf(1, 20, 300, 4000, 9)}
	allocs := testing.AllocsPerRun(100, func() {
		Less(a, b)
		Less(b, a)
		Less(a, c)
	})
	if allocs != 0 {
		t.Errorf("Less allocates %.0f times per run, want 0", allocs)
	}
}

// FuzzTopKMatchesSort feeds any result stream, split into any batches,
// through a Top of any K: the held results must equal SortResults of the
// whole stream truncated to K, byte for byte. Each result takes one byte
// of data for its score and batch split, one for its CN and one per
// tuple ID. Scores are multiples of 1/4, so every two either tie exactly
// or differ by far more than fmath.Eps, where the order is a strict weak
// one and every sort must agree.
func FuzzTopKMatchesSort(f *testing.F) {
	f.Add(uint8(3), []byte{0x01, 2, 1, 2, 3, 0x81, 2, 4, 5, 6, 0x01, 5, 1, 2, 3, 4, 5, 0x01, 5, 5, 4, 3, 2, 1})
	f.Add(uint8(1), []byte{0x00, 0, 2, 0x00, 0, 3, 0x80, 1, 2, 0x00, 1, 3})
	f.Add(uint8(5), []byte{0x07, 4, 9, 8, 7, 6, 5, 0x87, 4, 5, 6, 7, 8, 9, 0x03, 3, 1, 2, 3, 0x03, 2, 3, 2, 1})
	f.Add(uint8(0), []byte{0x02, 0, 1})
	cns := orderCNs()
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		K := int(k % 24)
		top := &Top{K: K}
		var all, batch []Result
		for len(data) >= 2 {
			head, c := data[0], cns[int(data[1])%len(cns)]
			data = data[2:]
			n := len(c.Nodes)
			if len(data) < n {
				break
			}
			r := orderResult(c, float64(head%8)/4, data[:n])
			data = data[n:]
			all = append(all, r)
			batch = append(batch, r)
			if head&0x80 != 0 {
				top.Add(batch...)
				batch = nil
			}
		}
		top.Add(batch...)
		SortResults(all)
		if len(all) > K {
			all = all[:K]
		}
		if got, want := renderResults(top.Results()), renderResults(all); got != want {
			t.Fatalf("K=%d: Top holds\n%s\nwant\n%s", K, got, want)
		}
	})
}
