package cn

import (
	"fmt"
	"math"
	"sync"

	"kwsearch/internal/relstore"
)

// JoinIndex is one directed schema join materialised as a graph in
// compressed-sparse-row form: the tuples joining tuple id are
// dst[off[id]:off[id+1]], in the target table's insertion order. off is
// indexed by the dense global tuple ID, so following a foreign key is
// two adjacent loads and a slice — no hashing, no relstore.Value
// comparison, no pointer for the collector to trace. Tuples of other
// tables, NULL join values and values without a referent all get
// zero-width rows. An index is immutable once built and shared by
// reference, through its joinTable, by every Binding that table serves.
//
// Size: 4 bytes per tuple of the database plus 4 bytes per joining
// pair, which for a foreign key into a key column is at most the
// referencing table's length in either direction. A foreign key into a
// non-unique column repeats each referent list per referencing tuple;
// offsets are int32 like relstore.TupleID itself, and a join of more
// than MaxInt32 pairs is beyond what the evaluator could materialise a
// level of anyway.
type JoinIndex struct {
	off []int32
	dst []relstore.TupleID
}

// Targets returns the tuples id joins, in the target table's insertion
// order. The slice is shared; callers must not mutate it. IDs the index
// was not built over (including tuples inserted since) join nothing.
func (ji *JoinIndex) Targets(id relstore.TupleID) []relstore.TupleID {
	if id < 0 || int(id)+1 >= len(ji.off) {
		return nil
	}
	return ji.dst[ji.off[id]:ji.off[id+1]]
}

// buildJoinIndex materialises the join k over db's current tuples. An
// unknown table or column yields an index in which nothing joins.
func buildJoinIndex(db *relstore.DB, k JoinKey) *JoinIndex {
	ji := &JoinIndex{off: make([]int32, db.NumTuples()+1)}
	from, to := db.Table(k.FromTable), db.Table(k.ToTable)
	if from == nil || to == nil {
		return ji
	}
	fc, tc := from.ColumnIndex(k.FromCol), to.ColumnIndex(k.ToCol)
	if fc < 0 || tc < 0 {
		return ji
	}
	// Group the target side by join value once (insertion order within a
	// group), then lay each source tuple's group out at its ID.
	groups := make(map[relstore.Value][]relstore.TupleID)
	for _, tp := range to.Tuples() {
		if v := tp.Values[tc]; !v.IsNull() {
			groups[v] = append(groups[v], tp.ID)
		}
	}
	for _, tp := range from.Tuples() {
		if v := tp.Values[fc]; !v.IsNull() {
			ji.off[tp.ID+1] = int32(len(groups[v]))
		}
	}
	total := 0
	for i := 1; i < len(ji.off); i++ {
		total += int(ji.off[i])
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("cn: join %v has over %d pairs, beyond int32 offsets", k, math.MaxInt32))
		}
		ji.off[i] = int32(total)
	}
	ji.dst = make([]relstore.TupleID, total)
	for _, tp := range from.Tuples() {
		if lo, hi := ji.off[tp.ID], ji.off[tp.ID+1]; lo < hi {
			copy(ji.dst[lo:hi], groups[tp.Values[fc]])
		}
	}
	return ji
}

// joinTable owns the join indexes of one database: built on first use,
// then shared by reference. A Binder hands its one table to every
// binding it makes; the one-shot and scan bindings get a private one.
type joinTable struct {
	db *relstore.DB

	mu    sync.RWMutex
	joins map[JoinKey]*JoinIndex
}

func newJoinTable(db *relstore.DB) *joinTable {
	return &joinTable{db: db, joins: make(map[JoinKey]*JoinIndex)}
}

// get returns the index of the directed join k, building it on first
// use. Concurrent first uses may build twice; the first writer wins so
// every caller observes one canonical index.
func (jt *joinTable) get(k JoinKey) *JoinIndex {
	jt.mu.RLock()
	ji, ok := jt.joins[k]
	jt.mu.RUnlock()
	if ok {
		return ji
	}
	built := buildJoinIndex(jt.db, k)
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if ji, ok := jt.joins[k]; ok {
		return ji
	}
	jt.joins[k] = built
	return built
}

// TupleSet is a dense bitset over tuple IDs.
type TupleSet []uint64

// Has reports whether id is in the set; IDs beyond its range are not.
func (s TupleSet) Has(id relstore.TupleID) bool {
	w := uint(id) >> 6
	return w < uint(len(s)) && s[w]&(1<<(uint(id)&63)) != 0
}

func (s TupleSet) add(id relstore.TupleID) { s[uint(id)>>6] |= 1 << (uint(id) & 63) }

// newTupleSet returns an empty TupleSet over db's tuple IDs: NumTuples/8
// bytes, allocated per Binding.
func newTupleSet(db *relstore.DB) TupleSet { return make(TupleSet, (db.NumTuples()+63)/64) }
