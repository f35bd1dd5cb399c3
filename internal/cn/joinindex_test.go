package cn

import (
	"fmt"
	"math/rand"
	"testing"

	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/relstore"
	"kwsearch/internal/schemagraph"
)

// bruteTargets is the join the index must reproduce, computed the slow
// way: a tuple of the source table joins the target tuples whose column
// equals its own (Table.SelectEq, insertion order); every other tuple,
// and a NULL, joins nothing.
func bruteTargets(db *relstore.DB, k JoinKey, tp *relstore.Tuple) []relstore.TupleID {
	if tp.Table != k.FromTable {
		return nil
	}
	v := db.Table(k.FromTable).Value(tp, k.FromCol)
	if v.IsNull() {
		return nil
	}
	var out []relstore.TupleID
	for _, m := range db.Table(k.ToTable).SelectEq(k.ToCol, v) {
		out = append(out, m.ID)
	}
	return out
}

// assertJoinIndex compares the index of k with brute force on every
// tuple of the database, source table or not.
func assertJoinIndex(t *testing.T, db *relstore.DB, k JoinKey, label string) {
	t.Helper()
	ji := buildJoinIndex(db, k)
	for id := relstore.TupleID(0); int(id) < db.NumTuples(); id++ {
		got, want := ji.Targets(id), bruteTargets(db, k, db.TupleByID(id))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %v: Targets(%d) = %v, want %v", label, k, id, got, want)
		}
	}
	for _, id := range []relstore.TupleID{-1, relstore.TupleID(db.NumTuples()), relstore.TupleID(db.NumTuples() + 7)} {
		if got := ji.Targets(id); len(got) != 0 {
			t.Fatalf("%s: %v: Targets(%d) = %v for an ID outside the database", label, k, id, got)
		}
	}
}

// bothWays returns the two traversal directions of a schema edge.
func bothWays(e schemagraph.Edge) []JoinKey {
	return []JoinKey{
		{FromTable: e.From, FromCol: e.FromCol, ToTable: e.To, ToCol: e.ToCol},
		{FromTable: e.To, FromCol: e.ToCol, ToTable: e.From, ToCol: e.FromCol},
	}
}

// TestJoinIndexMatchesBruteForceRandomCorpus is the differential gate of
// the one join primitive both evaluators share: on the 25 random
// schemas of the binder tests, every schema edge in both directions
// indexes exactly what scanning the target table finds.
func TestJoinIndexMatchesBruteForceRandomCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		db, _ := dataset.RandomCorpus(rng, 2+rng.Intn(3))
		for _, e := range schemagraph.FromDB(db).Edges() {
			for _, k := range bothWays(e) {
				assertJoinIndex(t, db, k, fmt.Sprintf("trial %d", trial))
			}
		}
	}
}

// TestJoinIndexHandCases covers the shapes the random schemas lack: a
// self-referencing foreign key walked both ways, NULL and dangling
// foreign keys, a foreign key into a non-key column with repeated
// values, unknown tables or columns, and a CN over a join outside the
// schema.
func TestJoinIndexHandCases(t *testing.T) {
	db := relstore.NewDB()
	db.MustCreateTable(&relstore.TableSchema{
		Name: "dept",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.KindInt},
			{Name: "floor", Type: relstore.KindInt},
		},
		Key: "id",
	})
	db.MustCreateTable(&relstore.TableSchema{
		Name: "emp",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.KindInt},
			{Name: "boss", Type: relstore.KindInt},
			{Name: "floor", Type: relstore.KindInt},
		},
		Key: "id",
		// relstore cannot declare emp.boss -> emp.id (a foreign key's
		// table must already exist), but a join index is addressed by
		// columns, not by declarations: the self-join is checked below.
		ForeignKeys: []relstore.ForeignKey{
			{Column: "floor", RefTable: "dept", RefColumn: "floor"},
		},
	})
	null := relstore.Null()
	// Inserts interleave the tables, so neither owns a contiguous ID range.
	emp := func(id int64, boss, floor relstore.Value) {
		db.MustInsert("emp", map[string]relstore.Value{"id": relstore.Int(id), "boss": boss, "floor": floor})
	}
	dept := func(id, floor int64) {
		db.MustInsert("dept", map[string]relstore.Value{"id": relstore.Int(id), "floor": relstore.Int(floor)})
	}
	dept(1, 3)
	emp(1, null, relstore.Int(3))            // the root: NULL boss
	emp(2, relstore.Int(1), relstore.Int(3)) // reports to 1
	dept(2, 3)                               // a second department on floor 3: non-key referent, repeated
	emp(3, relstore.Int(1), relstore.Int(4)) // floor 4 has no department: dangling
	emp(4, relstore.Int(99), null)           // boss 99 does not exist: dangling; NULL floor
	emp(5, relstore.Int(2), relstore.Int(3))
	dept(3, 5) // referenced by nobody

	edges := append(schemagraph.FromDB(db).Edges(),
		schemagraph.Edge{From: "emp", FromCol: "boss", To: "emp", ToCol: "id"})
	for _, e := range edges {
		for _, k := range bothWays(e) {
			assertJoinIndex(t, db, k, "hand")
		}
	}
	// The self-reference, spelled out: reports of 1 and the boss of 5.
	reports := buildJoinIndex(db, JoinKey{FromTable: "emp", FromCol: "id", ToTable: "emp", ToCol: "boss"})
	boss := buildJoinIndex(db, JoinKey{FromTable: "emp", FromCol: "boss", ToTable: "emp", ToCol: "id"})
	byKey := func(id int64) relstore.TupleID {
		tp, _ := db.Table("emp").ByKey(relstore.Int(id))
		return tp.ID
	}
	if got, want := fmt.Sprint(reports.Targets(byKey(1))), fmt.Sprint([]relstore.TupleID{byKey(2), byKey(3)}); got != want {
		t.Errorf("reports of emp 1 = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(boss.Targets(byKey(5))), fmt.Sprint([]relstore.TupleID{byKey(2)}); got != want {
		t.Errorf("boss of emp 5 = %s, want %s", got, want)
	}
	if got := boss.Targets(byKey(1)); len(got) != 0 {
		t.Errorf("boss of the root = %v, want none (NULL)", got)
	}

	// Unknown names index nothing rather than failing.
	for _, k := range []JoinKey{
		{FromTable: "nope", FromCol: "id", ToTable: "emp", ToCol: "id"},
		{FromTable: "emp", FromCol: "id", ToTable: "nope", ToCol: "id"},
		{FromTable: "emp", FromCol: "nope", ToTable: "emp", ToCol: "id"},
		{FromTable: "emp", FromCol: "id", ToTable: "emp", ToCol: "nope"},
	} {
		ji := buildJoinIndex(db, k)
		for id := relstore.TupleID(0); int(id) < db.NumTuples(); id++ {
			if got := ji.Targets(id); len(got) != 0 {
				t.Fatalf("%v: Targets(%d) = %v, want none", k, id, got)
			}
		}
	}

	// A binder indexes only the declared foreign keys, so emp.boss is a
	// join outside its schema: a hand-built CN over it joins nothing
	// there and must not panic.
	self := schemagraph.Edge{From: "emp", FromCol: "boss", To: "emp", ToCol: "id"}
	c := &CN{
		Nodes: []NodeSpec{{Table: "emp"}, {Table: "emp", Free: true}},
		Edges: []EdgeSpec{{A: 0, B: 1, Via: self}},
	}
	ev := NewBinder(db, invindex.FromDB(db)).BindTraced([]string{"boss"}, nil)
	for _, k := range bothWays(self) {
		if got := ev.join(k).Targets(byKey(5)); len(got) != 0 {
			t.Errorf("%v outside the schema: Targets = %v, want none", k, got)
		}
	}
	for _, id := range []int64{1, 5} {
		if rs := ev.EvaluateCNWith(c, 0, db.TupleByID(byKey(id))); len(rs) != 0 {
			t.Errorf("CN over a join outside the schema from emp %d: %d results, want none", id, len(rs))
		}
	}

	// A tuple inserted after the build lies beyond the index: it joins
	// nothing (a Binder's database must not change once it is built).
	emp(6, relstore.Int(1), relstore.Int(3))
	if got := reports.Targets(byKey(6)); len(got) != 0 {
		t.Errorf("tuple inserted after the build joins %v", got)
	}
}

// fkCorpus decodes fuzz bytes into a two-table database whose foreign
// key columns hold whatever the bytes say. Four bytes make one row: the
// first picks the table (so the tables' tuple IDs interleave), the rest
// are column values, where a multiple of 5 is NULL and anything else a
// small integer — small enough that values repeat, large enough that
// many reference no existing key. emp.boss references emp.id (a
// self-reference), emp.dept a key and emp.floor a non-key column. Each
// row's txt is the CorpusVocab word the first byte picks, so the
// kernel fuzz has keywords to query.
func fkCorpus(data []byte) *relstore.DB {
	db := relstore.NewDB()
	db.MustCreateTable(&relstore.TableSchema{
		Name: "dept",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.KindInt},
			{Name: "floor", Type: relstore.KindInt},
			{Name: "txt", Type: relstore.KindString, Text: true},
		},
		Key: "id",
	})
	db.MustCreateTable(&relstore.TableSchema{
		Name: "emp",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.KindInt},
			{Name: "boss", Type: relstore.KindInt},
			{Name: "dept", Type: relstore.KindInt},
			{Name: "floor", Type: relstore.KindInt},
			{Name: "txt", Type: relstore.KindString, Text: true},
		},
		Key: "id",
	})
	val := func(b byte) relstore.Value {
		if b%5 == 0 {
			return relstore.Null()
		}
		return relstore.Int(int64(b % 13))
	}
	var depts, emps int64
	for ; len(data) >= 4; data = data[4:] {
		txt := relstore.String(dataset.CorpusVocab[int(data[0]/3)%len(dataset.CorpusVocab)])
		if data[0]%3 == 0 {
			depts++
			db.MustInsert("dept", map[string]relstore.Value{"id": relstore.Int(depts), "floor": val(data[1]), "txt": txt})
		} else {
			emps++
			db.MustInsert("emp", map[string]relstore.Value{
				"id": relstore.Int(emps), "boss": val(data[1]), "dept": val(data[2]), "floor": val(data[3]), "txt": txt,
			})
		}
	}
	return db
}

// FuzzJoinIndexMatchesSelectEq checks the CSR join index against
// Table.SelectEq on generated foreign-key columns — NULLs, dangling
// values, repeated non-key referents and a self-reference — in both
// directions of every join.
func FuzzJoinIndexMatchesSelectEq(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 0, 1, 1, 1, 3, 1, 5, 7, 4, 3, 3, 0, 0, 2, 2, 12, 3})
	f.Add([]byte("\x01\x01\x01\x01\x01\x01\x01\x01\x01\x02\x00\x00")) // one boss chain, no departments
	f.Fuzz(func(t *testing.T, data []byte) {
		db := fkCorpus(data)
		for _, e := range []schemagraph.Edge{
			{From: "emp", FromCol: "boss", To: "emp", ToCol: "id"},
			{From: "emp", FromCol: "dept", To: "dept", ToCol: "id"},
			{From: "emp", FromCol: "floor", To: "dept", ToCol: "floor"},
		} {
			for _, k := range bothWays(e) {
				assertJoinIndex(t, db, k, "fuzz")
			}
		}
	})
}
