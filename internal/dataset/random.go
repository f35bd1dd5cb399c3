package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"kwsearch/internal/relstore"
)

// CorpusVocab is the vocabulary RandomCorpus draws text from. It is
// small on purpose: terms collide across tables and tuples, so queries
// over it hit several tables, multi-term tuples and plenty of near-ties.
var CorpusVocab = []string{
	"query", "keyword", "search", "database", "join", "index",
	"graph", "rank", "tuple", "stream", "cache", "widom",
}

// RandomCorpus builds a random bibliography-shaped database for
// differential tests: nEnt entity tables ent0… (id key + text column of
// 1-3 CorpusVocab words, 5-29 rows) chained by link tables link1… of
// 10-39 random pairs. It returns the DB and the link (free) table names.
func RandomCorpus(rng *rand.Rand, nEnt int) (*relstore.DB, []string) {
	db := relstore.NewDB()
	for i := 0; i < nEnt; i++ {
		db.MustCreateTable(&relstore.TableSchema{
			Name: fmt.Sprintf("ent%d", i),
			Columns: []relstore.Column{
				{Name: "id", Type: relstore.KindInt},
				{Name: "txt", Type: relstore.KindString, Text: true},
			},
			Key: "id",
		})
	}
	var free []string
	for i := 1; i < nEnt; i++ {
		name := fmt.Sprintf("link%d", i)
		free = append(free, name)
		db.MustCreateTable(&relstore.TableSchema{
			Name: name,
			Columns: []relstore.Column{
				{Name: "a", Type: relstore.KindInt},
				{Name: "b", Type: relstore.KindInt},
			},
			ForeignKeys: []relstore.ForeignKey{
				{Column: "a", RefTable: fmt.Sprintf("ent%d", i-1), RefColumn: "id"},
				{Column: "b", RefTable: fmt.Sprintf("ent%d", i), RefColumn: "id"},
			},
		})
	}
	rows := make([]int, nEnt)
	for i := 0; i < nEnt; i++ {
		rows[i] = 5 + rng.Intn(25)
		for r := 0; r < rows[i]; r++ {
			words := make([]string, 1+rng.Intn(3))
			for w := range words {
				words[w] = pick(rng, CorpusVocab)
			}
			db.MustInsert(fmt.Sprintf("ent%d", i), map[string]relstore.Value{
				"id":  relstore.Int(int64(r)),
				"txt": relstore.String(strings.Join(words, " ")),
			})
		}
	}
	for i := 1; i < nEnt; i++ {
		for r := 0; r < 10+rng.Intn(30); r++ {
			db.MustInsert(fmt.Sprintf("link%d", i), map[string]relstore.Value{
				"a": relstore.Int(int64(rng.Intn(rows[i-1]))),
				"b": relstore.Int(int64(rng.Intn(rows[i]))),
			})
		}
	}
	return db, free
}
