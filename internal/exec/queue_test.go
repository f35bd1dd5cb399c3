package exec

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"kwsearch/internal/dataset"
	"kwsearch/internal/invindex"
	"kwsearch/internal/relstore"
)

// wholeSet is a job size no root set reaches: one job per CN.
const wholeSet = math.MaxInt

// poolMatchesSerial runs q on a pool of the given size at per roots per
// job and fails unless the answer is byte-identical to want (rendered
// TopKSerial: order, Float64bits, canonical CN and tuple IDs) and the
// stats account for every job.
func poolMatchesSerial(t *testing.T, x *Executor, q Query, workers, per int, want string) Stats {
	t.Helper()
	x.jobRoots = per
	x = fresh(x, x.binder, x.plans) // evaluate, don't replay the previous schedule's answer
	q.Workers = workers
	rs, st, err := x.TopK(context.Background(), q)
	if err != nil {
		t.Fatalf("%v workers=%d roots/job=%d: %v", q.Terms, workers, per, err)
	}
	if got := renderResults(rs); got != want {
		t.Fatalf("%v workers=%d roots/job=%d: answer differs from TopKSerial\ngot:\n%swant:\n%s", q.Terms, workers, per, got, want)
	}
	if st.ResultCacheHit || st.Evaluated+st.Skipped != st.Jobs || st.Workers > st.Jobs {
		t.Fatalf("%v workers=%d roots/job=%d: cached=%v, evaluated %d + skipped %d of %d jobs on %d goroutines",
			q.Terms, workers, per, st.ResultCacheHit, st.Evaluated, st.Skipped, st.Jobs, st.Workers)
	}
	return st
}

// zipfTermPairs draws n distinct two-keyword queries, each term Zipf(1.2)
// over the author/paper vocabulary ranked by document frequency — the
// shape of the benchmark's cn_pool workload, and the pairs
// internal/core's TestAnswerIdenticalAtEveryPoolSize draws from the same
// seed. Conference tokens are left out as the benchmark leaves them out
// (hub joins).
func zipfTermPairs(x *Executor, seed int64, n int) [][]string {
	var vocab []string
	for _, t := range x.ix.Terms() {
		ok := true
		for _, p := range x.ix.Postings(t) {
			tb := x.db.TupleByID(relstore.TupleID(p.Doc)).Table
			ok = ok && (tb == "author" || tb == "paper")
		}
		if ok {
			vocab = append(vocab, t)
		}
	}
	sort.Strings(vocab)
	sort.SliceStable(vocab, func(i, j int) bool { return x.ix.DF(vocab[i]) > x.ix.DF(vocab[j]) })
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.2, 1, uint64(len(vocab)-1))
	seen := map[string]bool{}
	var out [][]string
	for len(out) < n {
		a, b := vocab[z.Uint64()], vocab[z.Uint64()]
		if b < a {
			a, b = b, a
		}
		if a != b && !seen[a+" "+b] {
			seen[a+" "+b] = true
			out = append(out, []string{a, b})
		}
	}
	return out
}

// TestPoolMatchesSerialZipfPairs: over 300 seeded Zipf term pairs on the
// ×1 DBLP corpus (the benchmark's cn_pool shape) the pool's answer is
// byte-identical to TopKSerial at Workers 0, 1, 2 and 4 crossed with 1,
// 64, 1 024 and a whole root set per job. The keyword sets hold hundreds
// of tuples, so every size but the last two splits them.
func TestPoolMatchesSerialZipfPairs(t *testing.T) {
	x := newTestExecutor(3)
	pairs := zipfTermPairs(x, 1, 300)
	if testing.Short() {
		pairs = pairs[:40]
	}
	split := false
	for _, p := range pairs {
		q := Query{Terms: p, K: 10, MaxCNSize: 5}
		want := renderResults(x.TopKSerial(q))
		for _, workers := range []int{0, 1, 2, 4} {
			for _, per := range []int{1, 64, rootsPerJob, wholeSet} {
				st := poolMatchesSerial(t, x, q, workers, per, want)
				split = split || (per == 64 && st.Jobs > st.CNs)
			}
		}
	}
	if !split {
		t.Error("no query's root sets were split at 64 roots per job")
	}
}

// TestPoolMatchesSerialRandomCorpora: across 25 random multi-table
// corpora, two random 1–3 term queries each, the pool's answer is
// byte-identical to TopKSerial at pool sizes 1, 2, 4 and 8 crossed with
// 1, 7 and a whole root set per job (the tables hold 5–29 rows, so
// rootsPerJob would never split them).
func TestPoolMatchesSerialRandomCorpora(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, free := dataset.RandomCorpus(rng, 2+int(seed)%3)
		x := New(db, invindex.FromDB(db), Options{FreeTables: free})
		for i := 0; i < 2; i++ {
			q := Query{Terms: make([]string, 1+rng.Intn(3)), K: 10, MaxCNSize: 5}
			for i := range q.Terms {
				q.Terms[i] = dataset.CorpusVocab[rng.Intn(len(dataset.CorpusVocab))]
			}
			want := renderResults(x.TopKSerial(q))
			for _, workers := range []int{1, 2, 4, 8} {
				for _, per := range []int{1, 7, wholeSet} {
					poolMatchesSerial(t, x, q, workers, per, want)
				}
			}
		}
	}
}

// fuzzCase is one FuzzPoolMatchesSerial input: a RandomCorpus (seed,
// 1–4 entity tables), 1–4 CorpusVocab picks as the query (a word may
// repeat: the pool plans by mask bits, one per pick), k, the pool size
// and the roots per job. Every field is reduced into its range, so any
// bytes the fuzzer invents are a valid case.
type fuzzCase struct {
	seed           int64
	nEnt, nTerms   uint8
	t1, t2, t3, t4 uint8
	k, pool, roots uint8
}

// fuzzSeeds cover what a mutation would take long to find: a root set
// split into one-row jobs, and a queue whose tail the k-th score
// dominates at one worker (TestFuzzSeedsCoverTheQueue holds them to
// it), a query of four distinct words ("search stream keyword index"),
// and a repeated word ("index index"), which the pool plans as two
// terms.
var fuzzSeeds = []fuzzCase{
	{seed: 1, nEnt: 2, nTerms: 1, t1: 1, t2: 2, t3: 3, k: 0, pool: 1, roots: 0},
	{seed: 7, nEnt: 1, nTerms: 0, t1: 3, t2: 0, t3: 0, k: 9, pool: 3, roots: 6},
	{seed: 11, nEnt: 3, nTerms: 2, t1: 0, t2: 5, t3: 11, k: 4, pool: 7, roots: 39},
	{seed: 11, nEnt: 3, nTerms: 1, t1: 0, t2: 6, k: 0, pool: 0, roots: 26},
	{seed: 85, nEnt: 2, nTerms: 3, t1: 2, t2: 9, t3: 1, t4: 5, k: 4, pool: 1, roots: 2},
	{seed: 99, nEnt: 3, nTerms: 1, t1: 5, t2: 5, k: 0, pool: 0, roots: 31},
}

// run builds the case's corpus and checks pool ≡ TopKSerial on it.
func (fc fuzzCase) run(t *testing.T) Stats {
	db, free := dataset.RandomCorpus(rand.New(rand.NewSource(fc.seed)), 1+int(fc.nEnt)%4)
	x := New(db, invindex.FromDB(db), Options{FreeTables: free})
	picks := []uint8{fc.t1, fc.t2, fc.t3, fc.t4}[:1+fc.nTerms%4]
	q := Query{K: 1 + int(fc.k)%20, MaxCNSize: 5}
	for _, p := range picks {
		q.Terms = append(q.Terms, dataset.CorpusVocab[int(p)%len(dataset.CorpusVocab)])
	}
	return poolMatchesSerial(t, x, q, 1+int(fc.pool)%8, 1+int(fc.roots)%40, renderResults(x.TopKSerial(q)))
}

func FuzzPoolMatchesSerial(f *testing.F) {
	for _, fc := range fuzzSeeds {
		f.Add(fc.seed, fc.nEnt, fc.nTerms, fc.t1, fc.t2, fc.t3, fc.t4, fc.k, fc.pool, fc.roots)
	}
	f.Fuzz(func(t *testing.T, seed int64, nEnt, nTerms, t1, t2, t3, t4, k, pool, roots uint8) {
		fuzzCase{seed, nEnt, nTerms, t1, t2, t3, t4, k, pool, roots}.run(t)
	})
}

func TestFuzzSeedsCoverTheQueue(t *testing.T) {
	var split, tail bool
	for _, fc := range fuzzSeeds {
		st := fc.run(t)
		split = split || st.Jobs > st.CNs
		claimed := 0
		for _, n := range st.JobsPerWorker {
			claimed += n
		}
		tail = tail || claimed < st.Jobs
	}
	if !split || !tail {
		t.Errorf("fuzz seeds cover a split root set: %v, a dominated queue tail: %v", split, tail)
	}
}
