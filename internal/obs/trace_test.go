package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeBasics(t *testing.T) {
	root := StartSpan("query")
	root.SetAttr("keywords", "a b")
	c1 := root.Child("clean")
	c1.End()
	c2 := root.Child("evaluate")
	g := c2.Child("worker-0")
	g.SetAttr("jobs", 3)
	g.End()
	c2.End()
	root.End()

	if err := root.WellFormed(time.Second); err != nil {
		t.Fatalf("tree not well-formed: %v", err)
	}
	shape := root.Shape()
	want := "query(keywords)\n  clean\n  evaluate\n    worker-0(jobs)\n"
	if shape != want {
		t.Fatalf("shape:\n%s\nwant:\n%s", shape, want)
	}
	if !strings.Contains(root.String(), "worker-0") {
		t.Fatalf("render missing child:\n%s", root.String())
	}
	if as := g.Attrs(); len(as) != 1 || as[0] != (Attr{"jobs", 3}) {
		t.Fatalf("Attrs() = %+v", as)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	sp := StartSpan("x")
	sp.End()
	d := sp.Duration()
	time.Sleep(time.Millisecond)
	sp.End()
	if sp.Duration() != d {
		t.Fatal("second End must not change the duration")
	}
}

func TestSpanSetAttrOverwrites(t *testing.T) {
	sp := StartSpan("x")
	sp.SetAttr("k", 1)
	sp.SetAttr("k", 2)
	sp.End()
	if len(sp.Attrs()) != 1 || sp.Attrs()[0].Value != 2 {
		t.Fatalf("attrs = %+v", sp.Attrs())
	}
}

// TestSpanRecord checks the one-call form of a caller-timed child: it
// is ended with the given duration, keeps a copy of its attributes in
// order (past the inline buffer too), and a nil parent ignores it.
func TestSpanRecord(t *testing.T) {
	root := StartSpan("evaluate")
	attrs := []Attr{{"jobs", 2}, {"evaluated", 1}, {"skipped", 1}, {"busy", time.Millisecond},
		{"idle", time.Microsecond}, {"a", 6}, {"b", 7}}
	root.Record("worker-0", 5*time.Millisecond, attrs...)
	attrs[0].Value = 99
	for i := 0; i < 8; i++ {
		root.SetAttr(string(rune('k'+i)), i)
	}
	root.End()
	var nilSpan *Span
	nilSpan.Record("worker-1", time.Second, Attr{"jobs", 1})

	kids := root.Children()
	if len(kids) != 1 {
		t.Fatalf("children = %d, want 1", len(kids))
	}
	w := kids[0]
	if !w.Ended() || w.Duration() != 5*time.Millisecond {
		t.Fatalf("recorded span ended %v, duration %v; want ended, 5ms", w.Ended(), w.Duration())
	}
	if got := w.Attrs(); len(got) != 7 || got[0].Value != 2 || got[6].Key != "b" {
		t.Fatalf("recorded attrs = %+v", got)
	}
	if got := root.Attrs(); len(got) != 8 || got[7].Value != 7 {
		t.Fatalf("root attrs = %+v", got)
	}
}

// TestSpanTreeConcurrent grows one span tree from many goroutines —
// the shape the exec worker pool and stream.Pipeline produce — and
// checks well-formedness: no lost children, every span ended, children
// timed inside their parents.
func TestSpanTreeConcurrent(t *testing.T) {
	root := StartSpan("pool")
	var wg sync.WaitGroup
	const workers, jobs = 8, 50
	for w := 0; w < workers; w++ {
		sp := root.Child("worker")
		wg.Add(1)
		go func(sp *Span) {
			defer wg.Done()
			defer sp.End()
			for j := 0; j < jobs; j++ {
				c := sp.Child("job")
				c.SetAttr("j", j)
				c.End()
			}
		}(sp)
	}
	wg.Wait()
	root.End()

	if err := root.WellFormed(time.Second); err != nil {
		t.Fatalf("tree not well-formed: %v", err)
	}
	total := 0
	root.Walk(func(sp *Span, depth int) {
		total++
		if depth == 2 && sp.Name() != "job" {
			t.Fatalf("unexpected depth-2 span %q", sp.Name())
		}
	})
	if want := 1 + workers + workers*jobs; total != want {
		t.Fatalf("tree has %d spans, want %d", total, want)
	}
}

func TestSpanJSON(t *testing.T) {
	root := StartSpan("query")
	c := root.Child("evaluate")
	c.SetAttr("cns", 5)
	c.End()
	root.End()
	data, err := json.Marshal(root)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded struct {
		Name     string `json:"name"`
		Children []struct {
			Name  string            `json:"name"`
			Attrs map[string]string `json:"attrs"`
		} `json:"children"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if decoded.Name != "query" || len(decoded.Children) != 1 ||
		decoded.Children[0].Attrs["cns"] != "5" {
		t.Fatalf("decoded = %+v", decoded)
	}
}

func TestWellFormedDetectsUnended(t *testing.T) {
	root := StartSpan("query")
	root.Child("dangling") // never ended
	root.End()
	if err := root.WellFormed(time.Second); err == nil {
		t.Fatal("WellFormed must flag an unended child")
	}
}
