package main

// This file is the benchmark's own span recorder. Spans are kept in
// memory around the calls into each layer and written out when the run
// ends; nothing inside the program under test is instrumented.

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer was made, Parent indexes the span that caused it (-1 for a
// root), Req is the operation index every span of one tree shares.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer records spans. begin nests a span under the innermost span
// still open for the same request, so the HTTP client, the handler
// wrapper and the searcher wrapper build one tree per request without
// passing span ids across the wire.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[int]int // request -> innermost open span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[int]int{}}
}

func (t *tracer) begin(name string, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.open[req]
	if !ok {
		parent = -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req})
	t.open[req] = id
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id]
	sp.End = now
	if sp.Parent < 0 {
		delete(t.open, sp.Req)
	} else {
		t.open[sp.Req] = sp.Parent
	}
}

// selfTimes returns each span's duration minus the part its children
// cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.End - sp.Start
		}
	}
	return self
}

// wellFormed checks that every child lies inside its parent, shares its
// request id, and that no self time is negative.
func wellFormed(spans []span) error {
	for i, sp := range spans {
		if sp.End < sp.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, sp.Name)
		}
		if sp.Parent < 0 {
			continue
		}
		if sp.Parent >= i {
			return fmt.Errorf("span %d (%s) precedes its parent %d", i, sp.Name, sp.Parent)
		}
		p := spans[sp.Parent]
		if sp.Start < p.Start || sp.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %s", i, sp.Name, p.Name)
		}
		if sp.Req != p.Req {
			return fmt.Errorf("span %d (%s) has request %d, its parent %d", i, sp.Name, sp.Req, p.Req)
		}
	}
	for i, s := range selfTimes(spans) {
		if s < 0 {
			return fmt.Errorf("span %d (%s) has self time %d ns", i, spans[i].Name, s)
		}
	}
	return nil
}

// perRequest returns, indexed by request, the summed value of the spans
// called name; val picks duration or self time.
func perRequest(spans []span, val []int64, name string, n int) []float64 {
	out := make([]float64, n)
	for i, sp := range spans {
		if sp.Name == name && sp.Req >= 0 && sp.Req < n {
			out[sp.Req] += float64(val[i])
		}
	}
	return out
}

func durations(spans []span) []int64 {
	d := make([]int64, len(spans))
	for i, sp := range spans {
		d[i] = sp.End - sp.Start
	}
	return d
}

func writeSpans(path, workload string, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
