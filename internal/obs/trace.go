package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values render with %v;
// keep them small (counts, terms, booleans) — spans are kept for the
// whole query and may be serialized to JSON.
type Attr struct {
	Key   string
	Value interface{}
}

// Span is one timed stage of a query pipeline: a name, a duration, an
// ordered attribute list, and child spans forming a tree. Spans are
// concurrency-safe (children may be started and attributes set from
// multiple goroutines) and nil-safe: every method no-ops on a nil span,
// so passing a nil *Span disables tracing for free.
//
// The usual shape is
//
//	sp := obs.StartSpan("query")
//	defer sp.End()
//	child := sp.Child("evaluate")
//	...
//	child.SetAttr("cns", len(cns))
//	child.End()
type Span struct {
	name  string
	start time.Duration // since epoch
	dur   time.Duration
	ended bool
	tree  *tree

	attrs []Attr
	// Children in creation order, as a list: adopting one allocates
	// nothing.
	first, last, next *Span
	attrBuf           [5]Attr // backs attrs while they fit (a worker span's five)
}

// treeSpans spans are stored inline in a tree: a CN query's root, its
// five stages and up to eight worker spans. Later spans are allocated
// one by one.
const treeSpans = 14

// tree is what every span under one root shares: one lock and the
// spans' storage, spans[0] being the root. A released tree goes back
// to trees, so a sampled query that is not retained allocates no span.
type tree struct {
	mu    sync.Mutex
	n     int // spans handed out from spans
	spans [treeSpans]Span
}

var trees = sync.Pool{New: func() any { return new(tree) }}

// epoch anchors span clocks: a span reads only the monotonic clock,
// which costs about half of a time.Now.
var epoch = time.Now()

// StartSpan begins a root span.
func StartSpan(name string) *Span {
	t := trees.Get().(*tree)
	t.n = 1
	s := &t.spans[0]
	s.name, s.start, s.tree = name, time.Since(epoch), t
	s.attrs = s.attrBuf[:0]
	return s
}

// Release hands the tree rooted at s back for reuse by a later
// StartSpan. Call it once on a root span when nothing will read or
// write any span of its tree again, or not at all: an unreleased tree
// is simply garbage collected. On a nil or non-root span, or a root
// just released, it does nothing.
func (s *Span) Release() {
	if s == nil || s.tree == nil || s != &s.tree.spans[0] {
		return
	}
	t := s.tree
	clear(t.spans[:t.n]) // drops what the attributes referred to
	trees.Put(t)
}

// newChild hands out the tree's next span and appends it to s's
// children. The caller holds the tree lock.
func (s *Span) newChild(name string) *Span {
	t := s.tree
	var c *Span
	if t.n < treeSpans {
		c = &t.spans[t.n]
		t.n++
	} else {
		c = new(Span)
	}
	c.name, c.tree = name, t
	c.attrs = c.attrBuf[:0]
	if s.last == nil {
		s.first = c
	} else {
		s.last.next = c
	}
	s.last = c
	return c
}

// Child begins a child span under s. On a nil span it returns nil, so
// an entire untraced call tree stays allocation-free.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	start := time.Since(epoch)
	s.tree.mu.Lock()
	c := s.newChild(name)
	c.start = start
	s.tree.mu.Unlock()
	return c
}

// Record adds an ended child span under s: a stage its caller has timed
// itself, lasting d, with attrs (distinct keys), under one lock and no
// clock read. On a nil span it does nothing.
func (s *Span) Record(name string, d time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	c := s.newChild(name)
	c.dur, c.ended = d, true
	c.attrs = append(c.attrs, attrs...)
	s.tree.mu.Unlock()
}

// End sets attrs as SetAttr would and stops the span's clock, under one
// lock. Only the first call records the duration.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	now := time.Since(epoch)
	s.tree.mu.Lock()
	for _, a := range attrs {
		s.setAttr(a.Key, a.Value)
	}
	if !s.ended {
		s.ended = true
		s.dur = now - s.start
	}
	s.tree.mu.Unlock()
}

// SetAttr sets an attribute, overwriting an earlier value for the same
// key (insertion order is preserved, so rendering is deterministic).
func (s *Span) SetAttr(key string, value interface{}) {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	s.setAttr(key, value)
	s.tree.mu.Unlock()
}

func (s *Span) setAttr(key string, value interface{}) {
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Name returns the span's stage name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded duration (0 while the span is live or
// on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	return s.dur
}

// Ended reports whether End has been called.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	return s.ended
}

// Attrs returns a copy of the attribute list.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns a copy of the child-span list in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	var kids []*Span
	for c := s.first; c != nil; c = c.next {
		kids = append(kids, c)
	}
	return kids
}

// Walk visits s and every descendant pre-order, passing the depth
// (0 for s itself).
func (s *Span) Walk(fn func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	var rec func(sp *Span, depth int)
	rec = func(sp *Span, depth int) {
		fn(sp, depth)
		for _, c := range sp.Children() {
			rec(c, depth+1)
		}
	}
	rec(s, 0)
}

// WellFormed checks the tree invariants the tracer guarantees once the
// root has ended: every span ended, and no child's duration exceeds its
// parent's by more than slack (children are timed inside their parent;
// slack absorbs scheduling noise between a child's End and the
// parent's). It returns the first violation found, or nil.
func (s *Span) WellFormed(slack time.Duration) error {
	if s == nil {
		return nil
	}
	var check func(sp *Span) error
	check = func(sp *Span) error {
		if !sp.Ended() {
			return fmt.Errorf("span %q not ended", sp.Name())
		}
		for _, c := range sp.Children() {
			if c.Duration() > sp.Duration()+slack {
				return fmt.Errorf("child %q (%v) outlives parent %q (%v)",
					c.Name(), c.Duration(), sp.Name(), sp.Duration())
			}
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(s)
}

// attrString renders the attribute list as "k=v k=v".
func attrString(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = fmt.Sprintf("%s=%v", a.Key, a.Value)
	}
	return strings.Join(parts, " ")
}

// String renders the span tree indented, one span per line with its
// duration and attributes — the kwsearch -trace output.
func (s *Span) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.Walk(func(sp *Span, depth int) {
		fmt.Fprintf(&b, "%s%s  %s", strings.Repeat("  ", depth), sp.Name(), sp.Duration().Round(time.Microsecond))
		if as := attrString(sp.Attrs()); as != "" {
			fmt.Fprintf(&b, "  [%s]", as)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// Shape renders the tree's structure without timings: span names and
// sorted attribute keys, children in creation order. Two traces of the
// same query on the same data produce equal shapes, which is what the
// golden trace tests pin.
func (s *Span) Shape() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.Walk(func(sp *Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(sp.Name())
		attrs := sp.Attrs()
		if len(attrs) > 0 {
			keys := make([]string, len(attrs))
			for i, a := range attrs {
				keys[i] = a.Key
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "(%s)", strings.Join(keys, ","))
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// spanJSON is the serialized form of one span.
type spanJSON struct {
	Name     string            `json:"name"`
	Nanos    int64             `json:"ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []spanJSON        `json:"children,omitempty"`
}

func (s *Span) toJSON() spanJSON {
	j := spanJSON{Name: s.Name(), Nanos: s.Duration().Nanoseconds()}
	if attrs := s.Attrs(); len(attrs) > 0 {
		j.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			j.Attrs[a.Key] = fmt.Sprintf("%v", a.Value)
		}
	}
	for _, c := range s.Children() {
		j.Children = append(j.Children, c.toJSON())
	}
	return j
}

// MarshalJSON serializes the span tree (names, nanosecond durations,
// stringified attributes) — the kwsearch -json trace payload.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.toJSON())
}
