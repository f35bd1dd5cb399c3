// Package fixture exercises the ctxdrop rule: in a function that does
// consult its context, every path that blocks or admits work must have
// consulted it first — fast paths and communicating loops included.
package fixture

import "context"

type gate struct {
	slots chan struct{}
}

// FastPathSkipsCtx is the PR 5 Gate.Acquire bug in miniature: the
// free-slot fast path admits without ever looking at ctx, so an
// already-cancelled query still grabs a slot.
func (g *gate) FastPathSkipsCtx(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}: // want "never consulted ctx"
		return nil
	default:
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ChecksErrFirst consults ctx before the fast path: silent.
func (g *gate) ChecksErrFirst(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DrainLoopIgnoresCtx checks ctx once at entry, then pumps forever: the
// loop body never consults ctx, so cancellation cannot interrupt it.
func DrainLoopIgnoresCtx(ctx context.Context, in <-chan int, out chan<- int) {
	if ctx.Err() != nil {
		return
	}
	for v := range in { // want "cancellation cannot interrupt"
		out <- v
	}
}

// DrainLoopGuarded selects on ctx.Done each iteration: silent.
func DrainLoopGuarded(ctx context.Context, in <-chan int, out chan<- int) {
	for v := range in {
		select {
		case out <- v:
		case <-ctx.Done():
			return
		}
	}
}

// DrainLoopErrCheck consults ctx.Err inside the loop body: silent (the
// send itself is reached only after a consult on every iteration).
func DrainLoopErrCheck(ctx context.Context, in <-chan int, out chan<- int) {
	for v := range in {
		if ctx.Err() != nil {
			return
		}
		out <- v
	}
}

// WorkerFastPath: a spawned worker captures ctx; its own fast path sends
// without consulting it even though its slow path does.
func WorkerFastPath(ctx context.Context, out chan<- int, fast bool) {
	go func() {
		if fast {
			out <- 1 // want "never consulted ctx"
			return
		}
		select {
		case out <- 2:
		case <-ctx.Done():
		}
	}()
}

// IgnoresCtxEntirely never consults ctx at all: that is ctxfirst's
// finding, not a dropped fast path. Silent here.
func IgnoresCtxEntirely(ctx context.Context, ch chan int) {
	ch <- 1
}

// PassesCtxDownstream consults by delegation: handing ctx to a callee
// counts, so the send after it is on a consulted path. Silent.
func PassesCtxDownstream(ctx context.Context, ch chan int, work func(context.Context) error) error {
	if err := work(ctx); err != nil {
		return err
	}
	ch <- 1
	return nil
}

// The functions below pin one control-flow shape each: the consulted
// fact must survive (or not) the statement exactly as it does on the
// paths a Go program can take.

// BothBranchesConsult consults ctx on the if branch and on the else
// branch, so the send after the if is covered. Silent.
func BothBranchesConsult(ctx context.Context, ch chan int, fast bool, work func(context.Context)) {
	if fast {
		if ctx.Err() != nil {
			return
		}
	} else {
		work(ctx)
	}
	ch <- 1
}

// IfWithoutElse: the path that skips the if never consulted ctx.
func IfWithoutElse(ctx context.Context, ch chan int, slow bool, work func(context.Context)) {
	if slow {
		work(ctx)
	}
	ch <- 1 // want "never consulted ctx"
}

// SwitchWithDefault: every clause, default included, consults. Silent.
func SwitchWithDefault(ctx context.Context, ch chan int, mode int, work func(context.Context)) {
	switch mode {
	case 0:
		work(ctx)
	case 1, 2:
		if ctx.Err() != nil {
			return
		}
	default:
		_ = ctx.Err()
	}
	ch <- 1
}

// SwitchWithoutDefault: a switch with no default may match no clause,
// and that path never consulted ctx.
func SwitchWithoutDefault(ctx context.Context, ch chan int, mode int, work func(context.Context)) {
	switch mode {
	case 0:
		work(ctx)
	case 1:
		_ = ctx.Err()
	}
	ch <- 1 // want "never consulted ctx"
}

// TypeSwitch: the string clause sends before consulting, and the path
// through it reaches the send after the switch unconsulted too.
func TypeSwitch(ctx context.Context, ch chan int, v any, work func(context.Context)) {
	switch x := v.(type) {
	case int:
		work(ctx)
		ch <- x
	case string:
		ch <- len(x) // want "never consulted ctx"
	default:
		work(ctx)
	}
	ch <- 0 // want "never consulted ctx"
}

// SelectDoneClauseSends: the ctx.Done clause consulted ctx in its comm,
// so its body's send is covered; the other clause's body is not.
func SelectDoneClauseSends(ctx context.Context, in <-chan int, out, errs chan int) {
	select {
	case <-ctx.Done():
		errs <- 1
	case v := <-in:
		out <- v // want "never consulted ctx"
	}
}

// ForCondConsults re-checks ctx in the loop condition, so the sends in
// the body and after the loop are covered. The loop half reads only the
// body, which never consults, so it still reports the loop.
func ForCondConsults(ctx context.Context, ch chan int) {
	for ctx.Err() == nil { // want "cancellation cannot interrupt"
		ch <- 1
	}
	ch <- 2
}

// ReturnEndsPath: the branch that skips the consult returns, so only
// the consulting branch reaches the send. Silent.
func ReturnEndsPath(ctx context.Context, ch chan int, ok bool, work func(context.Context)) {
	if ok {
		work(ctx)
	} else {
		return
	}
	ch <- 1
}

// PanicEndsPath: the clause that never consults panics, so only
// consulting clauses reach the send. Silent.
func PanicEndsPath(ctx context.Context, ch chan int, mode int, work func(context.Context)) {
	switch mode {
	case 0:
		panic("unknown mode")
	default:
		work(ctx)
	}
	ch <- 1
}

// BreakLeavesSwitch: the break jumps past the clause's consult, so the
// send after the switch is on a path that never consulted ctx.
func BreakLeavesSwitch(ctx context.Context, ch chan int, mode int, skip bool, work func(context.Context)) {
	switch mode {
	case 0:
		if skip {
			break
		}
		work(ctx)
	default:
		work(ctx)
	}
	ch <- 1 // want "never consulted ctx"
}

// LabeledBreak leaves the condition-less outer loop only through the
// labeled break behind a ctx check, so the send after the loop is
// covered although the loop header never consults. Silent.
func LabeledBreak(ctx context.Context, in <-chan int, out chan int) {
outer:
	for {
		for v := range in {
			if ctx.Err() != nil {
				break outer
			}
			out <- v
		}
	}
	out <- 0
}

// GotoSkipsConsult: the goto jumps over the consult to the label, so the
// send there is reached on an unconsulted path.
func GotoSkipsConsult(ctx context.Context, ch chan int, skip bool, work func(context.Context)) {
	if skip {
		goto send
	}
	work(ctx)
send:
	ch <- 1 // want "never consulted ctx"
}

// FallthroughCarriesPath: the first clause's unconsulted end flows into
// the default clause, which consults, not past the switch. Silent.
func FallthroughCarriesPath(ctx context.Context, ch chan int, mode int, work func(context.Context)) {
	switch mode {
	case 0:
		fallthrough
	default:
		work(ctx)
	}
	ch <- 1
}

// DeadCodeAfterReturn: no path reaches the send after the return.
// Silent.
func DeadCodeAfterReturn(ctx context.Context, ch chan int, work func(context.Context)) {
	if ch == nil {
		return
		ch <- 1
	}
	work(ctx)
}

// ContinueEndsPath: the branch that skips the consult starts the next
// iteration, so only the consulting branch reaches the send. Silent.
func ContinueEndsPath(ctx context.Context, in <-chan int, out chan int, work func(context.Context)) {
	for v := range in {
		if v < 0 {
			continue
		} else {
			work(ctx)
		}
		out <- v
	}
}
