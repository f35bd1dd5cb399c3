package rules

import (
	"go/ast"
	"go/token"
	"go/types"

	"kwsearch/internal/analysis"
)

// CtxDrop is the path-sensitive companion to CtxFirst: where CtxFirst
// asks "does this function take and touch a context at all", CtxDrop
// asks "does every path that blocks or admits work actually consult it
// first". It walks the function's statements carrying the must-fact
// "ctx consulted on every path so far" (see consultWalk) and flags:
//
//   - fast paths: a channel send/receive reached by a path on which the
//     context was never consulted, in a function that does consult it
//     elsewhere. This is the PR 5 Gate bug: Acquire's free-slot fast
//     path admitted already-cancelled queries because only the slow
//     (queue) path checked ctx.
//   - loops: a for/range whose body communicates on a channel but never
//     consults the context inside the loop, so cancellation cannot
//     interrupt the iteration.
//
// A channel operation inside a select that also has a ctx.Done() case is
// the cancellation idiom itself and never flagged. "Consult" means
// calling ctx.Err/Done/Deadline/Value or passing ctx to another call.
type CtxDrop struct{}

// Name implements analysis.Rule.
func (CtxDrop) Name() string { return "ctxdrop" }

// Doc implements analysis.Rule.
func (CtxDrop) Doc() string {
	return "every path that blocks or admits work must consult ctx first: check ctx.Err() on fast paths and inside communicating loops"
}

// Check implements analysis.Rule.
func (r CtxDrop) Check(p *analysis.Pass) {
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ctx := ctxParamObject(p, fn.Type)
			if ctx == nil {
				continue
			}
			r.checkBody(p, ctx, fn.Body)
			// Worker goroutines and closures capture the same ctx; each
			// literal body is its own control-flow universe.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					r.checkBody(p, ctx, lit.Body)
				}
				return true
			})
		}
	}
}

// ctxObj identifies the context parameter: by type-checker object when
// available, by name otherwise.
type ctxObj struct {
	obj  types.Object
	name string
}

// ctxParamObject resolves the function's context.Context parameter.
func ctxParamObject(p *analysis.Pass, ft *ast.FuncType) *ctxObj {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		if !isContextType(p, field.Type) || len(field.Names) == 0 {
			continue
		}
		id := field.Names[0]
		if id.Name == "_" {
			return nil
		}
		c := &ctxObj{name: id.Name}
		if p.Info != nil {
			c.obj = p.Info.Defs[id]
		}
		return c
	}
	return nil
}

// refersToCtx reports whether id is the context parameter.
func (c *ctxObj) refersTo(p *analysis.Pass, id *ast.Ident) bool {
	if c.obj != nil && p.Info != nil {
		return p.Info.Uses[id] == c.obj
	}
	return id.Name == c.name
}

func (r CtxDrop) checkBody(p *analysis.Pass, ctx *ctxObj, body *ast.BlockStmt) {
	// Precondition: the body (or the function it belongs to) consults
	// ctx somewhere. A function that ignores its context entirely is
	// CtxFirst's finding, not a dropped fast path.
	if !r.consultsAnywhere(p, ctx, body) {
		return
	}
	guarded := guardedChannelOps(p, ctx, body)
	w := &consultWalk{p: p, ctx: ctx, r: r, open: map[ast.Node]bool{}, gotos: map[string]pathFact{}}
	w.stmt(body, open)

	// Fast paths: channel ops reached on a path that never consulted ctx.
	for _, op := range channelOps(p, ctx, body) {
		if guarded[op.node] || !w.open[op.node] {
			continue
		}
		p.Reportf(op.node.Pos(), "%s on a path that never consulted %s: a cancelled caller can still %s; check %s.Err() before the fast path",
			op.what, ctx.name, op.verb, ctx.name)
	}

	// Loops: a communicating loop must consult ctx every iteration.
	analysis.WalkShallow(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			loopBody = n.Body
		case *ast.RangeStmt:
			loopBody = n.Body
		default:
			return true
		}
		ops := channelOps(p, ctx, loopBody)
		unguardedOp := false
		for _, op := range ops {
			if !guarded[op.node] {
				unguardedOp = true
			}
		}
		if !unguardedOp {
			return true
		}
		if r.consultsAnywhere(p, ctx, loopBody) {
			return true
		}
		p.Reportf(n.Pos(), "loop communicates on channels but never consults %s: cancellation cannot interrupt it; check %s.Err() or select on %s.Done() each iteration",
			ctx.name, ctx.name, ctx.name)
		return true
	})
}

// chanOp is one channel communication relevant to the rule.
type chanOp struct {
	node ast.Node
	what string
	verb string
}

// channelOps collects channel sends and receives in body (shallow:
// nested function literals excluded), skipping receives from ctx.Done().
func channelOps(p *analysis.Pass, ctx *ctxObj, body ast.Node) []chanOp {
	var ops []chanOp
	analysis.WalkShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			ops = append(ops, chanOp{node: n, what: "channel send", verb: "be admitted"})
		case *ast.UnaryExpr:
			if n.Op.String() != "<-" {
				return true
			}
			if isCtxDoneCall(p, ctx, n.X) {
				return true
			}
			ops = append(ops, chanOp{node: n, what: "channel receive", verb: "block here"})
		}
		return true
	})
	return ops
}

// guardedChannelOps returns the channel operations appearing as comm
// clauses of a select that also selects on ctx.Done() — the cancellation
// idiom, exempt from flagging.
func guardedChannelOps(p *analysis.Pass, ctx *ctxObj, body ast.Node) map[ast.Node]bool {
	guarded := map[ast.Node]bool{}
	analysis.WalkShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDone := false
		for _, c := range sel.Body.List {
			cc := c.(*ast.CommClause)
			if commReceivesDone(p, ctx, cc.Comm) {
				hasDone = true
			}
		}
		if !hasDone {
			return true
		}
		for _, c := range sel.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm == nil {
				continue
			}
			analysis.WalkShallow(cc.Comm, func(m ast.Node) bool {
				switch m.(type) {
				case *ast.SendStmt, *ast.UnaryExpr:
					guarded[m] = true
				}
				return true
			})
		}
		return true
	})
	return guarded
}

// commReceivesDone reports whether a select comm statement receives from
// ctx.Done().
func commReceivesDone(p *analysis.Pass, ctx *ctxObj, comm ast.Stmt) bool {
	found := false
	if comm == nil {
		return false
	}
	analysis.WalkShallow(comm, func(n ast.Node) bool {
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op.String() == "<-" && isCtxDoneCall(p, ctx, ue.X) {
			found = true
		}
		return true
	})
	return found
}

// isCtxDoneCall reports whether e is ctx.Done().
func isCtxDoneCall(p *analysis.Pass, ctx *ctxObj, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && ctx.refersTo(p, id)
}

// nodeConsults reports whether the block node consults ctx: calls
// ctx.Err/Done/Deadline/Value or passes ctx to a call.
func (r CtxDrop) nodeConsults(p *analysis.Pass, ctx *ctxObj, n ast.Node) bool {
	found := false
	analysis.WalkShallow(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Err", "Done", "Deadline", "Value":
				if id, ok := sel.X.(*ast.Ident); ok && ctx.refersTo(p, id) {
					found = true
					return false
				}
			}
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && ctx.refersTo(p, id) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// consultsAnywhere reports whether any node in body consults ctx,
// including inside nested literals (a worker that selects on ctx.Done()
// counts for its parent's precondition).
func (r CtxDrop) consultsAnywhere(p *analysis.Pass, ctx *ctxObj, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if r.nodeConsults(p, ctx, n) {
			found = true
			return false
		}
		return true
	})
	return found
}

// pathFact is the structured walk's state at one program point: whether
// every path reaching it consulted ctx, or no path reaches it at all.
type pathFact uint8

const (
	dead      pathFact = iota // no path reaches this point
	open                      // some path reaches it without consulting ctx
	consulted                 // every path reaching it consulted ctx
)

// and joins the facts of paths meeting at one point: consulted only if
// every live path consulted.
func (f pathFact) and(g pathFact) pathFact {
	switch {
	case f == dead:
		return g
	case g == dead:
		return f
	}
	return min(f, g)
}

// consultWalk carries the must-fact "ctx consulted on every path so far"
// through a body's statements in source order and records each channel
// operation reached while the fact is open. Loops are read once: only
// the header decides the fact inside and after them, since facts only
// grow along a path and a back edge can therefore add nothing.
type consultWalk struct {
	p   *analysis.Pass
	ctx *ctxObj
	r   CtxDrop
	// open holds the channel operations reached on an unconsulted path.
	open map[ast.Node]bool
	// targets are the enclosing breakable statements, innermost last.
	targets []breakTarget
	// gotos joins the facts at goto statements, by label.
	gotos map[string]pathFact
	// through is the fact at a fallthrough, for the next case clause.
	through pathFact
	// label names the statement about to be walked, if it is labeled.
	label string
}

// breakTarget is one enclosing for, range, switch or select, with the
// join of the facts at the breaks that leave it.
type breakTarget struct {
	label string
	fact  pathFact
}

// node applies one simple statement or expression: its channel ops see
// the incoming fact, and a consult in it makes the outgoing fact true.
func (w *consultWalk) node(n ast.Node, in pathFact) pathFact {
	if n == nil || in != open {
		return in
	}
	analysis.WalkShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.SendStmt:
			w.open[m] = true
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				w.open[m] = true
			}
		}
		return true
	})
	if w.r.nodeConsults(w.p, w.ctx, n) {
		return consulted
	}
	return open
}

func (w *consultWalk) stmts(list []ast.Stmt, in pathFact) pathFact {
	for _, s := range list {
		in = w.stmt(s, in)
	}
	return in
}

// stmt walks s from the fact in and returns the fact after it.
func (w *consultWalk) stmt(s ast.Stmt, in pathFact) pathFact {
	label := w.label
	w.label = ""
	switch s := s.(type) {
	case nil:
		return in
	case *ast.BlockStmt:
		return w.stmts(s.List, in)
	case *ast.LabeledStmt:
		w.label = s.Label.Name
		return w.stmt(s.Stmt, in.and(w.gotos[s.Label.Name]))
	case *ast.IfStmt:
		cond := w.node(s.Cond, w.stmt(s.Init, in))
		return w.stmt(s.Body, cond).and(w.stmt(s.Else, cond))
	case *ast.ForStmt:
		head := w.node(s.Cond, w.stmt(s.Init, in))
		breaks := w.breakable(label, func() { w.stmt(s.Body, head) })
		w.stmt(s.Post, head)
		if s.Cond == nil {
			return breaks // only a break leaves a loop without a condition
		}
		return head
	case *ast.RangeStmt:
		head := w.node(s.Value, w.node(s.Key, w.node(s.X, in)))
		w.breakable(label, func() { w.stmt(s.Body, head) })
		return head
	case *ast.SwitchStmt:
		return w.clauses(label, s.Body, w.node(s.Tag, w.stmt(s.Init, in)))
	case *ast.TypeSwitchStmt:
		return w.clauses(label, s.Body, w.stmt(s.Assign, w.stmt(s.Init, in)))
	case *ast.SelectStmt:
		after := dead
		breaks := w.breakable(label, func() {
			for _, c := range s.Body.List {
				cc := c.(*ast.CommClause)
				after = after.and(w.stmts(cc.Body, w.stmt(cc.Comm, in)))
			}
		})
		return after.and(breaks)
	case *ast.ReturnStmt:
		w.node(s, in)
		return dead
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			for i := len(w.targets) - 1; i >= 0; i-- {
				if t := &w.targets[i]; s.Label == nil || t.label == s.Label.Name {
					t.fact = t.fact.and(in)
					break
				}
			}
		case token.GOTO:
			w.gotos[s.Label.Name] = w.gotos[s.Label.Name].and(in)
		case token.FALLTHROUGH:
			w.through = in
		}
		// break, goto and fallthrough handed the fact on above; continue's
		// is already in the loop header's.
		return dead
	case *ast.ExprStmt:
		out := w.node(s, in)
		if isNoReturnCall(s.X) {
			return dead
		}
		return out
	}
	return w.node(s, in)
}

// breakable runs walk with a break target for the statement labeled
// label on the stack and returns the join of the facts at its breaks.
func (w *consultWalk) breakable(label string, walk func()) pathFact {
	w.targets = append(w.targets, breakTarget{label: label})
	walk()
	t := w.targets[len(w.targets)-1]
	w.targets = w.targets[:len(w.targets)-1]
	return t.fact
}

// clauses walks the case clauses of a switch or type switch, each from
// the head fact joined with a fallthrough from the clause before. The
// fact after it joins every clause end, its breaks and, without a
// default, the head itself.
func (w *consultWalk) clauses(label string, body *ast.BlockStmt, head pathFact) pathFact {
	after := dead
	hasDefault := false
	breaks := w.breakable(label, func() {
		for _, c := range body.List {
			cc := c.(*ast.CaseClause)
			hasDefault = hasDefault || cc.List == nil
			f := head.and(w.through)
			w.through = dead
			for _, e := range cc.List {
				f = w.node(e, f)
			}
			after = after.and(w.stmts(cc.Body, f))
		}
	})
	if !hasDefault {
		after = after.and(head)
	}
	return after.and(breaks)
}

// isNoReturnCall reports whether e is a call that never returns:
// panic(...), os.Exit(...), log.Fatal*(...), runtime.Goexit().
func isNoReturnCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case id.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case id.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"):
			return true
		case id.Name == "runtime" && fun.Sel.Name == "Goexit":
			return true
		}
	}
	return false
}
