package lint

// Intraprocedural control-flow layer: basic blocks over go/ast, a
// dominator tree, and a small forward-lattice dataflow solver. This is
// the flow-sensitive backbone the memory-ordering analyzers stand on —
// atomiccheck and ordercheck prove their disciplines on every path, not
// just the paths a stress test happens to schedule, and lockcheck runs a
// lock-held lattice over the same graph instead of the old
// lexical-region heuristic.
//
// The construction is standard: one block per maximal straight-line
// statement run, explicit condition nodes (an if/for condition and each
// boolean switch-case expression is a node of the block that evaluates
// it), and edges that say only where control goes and, into the exit,
// how it leaves. Returns, panics, and fall-through all flow into one
// synthetic exit block; `for {}` loops have no edge to it, so code
// holding a lock forever is not an unreleased-lock finding. Nested
// function literals are NOT traversed — each gets its own CFG; a
// statement's expression tree (which may syntactically contain a
// FuncLit) is a single node here.
//
// Dominators use the Cooper–Harvey–Kennedy iterative algorithm over a
// reverse postorder; the solver is a worklist fixpoint in the same
// order. Both operate only on blocks reachable from the entry:
// unreachable blocks keep their statements (builders park dead code in
// fresh predecessor-less blocks) but dominate nothing and are skipped
// by the solver.

import (
	"fmt"
	"go/ast"
	"go/token"
)

// A CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block // synthetic: every return/panic/fall-through flows here

	pos  map[ast.Node]stmtPos
	rpo  []*Block // reachable blocks, reverse postorder (Entry first)
	idom []*Block // immediate dominator per block index; nil = unreachable
}

// stmtPos locates a statement or condition node inside its block.
type stmtPos struct {
	b *Block
	i int
}

// A Block is one basic block: statements and condition expressions in
// execution order, with edges to and from its neighbours.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Edge
	Preds []*Edge

	rpoNum int // position in rpo; -1 when unreachable
}

// ExitKind classifies how an edge into the exit block leaves the
// function.
type ExitKind uint8

const (
	// ExitNone marks an ordinary intra-function edge.
	ExitNone ExitKind = iota
	// ExitReturn is an explicit return statement.
	ExitReturn
	// ExitPanic is a call to the panic builtin.
	ExitPanic
	// ExitFall is the implicit fall-through off the end of the body.
	ExitFall
)

// An Edge connects two blocks; Kind says how an edge into the exit
// leaves the function.
type Edge struct {
	From, To *Block
	Kind     ExitKind
}

// BuildCFG constructs the graph of one function body (from a FuncDecl
// or FuncLit body). The body must be non-nil.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{c: &CFG{pos: make(map[ast.Node]stmtPos)}}
	b.c.Entry = b.newBlock()
	b.c.Exit = b.newBlock()
	b.cur = b.c.Entry
	b.stmt(body)
	if b.cur != nil {
		b.edgeKind(b.cur, b.c.Exit, ExitFall)
	}
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target)
		}
	}
	b.c.computeOrder()
	b.c.computeDominators()
	return b.c
}

// PosOf reports the block and in-block index of a statement or
// condition node, if it was recorded during construction.
func (c *CFG) PosOf(n ast.Node) (*Block, int, bool) {
	p, ok := c.pos[n]
	if !ok {
		return nil, 0, false
	}
	return p.b, p.i, true
}

// Reachable reports whether b is reachable from the entry.
func (b *Block) Reachable() bool { return b.rpoNum >= 0 }

// RPO returns the reachable blocks in reverse postorder, entry first.
func (c *CFG) RPO() []*Block { return c.rpo }

// Dominates reports whether a dominates b (reflexively): every path
// from the entry to b passes through a. Unreachable blocks dominate
// nothing and are dominated by nothing.
func (c *CFG) Dominates(a, b *Block) bool {
	if !a.Reachable() || !b.Reachable() {
		return false
	}
	for d := b; d != nil; d = c.idom[d.Index] {
		if d == a {
			return true
		}
		if d == c.Entry {
			break
		}
	}
	return false
}

// NodeDominates reports whether statement (or condition) x executes
// before y on every path from the entry to y — strict dominance at
// statement granularity: same-block nodes order by position, distinct
// blocks by block dominance. x == y reports false.
func (c *CFG) NodeDominates(x, y ast.Node) bool {
	px, okx := c.pos[x]
	py, oky := c.pos[y]
	if !okx || !oky || x == y {
		return false
	}
	if px.b == py.b {
		return px.i < py.i
	}
	return c.Dominates(px.b, py.b)
}

// --- construction ---

type loopScope struct {
	label  string
	brk    *Block // break target (nil: scope breaks not allowed)
	cont   *Block // continue target (nil for switch/select)
	isLoop bool
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	c            *CFG
	cur          *Block // nil after a terminator: following code is dead
	scopes       []loopScope
	fallTargets  []*Block // fallthrough target stack (switch bodies)
	labels       map[string]*Block
	gotos        []pendingGoto
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.c.Blocks), rpoNum: -1}
	b.c.Blocks = append(b.c.Blocks, blk)
	return blk
}

// block returns the current block, parking dead code after a terminator
// in a fresh unreachable block so its statements stay mapped.
func (b *cfgBuilder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.block()
	b.c.pos[n] = stmtPos{blk, len(blk.Nodes)}
	blk.Nodes = append(blk.Nodes, n)
}

func (b *cfgBuilder) edge(from, to *Block) { b.edgeKind(from, to, ExitNone) }

func (b *cfgBuilder) edgeKind(from, to *Block, kind ExitKind) {
	e := &Edge{From: from, To: to, Kind: kind}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// takeLabel consumes the label a LabeledStmt recorded for the
// immediately following loop/switch/select statement.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.IfStmt:
		b.buildIf(s)
	case *ast.ForStmt:
		b.buildFor(s)
	case *ast.RangeStmt:
		b.buildRange(s)
	case *ast.SwitchStmt:
		b.buildSwitch(s.Init, s.Tag, nil, s.Body, s)
	case *ast.TypeSwitchStmt:
		b.buildSwitch(s.Init, nil, s.Assign, s.Body, s)
	case *ast.SelectStmt:
		b.buildSelect(s)
	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.edge(b.block(), lb)
		b.cur = lb
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.add(s)
		b.edgeKind(b.cur, b.c.Exit, ExitReturn)
		b.cur = nil
	case *ast.BranchStmt:
		b.buildBranch(s)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				b.edgeKind(b.cur, b.c.Exit, ExitPanic)
				b.cur = nil
			}
		}
	case *ast.EmptyStmt:
	default:
		// Assign, Decl, IncDec, Send, Go, Defer, Bad: straight-line.
		b.add(s)
	}
}

func (b *cfgBuilder) buildIf(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	then := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmt(s.Body)
	thenEnd := b.cur
	var elseEnd *Block
	hasElse := s.Else != nil
	if hasElse {
		els := b.newBlock()
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		elseEnd = b.cur
	}
	join := b.newBlock()
	if !hasElse {
		b.edge(cond, join)
	}
	if thenEnd != nil {
		b.edge(thenEnd, join)
	}
	if elseEnd != nil {
		b.edge(elseEnd, join)
	}
	b.cur = join
}

func (b *cfgBuilder) buildFor(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock()
	b.edge(b.block(), head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
	}
	condEnd := b.cur // == head unless cond spawned blocks (it cannot)
	body := b.newBlock()
	after := b.newBlock()
	b.edge(condEnd, body)
	if s.Cond != nil {
		b.edge(condEnd, after)
	}
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		cont = post
	}
	b.scopes = append(b.scopes, loopScope{label: label, brk: after, cont: cont, isLoop: true})
	b.cur = body
	b.stmt(s.Body)
	if b.cur != nil {
		b.edge(b.cur, cont)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	if post != nil {
		b.cur = post
		b.add(s.Post)
		b.edge(post, head)
	}
	b.cur = after
}

func (b *cfgBuilder) buildRange(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock()
	b.edge(b.block(), head)
	b.cur = head
	b.add(s) // the per-iteration key/value binding and the range read
	body := b.newBlock()
	after := b.newBlock()
	b.edge(head, body)
	b.edge(head, after)
	b.scopes = append(b.scopes, loopScope{label: label, brk: after, cont: head, isLoop: true})
	b.cur = body
	b.stmt(s.Body)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

// buildSwitch handles expression and type switches. Boolean switches
// (no tag) are lowered into a test chain, each case's condition a node of
// its own test block, evaluated in source order.
func (b *cfgBuilder) buildSwitch(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, sw ast.Stmt) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	after := b.newBlock()

	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	bodies := make([]*Block, len(clauses))
	defaultIdx := -1
	for i, cc := range clauses {
		bodies[i] = b.newBlock()
		if len(cc.List) == 0 {
			defaultIdx = i
		}
	}

	// Test chain in evaluation order: source order, default last.
	test := b.block()
	for i, cc := range clauses {
		if i == defaultIdx {
			continue
		}
		if tag == nil && len(cc.List) == 1 {
			cond := cc.List[0]
			b.c.pos[cond] = stmtPos{test, len(test.Nodes)}
			test.Nodes = append(test.Nodes, cond)
		}
		b.edge(test, bodies[i])
		next := b.newBlock()
		b.edge(test, next)
		test = next
	}
	if defaultIdx >= 0 {
		b.edge(test, bodies[defaultIdx])
	} else {
		b.edge(test, after)
	}

	b.scopes = append(b.scopes, loopScope{label: label, brk: after})
	for i, cc := range clauses {
		var fall *Block
		if i+1 < len(clauses) {
			fall = bodies[i+1]
		}
		b.fallTargets = append(b.fallTargets, fall)
		b.cur = bodies[i]
		for _, st := range cc.Body {
			b.stmt(st)
		}
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		b.fallTargets = b.fallTargets[:len(b.fallTargets)-1]
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

func (b *cfgBuilder) buildSelect(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.block()
	after := b.newBlock()
	b.scopes = append(b.scopes, loopScope{label: label, brk: after})
	any := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		for _, st := range cc.Body {
			b.stmt(st)
		}
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	if !any {
		// select {} blocks forever: no edge to after.
		b.cur = nil
		_ = after
		return
	}
	b.cur = after
}

func (b *cfgBuilder) buildBranch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.scopes) - 1; i >= 0; i-- {
			sc := b.scopes[i]
			if sc.brk != nil && (label == "" || sc.label == label) {
				b.edge(b.block(), sc.brk)
				b.cur = nil
				return
			}
		}
	case token.CONTINUE:
		for i := len(b.scopes) - 1; i >= 0; i-- {
			sc := b.scopes[i]
			if sc.isLoop && sc.cont != nil && (label == "" || sc.label == label) {
				b.edge(b.block(), sc.cont)
				b.cur = nil
				return
			}
		}
	case token.GOTO:
		b.gotos = append(b.gotos, pendingGoto{from: b.block(), label: label})
		b.cur = nil
		return
	case token.FALLTHROUGH:
		if n := len(b.fallTargets); n > 0 && b.fallTargets[n-1] != nil {
			b.edge(b.block(), b.fallTargets[n-1])
		}
		b.cur = nil
		return
	}
	// Unresolvable break/continue (malformed source): terminate the block.
	b.cur = nil
}

// --- reverse postorder and dominators ---

func (c *CFG) computeOrder() {
	seen := make([]bool, len(c.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, e := range b.Succs {
			if !seen[e.To.Index] {
				dfs(e.To)
			}
		}
		post = append(post, b)
	}
	dfs(c.Entry)
	c.rpo = make([]*Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		post[i].rpoNum = len(c.rpo)
		c.rpo = append(c.rpo, post[i])
	}
}

// computeDominators is the Cooper–Harvey–Kennedy iterative algorithm.
func (c *CFG) computeDominators() {
	c.idom = make([]*Block, len(c.Blocks))
	c.idom[c.Entry.Index] = c.Entry
	intersect := func(a, b *Block) *Block {
		for a != b {
			for a.rpoNum > b.rpoNum {
				a = c.idom[a.Index]
			}
			for b.rpoNum > a.rpoNum {
				b = c.idom[b.Index]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range c.rpo[1:] {
			var nd *Block
			for _, e := range b.Preds {
				p := e.From
				if !p.Reachable() || c.idom[p.Index] == nil {
					continue
				}
				if nd == nil {
					nd = p
				} else {
					nd = intersect(nd, p)
				}
			}
			if nd != nil && c.idom[b.Index] != nd {
				c.idom[b.Index] = nd
				changed = true
			}
		}
	}
	c.idom[c.Entry.Index] = nil // entry has no strict dominator; Dominates special-cases it
}

// --- forward dataflow solver ---

// A FlowAnalysis is one forward dataflow problem over a CFG. Facts are
// analysis-defined values; nil is reserved by the solver for "not yet
// computed" and is never passed to Transfer, Meet, or Equal.
type FlowAnalysis interface {
	// Boundary is the fact at the function entry.
	Boundary() any
	// Transfer flows a fact through a block's statements.
	Transfer(b *Block, in any) any
	// Meet combines the facts arriving over two edges.
	Meet(a, b any) any
	// Equal reports whether two facts are the same (fixpoint test).
	Equal(a, b any) bool
}

// Solve runs the analysis to fixpoint and returns the in-fact of every
// reachable block (unreachable blocks map to nil). Iteration is in
// reverse postorder, bounded defensively against non-monotone lattices.
func (c *CFG) Solve(fa FlowAnalysis) map[*Block]any {
	in := make(map[*Block]any, len(c.rpo))
	out := make(map[*Block]any, len(c.rpo))
	in[c.Entry] = fa.Boundary()
	out[c.Entry] = fa.Transfer(c.Entry, in[c.Entry])
	maxIter := 4*len(c.rpo) + 8
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, b := range c.rpo {
			if b == c.Entry {
				continue
			}
			var acc any
			for _, e := range b.Preds {
				po, ok := out[e.From]
				if !ok || po == nil {
					continue
				}
				if acc == nil {
					acc = po
				} else {
					acc = fa.Meet(acc, po)
				}
			}
			if acc == nil {
				continue // no computed predecessor yet
			}
			if prev, ok := in[b]; !ok || !fa.Equal(prev, acc) {
				in[b] = acc
				out[b] = fa.Transfer(b, acc)
				changed = true
			}
		}
		if !changed {
			return in
		}
	}
	// Non-monotone analysis: fail loudly in tests, return best effort.
	panic(fmt.Sprintf("lint: dataflow did not converge in %d iterations", maxIter))
}
