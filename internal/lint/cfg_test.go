package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildCFG parses one function declaration and builds its CFG.
func buildCFG(t *testing.T, src string) (*CFG, *ast.FuncDecl, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", "package p"+src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return BuildCFG(fd.Body), fd, fset
		}
	}
	t.Fatal("no function in source")
	return nil, nil, nil
}

// stmtOnLine returns the recorded CFG node starting on the given line
// (1-based within the synthesized file, where the package clause is
// line 1).
func stmtOnLine(t *testing.T, c *CFG, fset *token.FileSet, line int) ast.Node {
	t.Helper()
	for n := range c.pos {
		if fset.Position(n.Pos()).Line == line {
			return n
		}
	}
	t.Fatalf("no CFG node on line %d", line)
	return nil
}

// condOnLine returns the recorded condition (expression) node on the
// given line — lines like a for header hold several CFG nodes (init,
// condition, post) and tests need the condition specifically.
func condOnLine(t *testing.T, c *CFG, fset *token.FileSet, line int) ast.Node {
	t.Helper()
	for n := range c.pos {
		if _, isExpr := n.(ast.Expr); isExpr && fset.Position(n.Pos()).Line == line {
			return n
		}
	}
	t.Fatalf("no CFG condition node on line %d", line)
	return nil
}

func TestCFGStraightLine(t *testing.T) {
	c, _, fset := buildCFG(t, `
func f() int {
	a := 1
	b := 2
	return a + b
}`)
	if len(c.RPO()) != 2 { // entry block + exit
		t.Fatalf("straight-line function has %d reachable blocks, want 2", len(c.RPO()))
	}
	a := stmtOnLine(t, c, fset, 3)
	ret := stmtOnLine(t, c, fset, 5)
	if !c.NodeDominates(a, ret) {
		t.Error("a := 1 must dominate the return")
	}
	if c.NodeDominates(ret, a) {
		t.Error("the return must not dominate a := 1")
	}
	if c.NodeDominates(a, a) {
		t.Error("NodeDominates is strict: a node does not dominate itself")
	}
	var kinds []ExitKind
	for _, e := range c.Exit.Preds {
		kinds = append(kinds, e.Kind)
	}
	if len(kinds) != 1 || kinds[0] != ExitReturn {
		t.Errorf("exit preds = %v, want one ExitReturn edge", kinds)
	}
}

func TestCFGIfElse(t *testing.T) {
	c, _, fset := buildCFG(t, `
func f(x int) int {
	y := 0
	if x > 0 {
		y = 1
	} else {
		y = 2
	}
	return y
}`)
	cond := stmtOnLine(t, c, fset, 4)
	then := stmtOnLine(t, c, fset, 5)
	els := stmtOnLine(t, c, fset, 7)
	ret := stmtOnLine(t, c, fset, 9)
	if !c.NodeDominates(cond, then) || !c.NodeDominates(cond, els) || !c.NodeDominates(cond, ret) {
		t.Error("the condition must dominate both arms and the join")
	}
	if c.NodeDominates(then, ret) || c.NodeDominates(els, ret) {
		t.Error("neither arm alone dominates the join")
	}
}

func TestCFGEarlyReturnGuard(t *testing.T) {
	c, _, fset := buildCFG(t, `
func f(p *int) int {
	if p == nil {
		return 0
	}
	return *p
}`)
	cond := stmtOnLine(t, c, fset, 3)
	deref := stmtOnLine(t, c, fset, 6)
	if !c.NodeDominates(cond, deref) {
		t.Error("guard condition must dominate the code after the early return")
	}
}

func TestCFGForLoop(t *testing.T) {
	c, _, fset := buildCFG(t, `
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`)
	body := stmtOnLine(t, c, fset, 5)
	ret := stmtOnLine(t, c, fset, 7)
	cond := condOnLine(t, c, fset, 4) // the i < n condition node
	if c.NodeDominates(body, ret) {
		t.Error("loop body must not dominate the code after the loop (zero-trip path)")
	}
	if !c.NodeDominates(cond, ret) || !c.NodeDominates(cond, body) {
		t.Error("loop condition must dominate both the body and the loop exit")
	}
	// The head has a back edge: some reachable block loops to it.
	hb, _, _ := c.PosOf(cond)
	back := false
	for _, e := range hb.Preds {
		if e.From.Reachable() && c.Dominates(hb, e.From) {
			back = true
		}
	}
	if !back {
		t.Error("loop head has no back edge")
	}
}

func TestCFGInfiniteLoopNoExit(t *testing.T) {
	c, _, _ := buildCFG(t, `
func f() {
	x := 0
	for {
		x++
	}
}`)
	reachableExits := 0
	for _, e := range c.Exit.Preds {
		if e.From.Reachable() {
			reachableExits++
		}
	}
	if reachableExits != 0 {
		t.Errorf("for {} never reaches the exit; exit has %d reachable preds", reachableExits)
	}
	if c.Exit.Reachable() {
		t.Error("exit block must be unreachable")
	}
}

func TestCFGBooleanSwitchLowering(t *testing.T) {
	c, _, fset := buildCFG(t, `
func f(p *int, q *int) int {
	switch {
	case p != nil:
		return *p
	case q != nil:
		return *q
	default:
		return 0
	}
}`)
	deref := stmtOnLine(t, c, fset, 5)
	db, _, _ := c.PosOf(deref)
	if len(db.Preds) != 1 {
		t.Fatalf("case body has %d preds, want 1", len(db.Preds))
	}
	// The second case's test is guarded by the first being false: the
	// second condition node must be dominated by the first.
	c1 := stmtOnLine(t, c, fset, 4)
	c2 := stmtOnLine(t, c, fset, 6)
	if !c.NodeDominates(c1, c2) {
		t.Error("case conditions must be evaluated in order")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	c, _, fset := buildCFG(t, `
func f(k int) int {
	x := 0
	switch k {
	case 1:
		x = 1
		fallthrough
	case 2:
		x += 2
	}
	return x
}`)
	first := stmtOnLine(t, c, fset, 6)
	second := stmtOnLine(t, c, fset, 9)
	fb, _, _ := c.PosOf(first)
	sb, _, _ := c.PosOf(second)
	linked := false
	for _, e := range fb.Succs {
		if e.To == sb {
			linked = true
		}
	}
	if !linked {
		t.Error("fallthrough must link the first case body to the second")
	}
	if c.NodeDominates(first, second) {
		t.Error("the fallthrough source must not dominate the shared case body")
	}
}

func TestCFGGotoLabel(t *testing.T) {
	c, _, fset := buildCFG(t, `
func f(n int) int {
	i := 0
loop:
	i++
	if i < n {
		goto loop
	}
	return i
}`)
	inc := stmtOnLine(t, c, fset, 5)
	ret := stmtOnLine(t, c, fset, 9)
	if !c.NodeDominates(inc, ret) {
		t.Error("the labeled statement dominates the return")
	}
	ib, _, _ := c.PosOf(inc)
	if len(ib.Preds) < 2 {
		t.Errorf("label block has %d preds, want >= 2 (fall-in and goto)", len(ib.Preds))
	}
}

func TestCFGSelect(t *testing.T) {
	c, _, fset := buildCFG(t, `
func f(a, b chan int) int {
	x := 0
	select {
	case v := <-a:
		x = v
	case <-b:
		x = 1
	}
	return x
}`)
	armA := stmtOnLine(t, c, fset, 6)
	ret := stmtOnLine(t, c, fset, 10)
	if c.NodeDominates(armA, ret) {
		t.Error("a single select arm must not dominate the join")
	}
	ab, _, _ := c.PosOf(armA)
	if !ab.Reachable() {
		t.Error("select arm unreachable")
	}
}

// mustExec is a toy must-analysis used to exercise the solver: the fact
// at a block is the set of node indices guaranteed to have executed on
// every path reaching it.
type mustExec struct {
	c  *CFG
	id map[ast.Node]int
}

func (m *mustExec) Boundary() any { return map[int]bool{} }
func (m *mustExec) Transfer(b *Block, in any) any {
	out := map[int]bool{}
	for k := range in.(map[int]bool) {
		out[k] = true
	}
	for _, n := range b.Nodes {
		if id, ok := m.id[n]; ok {
			out[id] = true
		}
	}
	return out
}
func (m *mustExec) Meet(a, b any) any {
	am, bm := a.(map[int]bool), b.(map[int]bool)
	out := map[int]bool{}
	for k := range am {
		if bm[k] {
			out[k] = true
		}
	}
	return out
}
func (m *mustExec) Equal(a, b any) bool {
	am, bm := a.(map[int]bool), b.(map[int]bool)
	if len(am) != len(bm) {
		return false
	}
	for k := range am {
		if !bm[k] {
			return false
		}
	}
	return true
}

func TestCFGSolverMustExecute(t *testing.T) {
	c, _, fset := buildCFG(t, `
func f(x int) int {
	a := 1
	if x > 0 {
		a = 2
	}
	b := a
	for x > 10 {
		b++
	}
	return b
}`)
	m := &mustExec{c: c, id: map[ast.Node]int{
		stmtOnLine(t, c, fset, 3): 0, // a := 1   (always)
		stmtOnLine(t, c, fset, 5): 1, // a = 2    (branch only)
		stmtOnLine(t, c, fset, 7): 2, // b := a   (always)
		stmtOnLine(t, c, fset, 9): 3, // b++      (loop body only)
	}}
	in := c.Solve(m)
	ret := stmtOnLine(t, c, fset, 11)
	rb, _, _ := c.PosOf(ret)
	fact, ok := in[rb].(map[int]bool)
	if !ok {
		t.Fatal("no fact at the return block")
	}
	if !fact[0] || !fact[2] {
		t.Errorf("unconditional statements missing from must-set: %v", fact)
	}
	if fact[1] || fact[3] {
		t.Errorf("branch/loop-only statements wrongly in must-set: %v", fact)
	}
}
