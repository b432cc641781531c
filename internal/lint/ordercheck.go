package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Ordercheck verifies declared publish-order invariants in statement
// order. The fence-free ring and the obs seqlock both stand on "this
// write happens before that write on every path": the ledger/payload
// stores must precede the publishing store, and the seq-odd store must
// precede the payload writes which must precede the seq-even store.
// Reordering any of them is a silent memory-model bug no test
// deterministically catches.
//
// A function opts in with a doc-comment directive:
//
//	//uts:orders ledger<slot
//	//uts:orders invalidate<payload payload<publish
//
// Each a<b pair demands: every statement in group a comes earlier on the
// block path of every statement in group b (precedes), so it runs before
// it on every path from the function entry — which holds while no goto
// jumps over it, so a goto in such a function is a finding. Statements
// join a group either by an explicit trailing mark,
//
//	seg.n[i] = int32(len(c)) //uts:mark ledger
//
// or, unmarked, by the innermost field name they store to — an
// assignment to x.slot or x.slot.Store(v) is in group "slot". A pair
// whose group matches no statement is a finding (the invariant went
// stale); so is a malformed directive or a nameless mark. Function
// literals are not part of the function.
var Ordercheck = &Analyzer{
	Name: "ordercheck",
	Doc:  "//uts:orders a<b publish-order invariants hold in statement order",
	Run:  runOrdercheck,
}

// atomicWriteMethods are the typed-atomic methods that publish a value.
var atomicWriteMethods = map[string]bool{
	"Store": true, "Swap": true, "Add": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

func runOrdercheck(pass *Pass) error {
	for _, file := range pass.Files {
		marks := collectMarks(pass, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			pairs := ordersPairs(pass, fd)
			if len(pairs) == 0 {
				continue
			}
			checkOrders(pass, fd, pairs, marks)
		}
	}
	return nil
}

// orderPair is one declared a<b ordering.
type orderPair struct{ before, after string }

// ordersPairs parses the //uts:orders directives in fd's doc comment,
// reporting malformed ones.
func ordersPairs(pass *Pass, fd *ast.FuncDecl) []orderPair {
	if fd.Doc == nil {
		return nil
	}
	var pairs []orderPair
	for _, c := range fd.Doc.List {
		text, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "//uts:orders")
		if !ok {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			pass.Reportf(c.Pos(), "empty //uts:orders directive: expected //uts:orders a<b [c<d ...]")
			continue
		}
		for _, f := range fields {
			before, after, ok := strings.Cut(f, "<")
			if !ok || before == "" || after == "" || strings.Contains(after, "<") {
				pass.Reportf(c.Pos(), "malformed //uts:orders pair %q: expected a<b", f)
				continue
			}
			pairs = append(pairs, orderPair{before, after})
		}
	}
	return pairs
}

// collectMarks maps source lines to the //uts:mark group names declared
// on them, reporting nameless marks.
func collectMarks(pass *Pass, file *ast.File) map[lineKey][]string {
	marks := make(map[lineKey][]string)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//uts:mark")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			pos := pass.Fset.Position(c.Pos())
			if len(fields) == 0 {
				pass.Reportf(c.Pos(), "//uts:mark needs a group name: //uts:mark <group>")
				continue
			}
			name := fields[0]
			marks[lineKey{pos.Filename, pos.Line}] = append(marks[lineKey{pos.Filename, pos.Line}], name)
		}
	}
	return marks
}

func checkOrders(pass *Pass, fd *ast.FuncDecl, pairs []orderPair, marks map[lineKey][]string) {
	groupNames := make(map[string]bool)
	for _, p := range pairs {
		groupNames[p.before] = true
		groupNames[p.after] = true
	}

	groups := make(map[string][]ast.Stmt)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if n.Tok == token.GOTO {
				pass.Reportf(n.Pos(), "goto in %s, which declares a publish order: statement order proves the order only in a function without one",
					fd.Name.Name)
			}
		case ast.Stmt:
			for _, g := range stmtGroups(pass, n, marks) {
				if ms := groups[g]; groupNames[g] && (len(ms) == 0 || ms[len(ms)-1] != n) {
					groups[g] = append(ms, n)
				}
			}
		}
		return true
	})

	for _, p := range pairs {
		before, after := groups[p.before], groups[p.after]
		if len(before) == 0 || len(after) == 0 {
			for _, g := range []string{p.before, p.after} {
				if len(groups[g]) == 0 {
					pass.Reportf(fd.Name.Pos(), "publish-order invariant %s<%s names group %q, which matches no statement in %s: the declared invariant went stale",
						p.before, p.after, g, fd.Name.Name)
				}
			}
			continue
		}
		for _, b := range after {
			for _, a := range before {
				if !precedes(fd.Body, b, func(s ast.Node) bool { return s == a }) {
					pass.Reportf(b.Pos(), "publish-order invariant %s<%s violated: the %s write at %s does not precede this %s write on every path",
						p.before, p.after, p.before, pass.Fset.Position(a.Pos()), p.after)
				}
			}
		}
	}
}

// stmtGroups returns the ordering groups a simple statement belongs to:
// the explicit //uts:mark names on its line plus the field names its
// stores target. A compound statement, which holds statements of its
// own, belongs to none.
func stmtGroups(pass *Pass, n ast.Stmt, marks map[lineKey][]string) []string {
	switch n.(type) {
	case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
		*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.CaseClause, *ast.CommClause, *ast.LabeledStmt:
		return nil
	}
	pos := pass.Fset.Position(n.Pos())
	gs := append([]string(nil), marks[lineKey{pos.Filename, pos.Line}]...)
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if name := innermostFieldName(lhs); name != "" {
				gs = append(gs, name)
			}
		}
	case *ast.IncDecStmt:
		if name := innermostFieldName(n.X); name != "" {
			gs = append(gs, name)
		}
	case *ast.ExprStmt:
		call, ok := n.X.(*ast.CallExpr)
		if !ok {
			break
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && atomicWriteMethods[sel.Sel.Name] {
			if _, _, isMethod := pass.methodCall(call); isMethod {
				if name := innermostFieldName(sel.X); name != "" {
					gs = append(gs, name)
				}
			}
		}
	}
	return gs
}

// innermostFieldName strips indexing, dereference, and parens and
// returns the final selected (or bare) name a store targets:
// x.slot → "slot", x.buf[i] → "buf", *p.w → "w", n → "n".
func innermostFieldName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
