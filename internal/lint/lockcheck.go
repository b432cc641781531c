package lint

import (
	"go/ast"
	"go/token"
)

// Lockcheck enforces lock pairing: every mutex Lock/RLock (and every
// pgas-style Acquire) opens a section that its own statement list
// closes. The acquire must be followed, later in that list, by its
// release or by a deferred release, and no statement in between may
// leave the section: a return, or a break, continue or goto whose target
// lies outside it. An acquire with no release after it — a release on
// each arm of a branch, a lock held into an endless loop — is a finding;
// so is one that is not a statement of a list at all. A panic between
// the two is not a leak. Function literals hold sections of their own.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "every Lock/Acquire is released later in its own statement list, and nothing between leaves",
	Paths: []string{
		"internal/cluster", "internal/core", "internal/msg", "internal/term",
	},
	Run: runLockcheck,
}

// lockPairs maps an acquire method name to its release.
var lockPairs = map[string]string{
	"Lock":    "Unlock",
	"RLock":   "RUnlock",
	"Acquire": "Release",
}

func runLockcheck(pass *Pass) error {
	inList := make(map[ast.Stmt]bool)
	pass.Inspect(func(n ast.Node) bool {
		list := stmtList(n)
		for i, s := range list {
			if l, ok := s.(*ast.LabeledStmt); ok {
				s = l.Stmt
			}
			inList[s] = true
			if recv, acq := lockCall(pass, s); acq != "" {
				checkSection(pass, s, recv, acq, list[i+1:])
			}
		}
		if s, ok := n.(ast.Stmt); ok && !inList[s] {
			if recv, acq := lockCall(pass, s); acq != "" {
				pass.Reportf(s.Pos(), "%s.%s is not a statement of a statement list: no %s can follow it there", recv, acq, lockPairs[acq])
			}
		}
		return true
	})
	return nil
}

// lockCall reports the receiver and method of an acquire statement,
// recv.Lock() as a method call, or "" for anything else.
func lockCall(pass *Pass, s ast.Stmt) (recv, acq string) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return "", ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	_, name, isMethod := pass.methodCall(call)
	if _, isAcq := lockPairs[name]; !isMethod || !isAcq {
		return "", ""
	}
	if recv = exprString(call.Fun.(*ast.SelectorExpr).X); recv == "" {
		return "", ""
	}
	return recv, name
}

// releases reports whether s is recv.rel(), deferred or not.
func releases(s ast.Stmt, recv, rel string) bool {
	if l, ok := s.(*ast.LabeledStmt); ok {
		s = l.Stmt
	}
	var call *ast.CallExpr
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
	}
	if call == nil {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == rel && exprString(sel.X) == recv
}

// checkSection checks the section the acquire s opens in the statements
// that follow it in its list.
func checkSection(pass *Pass, s ast.Stmt, recv, acq string, rest []ast.Stmt) {
	rel := lockPairs[acq]
	for i, r := range rest {
		if !releases(r, recv, rel) {
			continue
		}
		for _, exit := range exits(rest[:i+1]) {
			what := "return"
			if b, ok := exit.(*ast.BranchStmt); ok {
				what = b.Tok.String()
			}
			pass.Reportf(exit.Pos(), "%s may leave %s held: %s.%s at %s is not released before this exit (release it first, or use defer)",
				what, recv, recv, acq, pass.Fset.Position(s.Pos()))
		}
		return
	}
	pass.Reportf(s.Pos(), "%s.%s is not released on the path falling out of its block: no %s or deferred %s follows it in its statement list",
		recv, acq, rel, rel)
}

// exits returns the statements that leave a section, the statements
// after an acquire up to its release: every return, every goto and
// labelled break or continue to a label the section does not declare,
// and every bare break or continue that no loop, switch or select inside
// the section catches. Function literals are not walked.
func exits(section []ast.Stmt) []ast.Stmt {
	labels := make(map[string]bool)
	for _, s := range section {
		ast.Inspect(s, func(n ast.Node) bool {
			if l, ok := n.(*ast.LabeledStmt); ok {
				labels[l.Label.Name] = true
			}
			_, lit := n.(*ast.FuncLit)
			return !lit
		})
	}
	var out []ast.Stmt
	var walk func(n ast.Node, loop, brk bool)
	walk = func(n ast.Node, loop, brk bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				out = append(out, m)
			case *ast.BranchStmt:
				if m.Label != nil && !labels[m.Label.Name] ||
					m.Label == nil && (m.Tok == token.BREAK && !brk || m.Tok == token.CONTINUE && !loop) {
					out = append(out, m)
				}
			case *ast.ForStmt:
				walk(m.Body, true, true)
				return false
			case *ast.RangeStmt:
				walk(m.Body, true, true)
				return false
			case *ast.SwitchStmt:
				walk(m.Body, loop, true)
				return false
			case *ast.TypeSwitchStmt:
				walk(m.Body, loop, true)
				return false
			case *ast.SelectStmt:
				walk(m.Body, loop, true)
				return false
			}
			return true
		})
	}
	for _, s := range section {
		walk(s, false, false)
	}
	return out
}
