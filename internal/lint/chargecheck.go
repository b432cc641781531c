package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Chargecheck enforces the PGAS cost discipline at the heart of the
// reproduction: in internal/core, every touch of another PE's affinity
// state — the per-thread stack structs reached through a run's `stacks`
// slice: steal pools, workAvail words, request words, response slots —
// must be paid for through the latency model before it happens, via
// Domain.ChargeRef / ChargeBulk / ChargeLockRTT or a pgas Lock
// Acquire (which charges internally). An uncharged remote reference
// compiles and runs fine, but silently deflates the simulated cost of
// the protocol — the exact quantity the paper's figures measure.
//
// Mechanics: the check runs inside methods whose receiver struct has a
// `me` field (a PE worker context; setup code that builds the stacks
// slice single-threaded has no PE identity and is exempt). Indexing
// the stacks slice with anything other than the worker's own `me` (or
// through a helper like stack(), which indexes with me) produces a
// *remote handle*; dereferencing that handle — selecting a field or
// calling a method through it — is a remote access and must be
// lexically dominated by a charge call: a Charge* / Acquire statement
// among the prior statements on the access's own block path (precedes,
// the suite's one notion of dominance). Binding the handle to a variable
// is free (taking a pointer is not a reference); an access that is
// itself part of a charging call (e.g. vs.lk.Acquire(me)) is its own
// payment.
//
// Lexical dominance is an approximation of real dominance: a charge in
// a sibling branch does not count, a charge earlier in the same
// straight-line path does. It accepts the repo's protocol code as
// written and catches the regression that matters — a probe, service
// write, or transfer added without its ChargeRef/ChargeBulk.
var Chargecheck = &Analyzer{
	Name:  "chargecheck",
	Doc:   "remote affinity-state accesses in internal/core must be dominated by a latency-model charge",
	Paths: []string{"internal/core"},
	Run:   runChargecheck,
}

// chargeMethods are the Domain methods that pay for a remote
// reference, plus the lock operations that charge internally.
var chargeMethods = map[string]string{
	"ChargeRef":     "Domain",
	"ChargeBulk":    "Domain",
	"ChargeLockRTT": "Domain",
	"Acquire":       "Lock",
	"Release":       "Lock",
}

func runChargecheck(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv := workerRecv(pass, fd)
			if recv == nil {
				continue
			}
			checkCharges(pass, fd, recv.Name)
		}
	}
	return nil
}

// workerRecv returns the receiver identifier when fd is a method on a
// worker context — a struct type with a `me` field, i.e. code that runs
// with a PE identity — and nil otherwise (plain functions and the
// single-threaded setup methods are exempt).
func workerRecv(pass *Pass, fd *ast.FuncDecl) *ast.Ident {
	r := recvIdent(fd)
	if r == nil {
		return nil
	}
	obj := pass.Info.Defs[r]
	if obj == nil {
		return nil
	}
	st, ok := deref(obj.Type()).Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "me" {
			return r
		}
	}
	return nil
}

func checkCharges(pass *Pass, fd *ast.FuncDecl, recvName string) {
	// Remote handles: variables bound to stacks[i] with a non-self
	// index, identified by their declaring ident object.
	remoteVars := make(map[string]bool) // variable name -> remote

	isSelfIndex := func(idx ast.Expr) bool {
		switch idx := idx.(type) {
		case *ast.Ident:
			return idx.Name == "me"
		case *ast.SelectorExpr:
			return idx.Sel.Name == "me"
		}
		return false
	}

	// stacksIndex reports whether e is an index into a field named
	// "stacks" and whether the index is the worker's own id.
	stacksIndex := func(e ast.Expr) (isStacks, self bool) {
		ie, ok := e.(*ast.IndexExpr)
		if !ok {
			return false, false
		}
		switch x := ie.X.(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name != "stacks" {
				return false, false
			}
		case *ast.Ident:
			if x.Name != "stacks" {
				return false, false
			}
		default:
			return false, false
		}
		return true, isSelfIndex(ie.Index)
	}

	// Pass 1: collect remote handle bindings (vs := r.stacks[v]).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if isStacks, self := stacksIndex(rhs); isStacks && !self {
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					remoteVars[id.Name] = true
				}
			}
		}
		return true
	})

	// chargeCallRanges: source ranges of charging calls, so an access
	// inside its own charge (vs.lk.Acquire(me)) is exempt, and charge
	// statements can be recognized for dominance.
	isChargeCall := func(call *ast.CallExpr) bool {
		recv, method, ok := pass.methodCall(call)
		if !ok {
			return false
		}
		want, isCharge := chargeMethods[method]
		return isCharge && recv == want
	}
	var chargeRanges [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isChargeCall(call) {
			chargeRanges = append(chargeRanges, [2]token.Pos{call.Pos(), call.End()})
		}
		return true
	})
	inChargeCall := func(pos token.Pos) bool {
		for _, r := range chargeRanges {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}

	// charges reports whether a statement or expression subtree contains
	// a charge call; dominatedByCharge asks it of the statements that run
	// before the target (precedes).
	charges := func(n ast.Node) bool {
		found := false
		if n != nil {
			ast.Inspect(n, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isChargeCall(call) {
					found = true
				}
				return !found
			})
		}
		return found
	}
	dominatedByCharge := func(target ast.Node) bool {
		return precedes(fd.Body, target, charges)
	}

	// Pass 2: find remote accesses and validate dominance.
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "uncharged remote reference: %s touches another PE's affinity state with no dominating Domain.ChargeRef/ChargeBulk/ChargeLockRTT or pgas Lock acquire on this path — the latency model never sees this access", what)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Direct form: r.stacks[v].field...
		if isStacks, self := stacksIndex(sel.X); isStacks {
			if !self && !inChargeCall(sel.Pos()) && !dominatedByCharge(outermostStmtExpr(fd, sel)) {
				report(sel.Pos(), exprString(sel))
			}
			return true
		}
		// Handle form: vs.field... where vs is a remote handle.
		if id, isIdent := sel.X.(*ast.Ident); isIdent && remoteVars[id.Name] {
			if !inChargeCall(sel.Pos()) && !dominatedByCharge(outermostStmtExpr(fd, sel)) {
				report(sel.Pos(), exprString(sel))
			}
		}
		return true
	})
}

// outermostStmtExpr returns the outermost statement containing the
// expression, so dominance is evaluated at statement granularity.
func outermostStmtExpr(fd *ast.FuncDecl, e ast.Expr) ast.Node {
	chain := pathTo(fd.Body, e)
	// The last statement on the chain before e itself is the innermost
	// statement; dominance walks every enclosing block anyway, so any
	// enclosing statement works. Use the innermost statement.
	var stmt ast.Node = e
	for _, n := range chain {
		if _, ok := n.(ast.Stmt); ok {
			stmt = n
		}
	}
	return stmt
}
