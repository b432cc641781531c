package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// Lockcheck enforces lock pairing: every mutex Lock/RLock (and every
// pgas-style Acquire) is matched by an Unlock/RUnlock (Release) on every
// exit path of the function. This runs a may-held lock lattice over the
// function's CFG: the fact at a point is the set of receivers that may
// still be held, acquires add to it, releases (including a defer, which
// covers every later exit) remove it, and the meet is union. A return
// reached with a lock possibly held is a finding; so is falling off the
// end of the function while holding one. Paths that end in panic or loop
// forever are not leaks. Function literals are analyzed as functions of
// their own.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "every Lock/Acquire is released on all exit paths",
	Paths: []string{
		"internal/cluster", "internal/core", "internal/msg",
	},
	Run: runLockcheck,
}

func runLockcheck(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockPairing(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkLockPairing(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// lockPairs maps an acquire method name to its matching releases.
var lockPairs = map[string][]string{
	"Lock":    {"Unlock"},
	"RLock":   {"RUnlock"},
	"Acquire": {"Release"},
}

// releaseNames is the set of all release method names.
var releaseNames = func() map[string]bool {
	m := make(map[string]bool)
	for _, rels := range lockPairs {
		for _, r := range rels {
			m[r] = true
		}
	}
	return m
}()

// heldLock records one possibly-held acquire for the lattice.
type heldLock struct {
	name string // acquire method: Lock, RLock, Acquire
	rels []string
	pos  token.Pos // the acquire statement
}

// lockFacts maps a rendered receiver (e.g. "n.mu") to its possibly-held
// acquire. The lattice is may-held: meet is union, so a lock held on
// any path into a point is held at that point.
type lockFacts map[string]heldLock

func cloneLockFacts(f lockFacts) lockFacts {
	out := make(lockFacts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// lockFlow is the FlowAnalysis tracking possibly-held locks.
type lockFlow struct{ pass *Pass }

func (lockFlow) Boundary() any { return lockFacts{} }

func (l lockFlow) Transfer(b *Block, in any) any {
	out := cloneLockFacts(in.(lockFacts))
	for _, n := range b.Nodes {
		applyLockOp(l.pass, n, out)
	}
	return out
}

func (lockFlow) Meet(a, b any) any {
	am, bm := a.(lockFacts), b.(lockFacts)
	out := cloneLockFacts(am)
	for k, v := range bm {
		// Deterministic merge: keep the earliest acquire site.
		if cur, ok := out[k]; !ok || v.pos < cur.pos {
			out[k] = v
		}
	}
	return out
}

func (lockFlow) Equal(a, b any) bool {
	am, bm := a.(lockFacts), b.(lockFacts)
	if len(am) != len(bm) {
		return false
	}
	for k, v := range am {
		w, ok := bm[k]
		if !ok || v.pos != w.pos || v.name != w.name {
			return false
		}
	}
	return true
}

// applyLockOp updates the held set across one straight-line node:
// recv.Lock() adds, recv.Unlock() (or defer recv.Unlock(), which
// covers every later exit) removes.
func applyLockOp(pass *Pass, n ast.Node, facts lockFacts) {
	var call *ast.CallExpr
	isDefer := false
	switch s := n.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call, isDefer = s.Call, true
	}
	if call == nil {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := exprString(sel.X)
	if recv == "" {
		return
	}
	name := sel.Sel.Name
	if rels, isAcq := lockPairs[name]; isAcq && !isDefer {
		// Only method calls on lock-ish receivers, not same-name funcs.
		if _, _, isMethod := pass.methodCall(call); isMethod {
			facts[recv] = heldLock{name: name, rels: rels, pos: n.Pos()}
		}
		return
	}
	if releaseNames[name] {
		if h, held := facts[recv]; held {
			for _, r := range h.rels {
				if r == name {
					delete(facts, recv)
					break
				}
			}
		}
	}
}

// checkLockPairing runs the lock-held lattice over one function body
// and reports exits that may leave a lock held: every return reached
// with a held lock, and the implicit fall-through off the end of the
// body. Panic exits and infinite loops are not leaks — the CFG has no
// fall-through edge for them, which is what replaces the old lexical
// region/switch/select special-casing.
func checkLockPairing(pass *Pass, body *ast.BlockStmt) {
	c := BuildCFG(body)
	flow := lockFlow{pass}
	in := c.Solve(flow)
	for _, b := range c.RPO() {
		facts, _ := in[b].(lockFacts)
		if facts == nil {
			facts = lockFacts{}
		}
		facts = cloneLockFacts(facts)
		for _, n := range b.Nodes {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				for _, recv := range sortedLockKeys(facts) {
					h := facts[recv]
					pass.Reportf(ret.Pos(), "return may leave %s held: %s.%s at %s has no dominating %s before this exit (or use defer)",
						recv, recv, h.name, pass.Fset.Position(h.pos), h.rels[0])
				}
			}
			applyLockOp(pass, n, facts)
		}
		for _, e := range b.Succs {
			if e.Kind != ExitFall {
				continue
			}
			for _, recv := range sortedLockKeys(facts) {
				h := facts[recv]
				pass.Reportf(h.pos, "%s.%s is not released on the path falling out of its block (no %s after the acquire)",
					recv, h.name, h.rels[0])
			}
		}
	}
}

func sortedLockKeys(facts lockFacts) []string {
	keys := make([]string, 0, len(facts))
	for k := range facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
