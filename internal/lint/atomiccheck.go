package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Atomiccheck enforces the repo's atomics discipline: once any access
// to a struct field goes through sync/atomic — a Load/Store/Add/Swap/
// CompareAndSwap taking the field's address, or the field having a
// typed atomic.* type — every access to that word must be atomic on
// every path. One plain read racing one atomic store is exactly the
// bug class the fence-free ring (internal/stack/relaxed.go) and the
// obs seqlock rings hand-roll around, and it is invisible to the type checker and to any race-run
// that happens not to schedule the interleaving.
//
// The analyzer classifies each implicated field into one of four
// shapes and checks the accesses it sees package-wide (the fields in
// question are unexported, so the package is the whole universe of
// accesses):
//
//   - word: &x.f is passed to a sync/atomic function. Plain reads,
//     plain writes, and taking the address outside a sync/atomic call
//     are findings.
//   - element words: &x.f[i] (directly or through a local alias
//     b := x.f) is passed to sync/atomic. Plain element reads/writes
//     and ranging over the values are findings; slice-header uses
//     (len, make-assignment, aliasing the slice itself) are not — the
//     words are the elements, not the header.
//   - typed: the field's type is atomic.Bool/Int32/.../Pointer[T].
//     Method calls and address-taking are atomic by construction;
//     copying the value out is a finding (it is also a vet copylocks
//     violation, but this pins the memory-model reading too).
//   - typed elements: []atomic.X or [N]atomic.X fields; indexed method
//     calls are fine, copying elements or the whole array is not.
//
// Provably single-threaded regions (constructors before the object is
// published, test setup that owns the world, owner-side reset paths)
// are annotated //uts:plain <reason>; the reason is mandatory, and Check
// reports an annotation that silences nothing.
var Atomiccheck = &Analyzer{
	Name: "atomiccheck",
	Doc:  "fields accessed through sync/atomic must be accessed atomically on every path (//uts:plain <reason> escapes single-threaded regions)",
	Run:  runAtomiccheck,
}

// atomicMode classifies how a tracked field's atomic word is shaped.
type atomicMode uint8

const (
	modeWord       atomicMode = iota // the field itself is the word (&x.f → sync/atomic)
	modeElems                        // the field's elements are words (&x.f[i] → sync/atomic)
	modeTyped                        // field has a typed atomic.* type
	modeTypedElems                   // field is a slice/array of typed atomics
)

func (m atomicMode) String() string {
	switch m {
	case modeWord:
		return "atomic word"
	case modeElems:
		return "array of atomic words"
	case modeTyped:
		return "typed atomic value"
	default:
		return "array of typed atomic values"
	}
}

// atomicWord records why a field is tracked: its shape and the first
// atomic use (or type declaration) that implicated it, for messages.
type atomicWord struct {
	mode atomicMode
	at   token.Pos // the implicating atomic call or field declaration
}

func runAtomiccheck(pass *Pass) error {
	aliases := collectSliceAliases(pass)
	words := collectAtomicWords(pass, aliases)
	if len(words) == 0 {
		return nil
	}

	// Walk with an explicit parent stack: classification depends on how
	// the enclosing expression uses the field.
	var stack []ast.Node
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if f := pass.fieldOf(n); f != nil {
					if w, ok := words[f]; ok {
						checkAtomicAccess(pass, n, f, w, stack)
					}
				}
			case *ast.Ident:
				// Element access through a local alias of a tracked
				// slice field: b := r.buf; b[i] = v.
				obj := pass.Info.Uses[n]
				if obj == nil {
					return true
				}
				f, ok := aliases[obj]
				if !ok {
					return true
				}
				if w, tracked := words[f]; tracked && (w.mode == modeElems || w.mode == modeTypedElems) {
					checkAtomicAccess(pass, n, f, w, stack)
				}
			}
			return true
		})
	}
	return nil
}

// collectSliceAliases maps local variables to the slice/array struct
// field they alias (b := r.buf), so element accesses through the alias
// inherit the field's discipline.
func collectSliceAliases(pass *Pass) map[types.Object]*types.Var {
	aliases := make(map[types.Object]*types.Var)
	pass.Inspect(func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			sel, ok := unparen(as.Rhs[i]).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			f := pass.fieldOf(sel)
			if f == nil {
				continue
			}
			switch f.Type().Underlying().(type) {
			case *types.Slice, *types.Array:
			default:
				continue
			}
			var obj types.Object
			if as.Tok == token.DEFINE {
				obj = pass.Info.Defs[id]
			} else {
				obj = pass.Info.Uses[id]
			}
			if obj != nil {
				aliases[obj] = f
			}
		}
		return true
	})
	return aliases
}

// collectAtomicWords finds every struct field the package treats as an
// atomic word: typed atomic.* fields by declaration, and fields whose
// address (or element address) flows into a sync/atomic call.
func collectAtomicWords(pass *Pass, aliases map[types.Object]*types.Var) map[*types.Var]atomicWord {
	words := make(map[*types.Var]atomicWord)
	record := func(f *types.Var, mode atomicMode, at token.Pos) {
		if _, seen := words[f]; !seen {
			words[f] = atomicWord{mode: mode, at: at}
		}
	}

	// Typed atomic fields, from the package's own struct declarations.
	for _, obj := range pass.Info.Defs {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			continue
		}
		switch t := v.Type().(type) {
		case *types.Named:
			if isAtomicNamed(t) {
				record(v, modeTyped, v.Pos())
			}
		case *types.Slice:
			if n, ok := t.Elem().(*types.Named); ok && isAtomicNamed(n) {
				record(v, modeTypedElems, v.Pos())
			}
		case *types.Array:
			if n, ok := t.Elem().(*types.Named); ok && isAtomicNamed(n) {
				record(v, modeTypedElems, v.Pos())
			}
		}
	}

	// Fields whose address is passed to sync/atomic package functions.
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		path, _, ok := pass.pkgFuncCall(call)
		if !ok || path != "sync/atomic" {
			return true
		}
		ue, ok := unparen(call.Args[0]).(*ast.UnaryExpr)
		if !ok || ue.Op != token.AND {
			return true
		}
		switch target := unparen(ue.X).(type) {
		case *ast.SelectorExpr:
			if f := pass.fieldOf(target); f != nil {
				record(f, modeWord, call.Pos())
			}
		case *ast.IndexExpr:
			switch base := unparen(target.X).(type) {
			case *ast.SelectorExpr:
				if f := pass.fieldOf(base); f != nil {
					record(f, modeElems, call.Pos())
				}
			case *ast.Ident:
				if obj := pass.Info.Uses[base]; obj != nil {
					if f, ok := aliases[obj]; ok {
						record(f, modeElems, call.Pos())
					}
				}
			}
		}
		return true
	})
	return words
}

// isAtomicNamed reports whether the named type comes from sync/atomic
// (atomic.Bool, atomic.Int64, atomic.Pointer[T], ...).
func isAtomicNamed(n *types.Named) bool {
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// checkAtomicAccess classifies one appearance of a tracked field (or a
// tracked alias) by its enclosing expression and reports plain uses.
// stack is the DFS parent chain; stack[len-1] is the access itself.
func checkAtomicAccess(pass *Pass, access ast.Expr, f *types.Var, w atomicWord, stack []ast.Node) {
	at := func(k int) ast.Node {
		if i := len(stack) - 1 - k; i >= 0 {
			return stack[i]
		}
		return nil
	}
	parent := skipParensFrom(1, at)
	desc := exprString(access)
	if desc == "" {
		desc = f.Name()
	}
	where := pass.Fset.Position(w.at)

	switch w.mode {
	case modeWord:
		if ue, ok := parent.node.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if isAtomicArg(pass, at(parent.depth+1), ue) {
				return
			}
			pass.Reportf(access.Pos(), "address of %s %s (atomic use at %s) escapes to a non-atomic context: every access must go through sync/atomic, or the region needs //uts:plain <reason>",
				w.mode, desc, where)
			return
		}
		pass.Reportf(access.Pos(), "plain %s of %s %s (atomic use at %s): every access must go through sync/atomic, or the region needs //uts:plain <reason>",
			accessKind(stack, access), w.mode, desc, where)

	case modeElems:
		idx, ok := parent.node.(*ast.IndexExpr)
		if ok && unparen(idx.X) == access {
			grand := skipParensFrom(parent.depth+1, at)
			if ue, ok := grand.node.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				if isAtomicArg(pass, at(grand.depth+1), ue) {
					return
				}
				pass.Reportf(access.Pos(), "address of an element of %s %s (atomic use at %s) escapes to a non-atomic context",
					w.mode, desc, where)
				return
			}
			pass.Reportf(access.Pos(), "plain element %s of %s %s (atomic use at %s): elements are atomic words; use sync/atomic, or annotate the single-threaded region //uts:plain <reason>",
				accessKind(stack, idx), w.mode, desc, where)
			return
		}
		if rs, ok := parent.node.(*ast.RangeStmt); ok && unparen(rs.X) == access && rs.Value != nil {
			pass.Reportf(access.Pos(), "ranging over the values of %s %s (atomic use at %s) reads its elements plainly: range over indices and load atomically",
				w.mode, desc, where)
			return
		}
		// Slice-header uses (len, cap, make-assignment, aliasing) carry
		// no element access and are fine.

	case modeTyped:
		if psel, ok := parent.node.(*ast.SelectorExpr); ok && unparen(psel.X) == access {
			return // method call or method value: atomic by construction
		}
		if ue, ok := parent.node.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			return // address-of: the receiver stays shared, ops stay atomic
		}
		pass.Reportf(access.Pos(), "%s %s copied or used plainly: go through its Load/Store/... methods (value copies tear the word and break the happens-before edges)",
			w.mode, desc)

	case modeTypedElems:
		if idx, ok := parent.node.(*ast.IndexExpr); ok && unparen(idx.X) == access {
			grand := skipParensFrom(parent.depth+1, at)
			if psel, ok := grand.node.(*ast.SelectorExpr); ok && unparen(psel.X) == idx {
				return // indexed method call
			}
			if ue, ok := grand.node.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				return
			}
			pass.Reportf(access.Pos(), "element of %s %s copied or used plainly: call the element's atomic methods in place", w.mode, desc)
			return
		}
		if rs, ok := parent.node.(*ast.RangeStmt); ok && unparen(rs.X) == access && rs.Value != nil {
			pass.Reportf(access.Pos(), "ranging over the values of %s %s copies its elements: range over indices and use the atomic methods", w.mode, desc)
			return
		}
		if _, isArray := f.Type().Underlying().(*types.Array); isArray {
			if isValueCopyContext(parent.node, access) {
				pass.Reportf(access.Pos(), "copying %s %s duplicates live atomic words: index into it in place", w.mode, desc)
			}
		}
		// Slice-header uses are fine.
	}
}

// parentInfo pairs a parent node with its distance above the access.
type parentInfo struct {
	node  ast.Node
	depth int
}

// skipParens walks upward past ParenExprs starting at the given
// stack depth above the access.
func skipParensFrom(depth int, at func(int) ast.Node) parentInfo {
	n := at(depth)
	for {
		if _, ok := n.(*ast.ParenExpr); !ok {
			return parentInfo{node: n, depth: depth}
		}
		depth++
		n = at(depth)
	}
}

// isAtomicArg reports whether call is a sync/atomic function call with
// ue among its arguments.
func isAtomicArg(pass *Pass, callNode ast.Node, ue *ast.UnaryExpr) bool {
	call, ok := callNode.(*ast.CallExpr)
	if !ok {
		return false
	}
	path, _, ok := pass.pkgFuncCall(call)
	if !ok || path != "sync/atomic" {
		return false
	}
	for _, a := range call.Args {
		if unparen(a) == ue {
			return true
		}
	}
	return false
}

// isValueCopyContext reports whether the access appears where its value
// is copied out: an assignment RHS, a var initializer, a call argument,
// or a return value.
func isValueCopyContext(parent ast.Node, access ast.Expr) bool {
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for _, r := range p.Rhs {
			if unparen(r) == access {
				return true
			}
		}
	case *ast.ValueSpec:
		for _, v := range p.Values {
			if unparen(v) == access {
				return true
			}
		}
	case *ast.CallExpr:
		for _, a := range p.Args {
			if unparen(a) == access {
				return true
			}
		}
	case *ast.ReturnStmt:
		for _, r := range p.Results {
			if unparen(r) == access {
				return true
			}
		}
	}
	return false
}

// accessKind renders "read" or "write" for the access by scanning the
// enclosing statement on the parent stack.
func accessKind(stack []ast.Node, access ast.Expr) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if containsExpr(l, access) {
					return "write"
				}
			}
			return "read"
		case *ast.IncDecStmt:
			if containsExpr(s.X, access) {
				return "write"
			}
			return "read"
		case ast.Stmt:
			return "read"
		}
	}
	return "read"
}

// containsExpr reports whether target appears in the subtree of root.
func containsExpr(root ast.Node, target ast.Expr) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}
