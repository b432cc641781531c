package lint

import (
	"go/ast"
	"go/constant"
	"strings"
)

// Obscheck keeps the observability layer and the policy hooks honest
// about their two core contracts:
//
//  1. Event vocabulary: every Lane.Rec / Lane.RecV call names its event
//     with a declared Kind* constant (or forwards a value already typed
//     Kind). Raw integer literals or arithmetic would silently fall out
//     of the exporters' taxonomy (timeline names, Chrome trace lanes,
//     histogram routing).
//  2. Off is nil: a nil *Tracer, *Lane or *Sampler is tracing off, a nil
//     *Controller or *Set is a fixed-knob run, and every caller holds a
//     possibly nil one and calls it unguarded — so every exported method
//     with one of those pointer receivers, in the obs and policy
//     packages, must begin by checking its receiver against nil. A
//     missing guard is a latent panic on every run with the feature off.
var Obscheck = &Analyzer{
	Name: "obscheck",
	Doc:  "obs events use declared Kind* constants; obs and policy hooks keep their nil-receiver guards",
	Run:  runObscheck,
}

// nilIsOff names the types whose nil pointer is a feature turned off, and
// the packages that declare them.
var (
	nilIsOff     = map[string]bool{"Tracer": true, "Lane": true, "Sampler": true, "Controller": true, "Set": true}
	nilIsOffPkgs = map[string]bool{"obs": true, "policy": true}
)

func runObscheck(pass *Pass) error {
	// Rule 1: event kinds at every Rec/RecV call site, repo-wide.
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, isMethod := pass.methodCall(call)
		if !isMethod || recv != "Lane" || (method != "Rec" && method != "RecV") || len(call.Args) == 0 {
			return true
		}
		if !isDeclaredKind(pass, call.Args[0]) {
			pass.Reportf(call.Args[0].Pos(), "obs.Lane.%s called with an event kind that is not a declared Kind* constant: undeclared kinds break the timeline/Chrome exporters and histogram routing", method)
		}
		return true
	})

	// Rule 2: nil-receiver guards, only inside the packages that own them.
	if pass.Pkg == nil || !nilIsOffPkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recvName := namedTypeName(pass.TypeOf(fd.Recv.List[0].Type))
			if !nilIsOff[recvName] {
				continue
			}
			if _, isPtr := fd.Recv.List[0].Type.(*ast.StarExpr); !isPtr {
				continue
			}
			r := recvIdent(fd)
			if r == nil || len(fd.Body.List) == 0 || !firstStmtNilChecks(pass, fd.Body.List[0], r.Name) {
				pass.Reportf(fd.Pos(), "exported method (*%s).%s must begin with a nil-receiver check: nil is the documented off value and every call site relies on it", recvName, fd.Name.Name)
			}
		}
	}
	return nil
}

// isDeclaredKind reports whether e is an acceptable event-kind
// argument: a constant whose name starts with "Kind", or a plain
// identifier whose static type is the named Kind type (a forwarded
// parameter).
func isDeclaredKind(pass *Pass, e ast.Expr) bool {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return false
	}
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		return strings.HasPrefix(id.Name, "Kind")
	}
	// Non-constant: allow variables/parameters already typed Kind.
	return namedTypeName(obj.Type()) == "Kind"
}

// firstStmtNilChecks reports whether stmt contains a comparison of the
// identifier recv against nil (if recv == nil {...}, or
// return recv != nil && ...).
func firstStmtNilChecks(pass *Pass, stmt ast.Stmt, recv string) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		var x, y ast.Expr = be.X, be.Y
		for _, pair := range [][2]ast.Expr{{x, y}, {y, x}} {
			id, isIdent := pair[0].(*ast.Ident)
			nilId, isNil := pair[1].(*ast.Ident)
			if isIdent && isNil && id.Name == recv && nilId.Name == "nil" {
				found = true
			}
		}
		return !found
	})
	return found
}
