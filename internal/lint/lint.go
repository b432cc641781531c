// Package lint is the repo's custom static-analysis suite: two
// analyzers that machine-check the invariants the paper's results stand
// on and that the Go type system cannot see, each needing what a grep
// does not have — the type checker, or a statement list.
//
//   - detcheck: internal/des, internal/core, internal/uts and
//     internal/policy must stay deterministic functions of (spec,
//     algorithm, model, seed) — byte-identical differential tests depend
//     on it — so wall-clock reads, global math/rand state, and map-order
//     iteration are banned there.
//   - lockcheck: in internal/cluster, core, msg and term every
//     Lock/Acquire is released later in its own statement list, and no
//     return, break, continue or goto leaves the section between.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Reportf, analysistest-style golden files)
// but is built on the standard library alone: the toolchain image this
// repo builds in carries no third-party modules. Analyzers match code
// by name and type structure (method names, field names, package
// suffixes) rather than by fully-qualified import paths, which keeps
// the golden-file test packages self-contained.
//
// # Suppressions
//
// A finding is silenced with an inline justification comment on the
// same line or the line above:
//
//	//uts:ok <analyzer> <reason>
//
// The reason is mandatory; an //uts:ok comment without one is itself
// reported. Suppressions are per-line and per-analyzer, so one cannot
// blanket-disable a rule. Check, which the uts-vet driver runs on every
// package go vet hands it, also reports a suppression that names an
// unknown analyzer or silences nothing.
//
// Atomic words need no analyzer: they are sync/atomic's types, so the
// compiler rejects a plain access and go vet's copylocks reports a copy.
// Nor do the obs and policy contracts: a test calls every method of each
// nil-is-off type on a nil receiver, and make shape ("Declared kinds")
// holds every Lane.Rec/RecV call to a Kind* constant. Nor do the
// zero-allocation hot paths (spawn kernels, node kernel, DES dispatch,
// obs record path, msg ring, relaxed ring, controller windows): tests
// measure them at 0 allocs/op or pin a run's allocated objects. Nor do
// the publish orders of the relaxed ring and the obs seqlock, or the
// latency-model charges before each remote access in internal/core: the
// few functions that hold them have their store and charge sequences
// pinned by make shape ("Publish orders", "Charged remote access").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one lint rule set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //uts:ok
	// suppression comments.
	Name string
	// Doc is the analyzer's one-line description.
	Doc string
	// Paths restricts which packages the multichecker applies the
	// analyzer to: a package is analyzed when its import path contains
	// any of the substrings. Empty means every package. Golden tests
	// bypass this gate and run the analyzer directly.
	Paths []string
	// Run reports findings on one package via pass.Reportf.
	Run func(pass *Pass) error
}

// AppliesTo reports whether the multichecker should run the analyzer on
// the package with the given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Paths) == 0 {
		return true
	}
	for _, p := range a.Paths {
		if strings.Contains(pkgPath, p) {
			return true
		}
	}
	return false
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer run over one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// Run executes one analyzer over one package and returns its findings
// with //uts:ok suppressions applied, sorted by position. A suppression
// of this analyzer that carries no justification is itself reported and
// silences nothing. Run audits no other suppression: it is what the
// golden corpora check one analyzer at a time.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	return check(pkg, []*Analyzer{a}, false)
}

// Check runs every analyzer that applies to the package once and returns,
// sorted by position, the findings no suppression silences and every
// suppression that has no reason, names an unknown analyzer, or silences
// nothing — what uts-vet reports for each package go vet hands it.
func Check(pkg *Package) ([]Diagnostic, error) {
	var as []*Analyzer
	for _, a := range All() {
		if a.AppliesTo(pkg.PkgPath) {
			as = append(as, a)
		}
	}
	return check(pkg, as, true)
}

// check runs the analyzers over the package and applies the suppressions
// to their findings. Without audit it looks only at the suppressions of the
// analyzers it ran; with audit it also reports each suppression that names
// an unknown analyzer or silences nothing (as one whose analyzer did not
// run does).
func check(pkg *Package, as []*Analyzer, audit bool) ([]Diagnostic, error) {
	var raw []Diagnostic
	ran := make(map[string]bool)
	for _, a := range as {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
		raw = append(raw, pass.diags...)
		ran[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	silenced := make([]bool, len(raw))
	var out []Diagnostic
	for _, s := range suppressions(pkg.Fset, pkg.Files) {
		report := func(msg string) {
			out = append(out, Diagnostic{Analyzer: s.analyzer, Pos: s.pos, Message: msg})
		}
		switch {
		case !audit && !ran[s.analyzer]:
			continue
		case !known[s.analyzer]:
			report(fmt.Sprintf("suppression names unknown analyzer %q: %s", s.analyzer, s.comment))
			continue
		case !s.justified:
			report("//uts:ok " + s.analyzer + " needs a justification: //uts:ok " + s.analyzer + " <reason>")
			continue
		}
		live := false
		for i, d := range raw {
			if d.Analyzer == s.analyzer && s.covers(d.Pos) {
				silenced[i], live = true, true
			}
		}
		if !live && audit {
			report(fmt.Sprintf("stale suppression: %s silences no %s finding", s.comment, s.analyzer))
		}
	}
	for i, d := range raw {
		if !silenced[i] {
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

type lineKey struct {
	file string
	line int
}

// A suppression is one //uts:ok comment: the analyzer it silences, where
// it stands (it covers its own line and the one below), and whether it
// carries the mandatory justification.
type suppression struct {
	analyzer  string
	pos       token.Position
	justified bool
	comment   string
}

// covers reports whether the suppression silences a finding at pos.
func (s suppression) covers(pos token.Position) bool {
	return pos.Filename == s.pos.Filename && (pos.Line == s.pos.Line || pos.Line == s.pos.Line+1)
}

// suppressions lists every //uts:ok <analyzer> <reason> comment in the
// files. An //uts:ok that names no analyzer is inert.
func suppressions(fset *token.FileSet, files []*ast.File) []suppression {
	var out []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//uts:ok")
				if fields := strings.Fields(text); ok && len(fields) > 0 {
					out = append(out, suppression{fields[0], fset.Position(c.Pos()), len(fields) >= 2, c.Text})
				}
			}
		}
	}
	return out
}

// Inspect walks every file of the pass in depth-first order, calling f
// for each node; f returning false prunes the subtree.
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}

// --- shared type/AST helpers used by the analyzers ---

// deref removes one level of pointer indirection.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedTypeName returns the name of e's (possibly pointer-wrapped) named
// type, or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if n, ok := deref(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// methodCall reports the receiver type name and method name of a call
// expression like x.M(...), resolved through the type checker. It
// returns ok=false for non-method calls (including package-qualified
// function calls).
func (p *Pass) methodCall(call *ast.CallExpr) (recvType, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	s, isMethod := p.Info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal {
		return "", "", false
	}
	return namedTypeName(s.Recv()), s.Obj().Name(), true
}

// pkgFuncCall reports the package path and name of a package-level
// function call like pkg.F(...). ok=false for everything else.
func (p *Pass) pkgFuncCall(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", "", false
	}
	obj, isUse := p.Info.Uses[id].(*types.Func)
	if !isUse || obj.Pkg() == nil {
		return "", "", false
	}
	if sig, isSig := obj.Type().(*types.Signature); isSig && sig.Recv() != nil {
		return "", "", false // method, not package-level function
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// exprString renders a (small) expression for matching and messages:
// identifiers, selectors, and indexes only, "" for anything else.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		base := exprString(e.X)
		idx := exprString(e.Index)
		if base == "" || idx == "" {
			return ""
		}
		return base + "[" + idx + "]"
	}
	return ""
}

// stmtList returns the statement list a node directly holds — the body
// of a block, switch case, or select comm clause — or nil: the lists
// lockcheck scans for sections.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}
