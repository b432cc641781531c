// Package lint is the repo's custom static-analysis suite: seven
// analyzers that machine-check the invariants the paper's results stand
// on and that the Go type system cannot see.
//
//   - chargecheck: in internal/core, touching another PE's affinity
//     state (stacks, steal slots, response words) without first charging
//     the PGAS latency model silently corrupts every simulated-cost
//     figure. The paper's experiment *is* the cost accounting.
//   - detcheck: internal/des, internal/core, and internal/uts must stay
//     deterministic functions of (spec, algorithm, model, seed) —
//     byte-identical differential tests depend on it — so wall-clock
//     reads, global math/rand state, and map-order iteration are banned
//     there.
//   - noalloc: functions annotated //uts:noalloc (spawn kernel, DES
//     dispatch, obs record path, msg ring ops) are checked for
//     constructs that heap-allocate or box.
//   - lockcheck: in internal/cluster, core and msg every Lock/Acquire is
//     released on every exit path.
//   - obscheck: obs events are recorded with declared Kind* constants,
//     and the obs and policy hooks stay nil-receiver-safe (a nil tracer,
//     sampler or controller is the documented "off" representation).
//   - atomiccheck: a field accessed through sync/atomic anywhere is
//     accessed atomically on every path (//uts:plain escapes provably
//     single-threaded regions).
//   - ordercheck: //uts:orders a<b publish-order invariants (the relaxed
//     ring's ledger before its slot, the obs seqlock's invalidate before
//     payload before publish) hold by dominance on every path.
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
// blanket-disable a rule. atomiccheck has a dedicated escape hatch,
//
//	//uts:plain <reason>
//
// for provably single-threaded init/reset regions; it follows the same
// line-coverage and mandatory-reason rules. Check, which the uts-vet
// driver runs on every package go vet hands it, also reports a comment
// of either form that names an unknown analyzer or silences nothing.
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
			report(s.badMessage())
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

// A suppression is one //uts:ok or //uts:plain comment: the analyzer it
// silences, where it stands (it covers its own line and the one below),
// and whether it carries the mandatory justification.
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

// badMessage is the finding text for a suppression missing its reason.
func (s suppression) badMessage() string {
	if strings.HasPrefix(s.comment, "//uts:plain") {
		return "//uts:plain needs a justification: //uts:plain <reason>"
	}
	return "//uts:ok " + s.analyzer + " needs a justification: //uts:ok " + s.analyzer + " <reason>"
}

// suppressions lists every suppression comment in the files:
// //uts:ok <analyzer> <reason> for any analyzer, and
// //uts:plain <reason>, which is atomiccheck's single-threaded-region
// escape hatch. An //uts:ok that names no analyzer is inert.
func suppressions(fset *token.FileSet, files []*ast.File) []suppression {
	var out []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s := suppression{pos: fset.Position(c.Pos()), comment: c.Text}
				if text, ok := strings.CutPrefix(c.Text, "//uts:ok"); ok {
					fields := strings.Fields(text)
					if len(fields) == 0 {
						continue
					}
					s.analyzer, s.justified = fields[0], len(fields) >= 2
				} else if text, ok := strings.CutPrefix(c.Text, "//uts:plain"); ok {
					s.analyzer, s.justified = "atomiccheck", len(strings.Fields(text)) >= 1
				} else {
					continue
				}
				out = append(out, s)
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

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// fieldOf resolves a selector to the struct field it names, or nil for
// method selections, package-qualified names, and untypeable code.
func (p *Pass) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := p.Info.Selections[sel]; ok {
		if s.Kind() != types.FieldVal {
			return nil
		}
		v, _ := s.Obj().(*types.Var)
		return v
	}
	if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

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

// recvIdent returns the receiver identifier of a function declaration,
// or nil for plain functions and anonymous receivers.
func recvIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return fd.Recv.List[0].Names[0]
}

// hasFuncComment reports whether the function's doc comment contains the
// given directive line (e.g. "//uts:noalloc").
func hasFuncComment(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == directive ||
			strings.HasPrefix(strings.TrimSpace(c.Text), directive+" ") {
			return true
		}
	}
	return false
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
// of a block, switch case, or select comm clause — or nil. Dominance
// walks treat all three as block levels: a statement sequence where a
// prior sibling executes before a later one.
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

// pathTo returns the chain of AST nodes from the function body down to
// the node at pos (inclusive), or nil. It is the backbone of the
// lexical-dominance approximation chargecheck uses.
func pathTo(root ast.Node, target ast.Node) []ast.Node {
	var path []ast.Node
	var found bool
	ast.Inspect(root, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		path = append(path, n)
		if n == target {
			found = true
			return false
		}
		// Keep descending; prune the tail when the subtree misses.
		return true
	})
	if !found {
		return nil
	}
	// path contains every node visited before target in DFS order, not
	// just ancestors: filter to nodes whose range encloses target.
	var chain []ast.Node
	tpos, tend := target.Pos(), target.End()
	for _, n := range path {
		if n.Pos() <= tpos && tend <= n.End() {
			chain = append(chain, n)
		}
	}
	return chain
}
