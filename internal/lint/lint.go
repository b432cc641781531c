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
// line-coverage and mandatory-reason rules. The uts-vet driver's
// -unused-suppressions mode audits both forms against the raw findings
// and reports comments that no longer silence anything.
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
// with //uts:ok suppressions applied, sorted by position. Malformed
// suppression comments (no justification) are reported as findings of
// the analyzer they tried to silence.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
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
	sup, bad := suppressions(pkg.Fset, pkg.Files, a.Name)
	var out []Diagnostic
	for _, d := range pass.diags {
		if sup[lineKey{d.Pos.Filename, d.Pos.Line}] {
			continue
		}
		out = append(out, d)
	}
	out = append(out, bad...)
	sort.Slice(out, func(i, j int) bool {
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

// A Suppression is one //uts:ok or //uts:plain comment: the analyzer it
// silences, the lines it covers (its own and the one below), and
// whether it carries the mandatory justification. The driver's
// -unused-suppressions audit diffs these against Unsuppressed findings.
type Suppression struct {
	Analyzer  string
	Pos       token.Position
	Lines     []int // line numbers covered, in Pos.Filename
	Justified bool
	Comment   string
}

// Covers reports whether the suppression's lines include the position.
func (s Suppression) Covers(pos token.Position) bool {
	if pos.Filename != s.Pos.Filename {
		return false
	}
	for _, l := range s.Lines {
		if l == pos.Line {
			return true
		}
	}
	return false
}

// badMessage is the finding text for a suppression missing its reason.
func (s Suppression) badMessage() string {
	if strings.HasPrefix(s.Comment, "//uts:plain") {
		return "//uts:plain needs a justification: //uts:plain <reason>"
	}
	return "//uts:ok " + s.Analyzer + " needs a justification: //uts:ok " + s.Analyzer + " <reason>"
}

// Suppressions lists every suppression comment in the files:
// //uts:ok <analyzer> <reason> for any analyzer, and
// //uts:plain <reason>, which is atomiccheck's single-threaded-region
// escape hatch.
func Suppressions(fset *token.FileSet, files []*ast.File) []Suppression {
	var out []Suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				var s Suppression
				if text, ok := strings.CutPrefix(c.Text, "//uts:ok"); ok {
					fields := strings.Fields(text)
					if len(fields) == 0 {
						continue // no analyzer named: inert, matches nothing
					}
					s = Suppression{
						Analyzer:  fields[0],
						Pos:       pos,
						Justified: len(fields) >= 2,
						Comment:   c.Text,
					}
				} else if text, ok := strings.CutPrefix(c.Text, "//uts:plain"); ok {
					s = Suppression{
						Analyzer:  "atomiccheck",
						Pos:       pos,
						Justified: len(strings.Fields(text)) >= 1,
						Comment:   c.Text,
					}
				} else {
					continue
				}
				s.Lines = []int{pos.Line, pos.Line + 1}
				out = append(out, s)
			}
		}
	}
	return out
}

// suppressions collects the lines silenced for analyzer name, and
// reports malformed suppression comments (missing justification) as
// diagnostics. A comment suppresses its own line and, when it is the
// whole line (a comment-only line), the line below it.
func suppressions(fset *token.FileSet, files []*ast.File, name string) (map[lineKey]bool, []Diagnostic) {
	sup := make(map[lineKey]bool)
	var bad []Diagnostic
	for _, s := range Suppressions(fset, files) {
		if s.Analyzer != name {
			continue
		}
		if !s.Justified {
			bad = append(bad, Diagnostic{Analyzer: name, Pos: s.Pos, Message: s.badMessage()})
			continue
		}
		for _, l := range s.Lines {
			sup[lineKey{s.Pos.Filename, l}] = true
		}
	}
	return sup, bad
}

// Unsuppressed runs the analyzer over the package and returns the raw
// findings with no suppression filtering and no malformed-comment
// diagnostics added — the comparison side of the driver's
// -unused-suppressions audit.
func Unsuppressed(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
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
	return pass.diags, nil
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
