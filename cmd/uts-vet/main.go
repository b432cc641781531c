// Command uts-vet runs the repo's custom analyzer suite (internal/lint),
// seven analyzers: chargecheck, detcheck, noalloc, lockcheck, obscheck,
// atomiccheck, ordercheck — the invariants the paper's numbers stand on,
// which the Go type system cannot express.
//
// Two modes:
//
//	go vet -vettool=$(which uts-vet) ./...   check, as a go vet tool
//	uts-vet -unused-suppressions [packages]   audit stale //uts:ok / //uts:plain
//
// Anything else prints this usage and exits 2.
//
// The -unused-suppressions audit re-runs every analyzer with
// suppression filtering disabled and reports each //uts:ok or
// //uts:plain comment whose covered lines carry no raw finding — the
// invariant it once excused no longer needs excusing, so the comment
// is stale documentation. The audit sees the same files the analyzers
// see (package GoFiles; _test.go files are not loaded), and exits 1
// when any stale suppression is found.
//
// The vettool mode speaks the cmd/go unitchecker protocol: -V=full
// prints a version fingerprint for the build cache, -flags declares no
// extra flags, and a lone *.cfg argument is a JSON config describing
// one package (file set, import map, export data) to analyze. Findings
// go to stderr as file:line:col lines with exit status 2, which go vet
// folds into its own output.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

// version feeds go vet's build cache via -V=full: bump it whenever the
// analyzer suite changes behavior, or cached vet results go stale.
const version = "uts-vet version 1.2.1"

// usage is what any other invocation prints.
const usage = `usage:
	go vet -vettool=$(which uts-vet) [packages]
	uts-vet -unused-suppressions [packages]`

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		// cmd/go fingerprints the tool for its build cache.
		fmt.Println(version)
		return
	case len(args) == 1 && args[0] == "-flags":
		// cmd/go asks which flags the tool accepts; none beyond protocol.
		fmt.Println("[]")
		return
	case len(args) >= 1 && args[0] == "-unused-suppressions":
		os.Exit(auditSuppressions(args[1:]))
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(unitcheck(args[0]))
	default:
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
}

// auditSuppressions loads the requested packages (default ./...) and
// reports every //uts:ok / //uts:plain comment that no longer silences
// anything: the analyzers are re-run with suppression filtering off,
// and a suppression none of whose covered lines carries a raw finding
// from its analyzer is stale.
func auditSuppressions(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	byName := make(map[string]*lint.Analyzer)
	for _, a := range lint.All() {
		byName[a.Name] = a
	}
	stale := 0
	for _, pkg := range pkgs {
		sups := lint.Suppressions(pkg.Fset, pkg.Files)
		if len(sups) == 0 {
			continue
		}
		// Raw findings per analyzer, computed once per package.
		raw := make(map[string][]lint.Diagnostic)
		for name, a := range byName {
			if !a.AppliesTo(pkg.PkgPath) {
				continue
			}
			diags, err := lint.Unsuppressed(a, pkg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			raw[name] = diags
		}
		for _, s := range sups {
			if _, known := byName[s.Analyzer]; !known {
				fmt.Printf("%s: suppression names unknown analyzer %q: %s\n", s.Pos, s.Analyzer, s.Comment)
				stale++
				continue
			}
			used := false
			for _, d := range raw[s.Analyzer] {
				if s.Covers(d.Pos) {
					used = true
					break
				}
			}
			if !used {
				fmt.Printf("%s: stale suppression: %s silences no %s finding\n", s.Pos, s.Comment, s.Analyzer)
				stale++
			}
		}
	}
	if stale > 0 {
		fmt.Fprintf(os.Stderr, "uts-vet: %d stale suppression(s)\n", stale)
		return 1
	}
	return 0
}

// vetConfig is the subset of cmd/go's vet.cfg the tool consumes.
type vetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes the single package described by the config file,
// in-process, the way x/tools' unitchecker does. Exit codes follow go
// vet's convention: 0 clean, 1 tool error, 2 findings.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uts-vet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "uts-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The tool exports no analysis facts, but cmd/go requires the vetx
	// file to exist to cache the (empty) result.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "uts-vet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency visited only for facts; we have none
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "uts-vet:", err)
			return 1
		}
		files = append(files, f)
	}

	imp := lint.NewExportImporter(fset, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "uts-vet:", err)
		return 1
	}

	pkg := &lint.Package{
		PkgPath: cfg.ImportPath,
		Dir:     cfg.Dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	findings := 0
	for _, a := range lint.All() {
		if !a.AppliesTo(cfg.ImportPath) {
			continue
		}
		diags, err := lint.Run(a, pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uts-vet:", err)
			return 1
		}
		for _, d := range diags {
			// go vet surfaces stderr lines verbatim; the file:line:col
			// prefix lets editors jump to the finding.
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
			findings++
		}
	}
	if findings > 0 {
		return 2
	}
	return 0
}
