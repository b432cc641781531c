package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output stdExports consumes.
type listPkg struct {
	ImportPath string
	Export     string
}

// LoadFiles parses and type-checks one package from explicit files (a
// relative name is taken from dir). Every import is read as compiler
// ("gc") export data from the file lookup opens, so a package is checked
// on its own and no source outside goFiles is parsed: the way uts-vet
// loads the one package go vet hands it.
func LoadFiles(pkgPath, dir string, goFiles []string, lookup func(path string) (io.ReadCloser, error)) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range goFiles {
		fn := name
		if !filepath.IsAbs(fn) {
			fn = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", fn, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil && len(typeErrs) > 0 {
		err = typeErrs[0]
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// LoadDir parses the single package rooted at dir (every .go file, no
// build-tag filtering) and type-checks it against export data for the
// standard library — the loader the golden-file analyzer tests use for
// testdata packages, which live outside the module's package graph.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	exports, err := stdExports(dir)
	if err != nil {
		return nil, err
	}
	return LoadFiles(filepath.Base(dir), dir, goFiles, func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: testdata may only import the standard library; no export data for %q", path)
		}
		return os.Open(f)
	})
}

// stdExports returns export-data paths for the standard library,
// building them into the go cache on first use.
func stdExports(dir string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-json", "-export", "std")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list std failed: %v\n%s", err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}
