// Command uts-vet runs the repo's custom analyzer suite (internal/lint),
// seven analyzers: chargecheck, detcheck, noalloc, lockcheck, obscheck,
// atomiccheck, ordercheck — the invariants the paper's numbers stand on,
// which the Go type system cannot express. It has one mode:
//
//	go vet -vettool=$(which uts-vet) ./...
//
// Anything else prints that usage and exits 2.
//
// go vet hands the tool every package with its _test.go files, so one
// pass sees every file. For each package uts-vet reports what lint.Check
// returns: each finding no //uts:ok or //uts:plain comment silences, and
// each such comment that has no reason, names an unknown analyzer, or
// silences nothing — the invariant it once excused no longer needs
// excusing, so the comment is stale.
//
// The tool speaks the cmd/go unitchecker protocol: -V=full prints a
// version fingerprint for the build cache, -flags declares no extra
// flags, and a lone *.cfg argument is a JSON config describing one
// package (file set, import map, export data) to analyze. Findings go to
// stderr as file:line:col lines with exit status 2, which go vet folds
// into its own output.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

// version feeds go vet's build cache via -V=full: bump it whenever the
// analyzer suite changes behavior, or cached vet results go stale.
const version = "uts-vet version 1.3.0"

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		// cmd/go fingerprints the tool for its build cache.
		fmt.Println(version)
	case len(args) == 1 && args[0] == "-flags":
		// cmd/go asks which flags the tool accepts; none beyond protocol.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(unitcheck(args[0]))
	default:
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which uts-vet) [packages]")
		os.Exit(2)
	}
}

// vetConfig is the subset of cmd/go's vet.cfg the tool consumes.
type vetConfig struct {
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
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

	pkg, err := lint.LoadFiles(cfg.ImportPath, cfg.Dir, cfg.GoFiles, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "uts-vet:", err)
		return 1
	}
	diags, err := lint.Check(pkg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uts-vet:", err)
		return 1
	}
	// go vet surfaces stderr lines verbatim; the file:line:col prefix
	// lets editors jump to the finding.
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
