// Command uts-bench regenerates the paper's tables and figures. Each
// experiment (see DESIGN.md's per-experiment index) prints a text table;
// -csv additionally writes one CSV per experiment for plotting.
//
// Examples:
//
//	uts-bench                      # all experiments at quick scale
//	uts-bench -exp E2 -scale full  # Figure 4 at the largest scale
//	uts-bench -list                # what is available
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	ids := make([]string, len(bench.All))
	for i, e := range bench.All {
		ids[i] = e.ID
	}
	exp := flag.String("exp", "all", "experiment ID ("+strings.Join(ids, ", ")+") or \"all\"")
	scale := flag.String("scale", "quick", "smoke, quick or full")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files (optional)")
	list := flag.Bool("list", false, "list experiments and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle to reachable allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *mutexProfile != "" {
		// Sample every mutex-contention event: the steal protocol's hot
		// paths are lock-free, so contention is rare enough to keep whole.
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexProfile)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1) // nanoseconds; 1 = every blocking event
		defer writeProfile("block", *blockProfile)
	}

	if *list {
		for _, e := range bench.All {
			fmt.Printf("%-4s %s\n", e.ID, e.Paper)
		}
		return
	}
	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	exps := bench.All
	if *exp != "all" {
		e := bench.ByID(*exp)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		exps = []bench.Experiment{*e}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	fmt.Printf("# UTS load-balancing reproduction — scale=%s\n\n", sc)
	for _, e := range exps {
		start := time.Now()
		tab, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		tab.Notes = append(tab.Notes, fmt.Sprintf("scale=%s, generated in %v", sc, time.Since(start).Round(time.Millisecond)))
		tab.Fprint(os.Stdout)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

// writeProfile dumps a named runtime/pprof profile (mutex, block, ...)
// to path. Profiling rates must have been set before the run.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	p := pprof.Lookup(name)
	if p == nil {
		fmt.Fprintf(os.Stderr, "no %s profile\n", name)
		return
	}
	if err := p.WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
