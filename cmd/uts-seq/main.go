// Command uts-seq measures the sequential exploration rate (the Section 4.1
// baseline) over the named sample trees, or over one tree given by -tree.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/rng"
	"repro/internal/uts"
)

func main() {
	f := cliflags.Register(flag.CommandLine, cliflags.Defaults{TreeUsage: "run only the named tree (default: all samples)"})
	timeout := flag.Duration("timeout", 120*time.Second, "per-tree time budget")
	flag.Parse()

	only, _, _, err := f.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	specs := uts.SampleTrees
	if only != nil {
		specs = []*uts.Spec{only}
	}
	// A sequential rate is a spawn-kernel rate: never print one without it.
	fmt.Printf("# BRG spawn kernel: %s\n", rng.KernelName())
	fmt.Printf("%-14s %-6s %12s %12s %8s %10s\n", "tree", "rng", "nodes", "leaves", "maxdep", "Mnodes/s")
	for _, sp := range specs {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		c, err := uts.SearchSequentialCtx(ctx, sp)
		cancel()
		status := ""
		if err != nil {
			status = " (partial: " + err.Error() + ")"
		}
		fmt.Printf("%-14s %-6s %12d %12d %8d %10.2f%s\n",
			sp.Name, sp.Stream().Name(), c.Nodes, c.Leaves, c.MaxDepth, c.Rate()/1e6, status)
	}
}
