// Command uts-tune finds the chunk-size sweet spot (Section 4.2.1) for a
// given machine profile and processor count by simulated sweep — answering
// in seconds the tuning question that needs machine-hours on a testbed.
//
// Example:
//
//	uts-tune -tree bench-medium -pes 256 -profile topsail
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/policy"
)

func main() {
	f := cliflags.Register(flag.CommandLine, cliflags.Defaults{
		Tree:    "bench-medium",
		Profile: "kittyhawk", ProfileUsage: "machine profile",
		AlgUsage: "algorithm to tune", Algs: cliflags.Simulatable(),
		Width: "pes", PEs: 64, WidthUsage: "simulated processing elements",
		ShardsUsage: "parallel dispatcher shards per sweep point (0 = one per available core; 1 = sequential engine)",
		AdaptUsage:  "after the sweep, run the closed-loop controller from the worst candidate and compare it against the best fixed chunk",
	})
	flag.Parse()

	sp, model, _, err := f.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := des.Config{
		Algorithm: core.Algorithm(f.Alg), PEs: f.PEs, Model: model, Shards: f.Shards,
	}
	best, results, err := des.TuneChunk(sp, cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("chunk-size sweep: %s on %d simulated PEs (%s profile), %s\n\n",
		f.Alg, f.PEs, model.Name, sp.Name)
	chunks := make([]int, 0, len(results))
	for k := range results {
		chunks = append(chunks, k)
	}
	sort.Ints(chunks)
	fmt.Printf("%7s %10s %11s %9s\n", "chunk", "Mnodes/s", "efficiency", "of-peak")
	peak := results[best].Rate()
	for _, k := range chunks {
		res := results[k]
		marker := ""
		if k == best {
			marker = "  <- best"
		}
		fmt.Printf("%7d %10.2f %10.1f%% %8.0f%%%s\n",
			k, res.Rate()/1e6, 100*res.Efficiency(), 100*res.Rate()/peak, marker)
	}

	if f.Adapt {
		// Start the controller from the sweep's worst candidate — the
		// harshest recovery test — and report where it lands relative to
		// the sweep's peak.
		worst := best
		for _, k := range chunks {
			if results[k].Rate() < results[worst].Rate() {
				worst = k
			}
		}
		acfg := cfg
		acfg.Chunk = worst
		acfg.Adapt = &policy.Config{}
		res, err := des.Run(sp, acfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nadaptive from worst (k=%d): %.2f Mnodes/s = %.0f%% of the best fixed chunk\n  %s\n",
			worst, res.Rate()/1e6, 100*res.Rate()/peak, res.Policy)
	}
}
