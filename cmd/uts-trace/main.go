// Command uts-trace visualizes the rapid-diffusion mechanism of Section
// 3.3.2: it runs a simulated search, recording the number of "work sources"
// (PEs with stealable surplus) wherever it changes in virtual time, then
// prints the curve as a text chart. Comparing -alg upc-term (steal-one) against
// upc-term-rapdif or upc-distmem (steal-half) shows work sources
// multiplying far faster under steal-half — the effect the paper relies on
// to cut victim-discovery costs.
//
// Example:
//
//	uts-trace -tree bench-medium -pes 64 -alg upc-term
//	uts-trace -tree bench-medium -pes 64 -alg upc-distmem
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/des"
)

func main() {
	f := cliflags.Register(flag.CommandLine, cliflags.Defaults{
		Tree:    "bench-medium",
		Profile: "kittyhawk", ProfileUsage: "machine profile",
		AlgUsage: "algorithm to trace", Algs: cliflags.Simulatable(),
		Width: "pes", PEs: 64, WidthUsage: "simulated processing elements",
		Chunk: 8,
		Trace: true, Virtual: true, HistUsage: "print the steal-protocol latency histograms",
		Chart: true,
	})
	flag.Parse()

	sp, model, tracer, err := f.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	res, trace, err := des.RunTraced(sp, des.Config{Algorithm: core.Algorithm(f.Alg), PEs: f.PEs, Chunk: f.Chunk, Model: model, Tracer: tracer})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("work sources over virtual time: %s, %d PEs, chunk %d, %s\n",
		f.Alg, f.PEs, f.Chunk, model.Name)
	fmt.Printf("makespan %v, rate %.1fM nodes/s, efficiency %.1f%%\n\n",
		res.Elapsed.Round(time.Microsecond), res.Rate()/1e6, 100*res.Efficiency())

	// Split the makespan into buckets and draw one bar per bucket (the peak
	// count in it, scaled to the PE count).
	span := max(res.Elapsed, 1)
	peaks := make([]int, f.Buckets)
	now, i := 0, 0 // the count at the bucket's start, the next change
	for b := range peaks {
		peaks[b] = now
		for end := span * time.Duration(b+1) / time.Duration(f.Buckets); i < len(trace.Changes) && trace.Changes[i].T < end; i++ {
			now = trace.Changes[i].WorkSources
			peaks[b] = max(peaks[b], now)
		}
	}
	for b, v := range peaks {
		bar := v * f.Width / f.PEs
		if v > 0 && bar == 0 {
			bar = 1
		}
		fmt.Printf("%8v |%s%s| %d\n",
			(span * time.Duration(b) / time.Duration(f.Buckets)).Round(time.Microsecond),
			strings.Repeat("█", bar), strings.Repeat(" ", f.Width-bar), v)
	}
	fmt.Printf("\n%s\n", diffusionLine(trace, f.PEs))
	if f.Hist && res.Obs != nil {
		fmt.Print("\n" + res.Obs.String())
	}
	if err := f.Finish(os.Stdout, tracer); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// diffusionLine reports when a quarter of the pes PEs — at least one, so
// that 1 to 3 PEs do not ask for zero — first held stealable surplus.
func diffusionLine(trace *des.Trace, pes int) string {
	quarter := max(1, pes/4)
	if t := trace.TimeToSources(quarter); t >= 0 {
		return fmt.Sprintf("reached %d work sources (P/4) at %v", quarter, t.Round(time.Microsecond))
	}
	return fmt.Sprintf("never reached %d work sources (P/4)", quarter)
}
