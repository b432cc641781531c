// Command uts-trace visualizes the rapid-diffusion mechanism of Section
// 3.3.2: it runs a simulated search while sampling the number of "work
// sources" (PEs with stealable surplus) over virtual time, then prints the
// curve as a text chart. Comparing -alg upc-term (steal-one) against
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

	// First a quick untraced run to size the sampling interval so the
	// chart covers the whole makespan at the requested resolution.
	cfg := des.Config{Algorithm: core.Algorithm(f.Alg), PEs: f.PEs, Chunk: f.Chunk, Model: model}
	pre, err := des.Run(sp, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	interval := pre.Elapsed / time.Duration(f.Buckets*4)
	if interval <= 0 {
		interval = time.Microsecond
	}
	cfg.Tracer = tracer
	res, trace, err := des.RunTraced(sp, cfg, interval)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("work sources over virtual time: %s, %d PEs, chunk %d, %s\n",
		f.Alg, f.PEs, f.Chunk, model.Name)
	fmt.Printf("makespan %v, rate %.1fM nodes/s, efficiency %.1f%%\n\n",
		res.Elapsed.Round(time.Microsecond), res.Rate()/1e6, 100*res.Efficiency())

	// Bucket the samples and draw one bar per bucket (peak value in the
	// bucket, scaled to the PE count).
	samples := trace.Samples
	if len(samples) == 0 {
		fmt.Println("(no samples)")
		return
	}
	span := samples[len(samples)-1].T
	if span <= 0 {
		span = interval
	}
	peaks := make([]int, f.Buckets)
	for _, s := range samples {
		b := int(int64(s.T) * int64(f.Buckets) / (int64(span) + 1))
		if s.WorkSources > peaks[b] {
			peaks[b] = s.WorkSources
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
