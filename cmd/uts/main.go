// Command uts runs one parallel Unbalanced Tree Search with real
// goroutine threads (the concurrent implementations of internal/core) and
// prints a UTS-style report. For cluster-scale virtual runs use uts-sim;
// for whole figures use uts-bench.
//
// Examples:
//
//	uts -tree bench-small -alg upc-distmem -threads 8 -chunk 16
//	uts -tree bench-medium -alg mpi-ws -threads 4 -poll 16
//	uts -t 'binomial r=5 b0=100 m=2 q=0.49' -threads 2   # custom tree
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/uts"
)

func main() {
	algs := append([]core.Algorithm{core.Sequential}, cliflags.Simulatable()...)
	f := cliflags.Register(flag.CommandLine, cliflags.Defaults{
		Tree: "bench-small", TreeUsage: "named sample tree (see -trees)",
		Profile: "sharedmem", ProfileUsage: "latency model: sharedmem, altix, kittyhawk, topsail",
		AlgUsage: cliflags.AlgList(algs), Algs: algs,
		Width: "threads", PEs: 4, WidthUsage: "worker threads (goroutines)",
		Chunk:      16,
		AdaptUsage: "adapt chunk/steal-half/poll per thread at runtime from steal feedback (closed-loop, bounded around -chunk/-poll)",
		Poll:       true, Seed: true,
		Trace:     true,
		RingUsage: "per-thread trace ring capacity in events (0 = default)",
		LiveUsage: "print a live progress line to stderr every interval (e.g. 1s; 0 = off)",
	})
	custom := flag.String("t", "", "custom binomial tree: 'binomial r=SEED b0=N m=M q=Q'")
	verbose := flag.Bool("verbose", false, "print the per-thread counter table")
	baseline := flag.Bool("baseline", false, "measure the sequential rate first for speedup reporting")
	trees := flag.Bool("trees", false, "list sample trees and exit")
	flag.Parse()

	if *trees {
		for _, sp := range uts.SampleTrees {
			fmt.Printf("%-14s %s  (expected ~%.3g nodes)\n", sp.Name, sp.String(), sp.ExpectedSize())
		}
		return
	}

	if *custom != "" {
		f.Tree = "" // -t replaces -tree
	}
	sp, model, tracer, err := f.Resolve()
	if err == nil && *custom != "" {
		sp, err = parseCustom(*custom)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opt := core.Options{
		Algorithm:    core.Algorithm(f.Alg),
		Threads:      f.PEs,
		Chunk:        f.Chunk,
		PollInterval: f.Poll,
		Model:        model,
		Seed:         f.Seed,
		Adapt:        f.AdaptConfig(),
		Tracer:       tracer,
	}
	if *baseline {
		c := uts.SearchSequential(sp)
		opt.SeqRate = c.Rate()
		fmt.Printf("sequential baseline: %.2fM nodes/s\n", c.Rate()/1e6)
	}
	sampler := f.StartLive(tracer, os.Stderr)
	res, err := core.Run(sp, opt)
	sampler.Stop() // nil-safe; takes and prints the final sample
	if err == nil {
		fmt.Printf("tree=%s alg=%s\n", sp.String(), res.Algorithm)
		fmt.Print(res.Summary())
		if *verbose {
			fmt.Print(res.PerThreadTable())
			fmt.Printf("# spawn kernels: %s\n", rng.KernelName()) // a rate is a statement about it
		}
		err = f.Finish(os.Stdout, tracer)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseCustom parses 'binomial r=SEED b0=N m=M q=Q' into a spec.
func parseCustom(s string) (*uts.Spec, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 || fields[0] != "binomial" {
		return nil, fmt.Errorf("custom trees must start with 'binomial' (got %q)", s)
	}
	sp := &uts.Spec{Name: "custom", Kind: uts.Binomial, B0: 100, M: 2, Q: 0.49}
	for _, f := range fields[1:] {
		kv := strings.SplitN(f, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad field %q", f)
		}
		switch kv[0] {
		case "r":
			v, err := strconv.ParseInt(kv[1], 10, 32)
			if err != nil {
				return nil, err
			}
			sp.Seed = int32(v)
		case "b0":
			v, err := strconv.Atoi(kv[1])
			if err != nil {
				return nil, err
			}
			sp.B0 = v
		case "m":
			v, err := strconv.Atoi(kv[1])
			if err != nil {
				return nil, err
			}
			sp.M = v
		case "q":
			v, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return nil, err
			}
			sp.Q = v
		default:
			return nil, fmt.Errorf("unknown field %q", kv[0])
		}
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}
