// Command uts-sim runs one simulated cluster-scale search and prints a
// UTS-style report. It is the exploratory companion of cmd/uts-bench: where
// uts-bench regenerates whole figures, uts-sim runs a single point.
//
// Example:
//
//	uts-sim -tree bench-medium -alg upc-distmem -pes 256 -chunk 16 -profile kittyhawk
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/des"
)

func main() {
	algs := cliflags.Simulatable()
	f := cliflags.Register(flag.CommandLine, cliflags.Defaults{
		Tree:    "bench-medium",
		Profile: "kittyhawk", ProfileUsage: "machine profile: sharedmem, altix, kittyhawk, topsail",
		AlgUsage: "algorithm: " + cliflags.AlgList(algs), Algs: algs,
		// -pes is bounded by the engine: PE ids are a field of its event key.
		// (Per-PE state is goroutine stacks, counters and trace lanes — at
		// that bound, a few GB.)
		Width: "pes", PEs: 64, MaxPEs: des.MaxPEs, WidthUsage: fmt.Sprintf("simulated processing elements (1..%d)", des.MaxPEs),
		Chunk:      16,
		AdaptUsage: "adapt chunk/steal-half/poll per PE at runtime from steal feedback (virtual-time windows; deterministic)",
		Poll:       true, Seed: true,
		Trace: true, Virtual: true,
		RingUsage: "per-PE trace ring capacity in events (0 = default)",
		LiveUsage: "print a live progress line (rates, virtual time, steal p95) to stderr every interval (e.g. 1s; 0 = off)",
	})
	verbose := flag.Bool("verbose", false, "print the per-thread counter table")
	progress := flag.Duration("progress", 0, "emit a wall-clock heartbeat to stderr every interval (e.g. 10s; 0 = off)")
	flag.Parse()

	sp, model, tracer, err := f.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := des.Config{
		Algorithm:    core.Algorithm(f.Alg),
		PEs:          f.PEs,
		Chunk:        f.Chunk,
		Model:        model,
		PollInterval: f.Poll,
		Seed:         f.Seed,
		Adapt:        f.AdaptConfig(),
		Tracer:       tracer,
	}
	var stopBeat chan struct{}
	if *progress > 0 {
		stopBeat = heartbeat(*progress)
	}
	sampler := f.StartLive(tracer, os.Stderr)
	start := time.Now()
	res, info, err := des.RunInfo(sp, cfg)
	wall := time.Since(start)
	sampler.Stop() // nil-safe; takes and prints the final sample
	if stopBeat != nil {
		close(stopBeat)
	}
	if err == nil {
		fmt.Printf("tree=%s alg=%s pes=%d chunk=%d profile=%s engine=%s events=%d wall=%v\n",
			sp.Name, f.Alg, f.PEs, f.Chunk, f.Profile, info.Engine, info.Events, wall.Round(time.Millisecond))
		fmt.Print(res.Summary())
		if *verbose {
			lookahead := "" // the window of a windowed (mpi-ws) run
			if info.Lookahead > 0 {
				lookahead = fmt.Sprintf(" lookahead=%v", info.Lookahead)
			}
			fmt.Printf("engine: pops=%d inline=%d counted=%d handoffs=%d%s\n",
				info.Pops, info.Events-info.Pops-info.Counted, info.Counted, info.Handoffs, lookahead)
			fmt.Printf("wakes: word=%d end=%d post=%d moved=%d\n",
				info.Wakes.Word, info.Wakes.End, info.Wakes.Post, info.Wakes.Moved)
			fmt.Print(res.PerThreadTable())
		}
		err = f.Finish(os.Stdout, tracer)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// heartbeat prints elapsed wall time to stderr every interval until the
// returned channel is closed, so long sweeps show liveness.
func heartbeat(interval time.Duration) chan struct{} {
	stop := make(chan struct{})
	start := time.Now()
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fmt.Fprintf(os.Stderr, "... %v elapsed\n", time.Since(start).Round(time.Second))
			}
		}
	}()
	return stop
}
