package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/pgas"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/uts"
)

// Scale selects the size of an experiment run.
type Scale int

const (
	// Smoke is the test-suite scale: seconds.
	Smoke Scale = iota
	// Quick is the default CLI scale: a couple of minutes.
	Quick
	// Full is the largest scale this reproduction runs.
	Full
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Smoke:
		return "smoke"
	case Quick:
		return "quick"
	case Full:
		return "full"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale converts a name to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "smoke":
		return Smoke, nil
	case "quick", "":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("bench: unknown scale %q (want smoke, quick or full)", s)
}

// pick chooses a per-scale value.
func pick[T any](sc Scale, smoke, quick, full T) T {
	switch sc {
	case Smoke:
		return smoke
	case Full:
		return full
	default:
		return quick
	}
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Paper string // what in the paper this regenerates
	Run   func(sc Scale) (*Table, error)
}

// All lists every experiment in DESIGN.md's per-experiment index order.
var All = []Experiment{
	{"E0", "Sections 1-2 premise: static partitioning fails on UTS", E0StaticBaseline},
	{"E1", "Section 4.1: sequential exploration rate", E1Sequential},
	{"E2", "Figure 4: speedup & performance vs chunk size, all implementations", E2Fig4ChunkSweep},
	{"E3", "Figure 5: speedup & performance vs processor count", E3Fig5Scaling},
	{"E4", "Figure 6: shared-memory (Altix) scaling", E4Fig6SharedMem},
	{"E5", "Section 4.2: stacked refinements (~37% total improvement)", E5Refinements},
	{"E6", "Sections 1 & 6.2: steal throughput and working-state efficiency", E6Efficiency},
	{"E7", "Section 4.2.1: chunk-size sweet spot narrows with scale", E7SweetSpot},
	{"A1", "Ablation: steal-half (rapid diffusion) on/off", A1StealHalf},
	{"A2", "Ablation: mpi-ws polling interval", A2PollInterval},
	{"A3", "Ablation: lock-guarded vs lock-less stack", A3Lockless},
	{"A4", "Extension (paper §6.2 future work): locality-aware hierarchical stealing", A4Hierarchical},
	{"W1", "Workload validation: root-subtree dominance vs extinction margin", W1TreeShape},
	{"D1", "Diagnostic: diffusion of work sources over time (Section 3.3.2)", D1Diffusion},
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}

// chunkSweep is the chunk-size axis of Figure 4.
var chunkSweep = []int{1, 2, 4, 8, 16, 32, 64, 128}

// E1Sequential regenerates the Section 4.1 sequential-rate table: the
// paper reports 2.10M nodes/s (Topsail Xeon E5345), 2.39M (Kitty Hawk
// E5150) and 1.12M (Altix Itanium2), all dominated by SHA-1 throughput.
func E1Sequential(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Sequential exploration rate (Section 4.1), spawn kernels: " + rng.KernelName(),
		Columns: []string{"tree", "rng", "nodes", "Mnodes/s"},
		Notes: []string{
			"paper: 2.10M/s (Topsail), 2.39M/s (Kitty Hawk), 1.12M/s (Altix); rate is SHA-1 bound",
		},
	}
	specs := []*uts.Spec{
		pick(sc, &uts.BenchTiny, &uts.BenchSmall, &uts.BenchMedium),
	}
	alfg := *pick(sc, &uts.BenchTiny, &uts.BenchSmall, &uts.BenchMedium)
	alfg.RNG = "ALFG"
	alfg.Name += "+alfg"
	specs = append(specs, &alfg)
	for _, sp := range specs {
		c := uts.SearchSequential(sp)
		t.AddRow(sp.Name, sp.Stream().Name(), c.Nodes, fmt.Sprintf("%.2f", c.Rate()/1e6))
	}
	return t, nil
}

// E2Fig4ChunkSweep regenerates Figure 4: all five implementations swept
// over chunk size on the Kitty Hawk profile. The paper's claims: the
// shared-memory algorithm collapses at small chunk sizes (cancelable-
// barrier and locking traffic), each refinement improves on the last, and
// upc-distmem meets or beats mpi-ws across the sweep.
func E2Fig4ChunkSweep(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchMedium, &uts.BenchLarge)
	pes := pick(sc, 8, 64, 256)
	chunks := pick(sc, []int{2, 8, 32}, chunkSweep, chunkSweep)
	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("Figure 4: chunk-size sweep, %d PEs, %s, kittyhawk profile", pes, tree.Name),
		Columns: []string{"impl", "chunk", "Mnodes/s", "speedup", "efficiency", "steals", "working"},
		Notes: []string{
			"paper (256 threads, 10.6B tree): upc-sharedmem degrades sharply at low chunk;",
			"upc-term, upc-term-rapdif, upc-distmem each improve; upc-distmem ≈ best across sweep",
		},
	}
	for _, alg := range core.Algorithms {
		for _, k := range chunks {
			res, err := des.Run(tree, des.Config{Algorithm: alg, PEs: pes, Chunk: k, Model: &pgas.KittyHawk})
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", alg, k, err)
			}
			t.AddRow(string(alg), k,
				fmt.Sprintf("%.2f", res.Rate()/1e6),
				fmt.Sprintf("%.1f", res.Speedup()),
				fmt.Sprintf("%.1f%%", 100*res.Efficiency()),
				res.Sum(func(th *stats.Thread) int64 { return th.Steals }),
				fmt.Sprintf("%.1f%%", 100*res.WorkingFraction()))
		}
	}
	return t, nil
}

// E3Fig5Scaling regenerates Figure 5: speedup and absolute performance of
// the best implementation (and mpi-ws) against processor count on the
// Topsail profile. The paper reaches speedup 819 (80% efficiency) at 1024
// processors on a 157B-node tree.
func E3Fig5Scaling(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchLarge, &uts.BenchHuge)
	peCounts := pick(sc, []int{4, 16}, []int{16, 64, 256}, []int{64, 128, 256, 512, 1024})
	t := &Table{
		ID:      "E3",
		Title:   fmt.Sprintf("Figure 5: scaling on %s, topsail profile", tree.Name),
		Columns: []string{"impl", "PEs", "Mnodes/s", "speedup", "efficiency", "steals/s"},
		Notes: []string{
			"paper (157B tree): 1.7B nodes/s at 1024 procs, speedup 819, efficiency 80%;",
			"this tree is ~2000x smaller per PE, so efficiency rolls off earlier — see EXPERIMENTS.md",
		},
	}
	for _, alg := range []core.Algorithm{core.UPCDistMem, core.MPIWS} {
		for _, p := range peCounts {
			res, err := des.Run(tree, des.Config{Algorithm: alg, PEs: p, Chunk: 16, Model: &pgas.Topsail})
			if err != nil {
				return nil, fmt.Errorf("%s pes=%d: %w", alg, p, err)
			}
			t.AddRow(string(alg), p,
				fmt.Sprintf("%.2f", res.Rate()/1e6),
				fmt.Sprintf("%.1f", res.Speedup()),
				fmt.Sprintf("%.1f%%", 100*res.Efficiency()),
				fmt.Sprintf("%.0f", res.StealsPerSecond()))
		}
	}
	return t, nil
}

// E4Fig6SharedMem regenerates Figure 6: both UPC algorithms scale
// near-linearly on the low-latency Altix profile, with mpi-ws slightly
// behind (message-passing overheads that the hardware shared memory makes
// unnecessary).
func E4Fig6SharedMem(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchMedium, &uts.BenchLarge)
	peCounts := pick(sc, []int{2, 8}, []int{2, 8, 32, 64}, []int{2, 8, 16, 32, 64})
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("Figure 6: SGI Altix shared-memory scaling, %s", tree.Name),
		Columns: []string{"impl", "PEs", "Mnodes/s", "speedup", "efficiency"},
		Notes: []string{
			"paper: near-linear speedup to 64 procs for both UPC implementations; MPI lags slightly",
		},
	}
	for _, alg := range []core.Algorithm{core.UPCSharedMem, core.UPCDistMem, core.MPIWS} {
		for _, p := range peCounts {
			res, err := des.Run(tree, des.Config{Algorithm: alg, PEs: p, Chunk: 16, Model: &pgas.Altix})
			if err != nil {
				return nil, fmt.Errorf("%s pes=%d: %w", alg, p, err)
			}
			t.AddRow(string(alg), p,
				fmt.Sprintf("%.2f", res.Rate()/1e6),
				fmt.Sprintf("%.1f", res.Speedup()),
				fmt.Sprintf("%.1f%%", 100*res.Efficiency()))
		}
	}
	return t, nil
}

// E5Refinements regenerates the Section 4.2 claim that the three
// refinements stack to a ~37% total improvement over the shared-memory
// algorithm on a cluster. As in the paper's reading of Figure 4, each
// implementation is measured at its own best chunk size.
func E5Refinements(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchMedium, &uts.BenchLarge)
	pes := pick(sc, 8, 64, 256)
	chunks := pick(sc, []int{4, 16}, []int{2, 4, 8, 16, 32}, []int{2, 4, 8, 16, 32})
	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("Refinement stack at %d PEs (best chunk per impl), %s, kittyhawk profile", pes, tree.Name),
		Columns: []string{"impl", "best-chunk", "Mnodes/s", "speedup", "vs sharedmem", "vs previous"},
		Notes: []string{
			"paper: each refinement improves; total improvement over upc-sharedmem ≈ 37%;",
			"the smaller trees here amplify the gap (less work to amortize each overhead)",
		},
	}
	var base, prev float64
	for _, alg := range []core.Algorithm{core.UPCSharedMem, core.UPCTerm, core.UPCTermRapdif, core.UPCDistMem} {
		var best *core.Result
		bestK := 0
		for _, k := range chunks {
			res, err := des.Run(tree, des.Config{Algorithm: alg, PEs: pes, Chunk: k, Model: &pgas.KittyHawk})
			if err != nil {
				return nil, err
			}
			if best == nil || res.Rate() > best.Rate() {
				best, bestK = res, k
			}
		}
		rate := best.Rate()
		if base == 0 {
			base, prev = rate, rate
		}
		t.AddRow(string(alg), bestK,
			fmt.Sprintf("%.2f", rate/1e6),
			fmt.Sprintf("%.1f", best.Speedup()),
			fmt.Sprintf("%+.1f%%", 100*(rate/base-1)),
			fmt.Sprintf("%+.1f%%", 100*(rate/prev-1)))
		prev = rate
	}
	return t, nil
}

// E6Efficiency regenerates the headline operational numbers: >85,000 load
// balancing operations per second sustained (Section 1) and 93% of thread
// time spent in the Working state (Section 6.2).
func E6Efficiency(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchLarge, &uts.BenchHuge)
	pes := pick(sc, 8, 64, 1024)
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("Operational profile of upc-distmem at %d PEs on %s (topsail profile)", pes, tree.Name),
		Columns: []string{"metric", "value", "paper"},
	}
	res, err := des.Run(tree, des.Config{Algorithm: core.UPCDistMem, PEs: pes, Chunk: 16, Model: &pgas.Topsail})
	if err != nil {
		return nil, err
	}
	bd := res.StateBreakdown()
	t.AddRow("nodes/s", fmt.Sprintf("%.3g", res.Rate()), "1.7e9 @1024")
	t.AddRow("speedup", fmt.Sprintf("%.1f", res.Speedup()), "819 @1024")
	t.AddRow("efficiency", fmt.Sprintf("%.1f%%", 100*res.Efficiency()), "80% @1024")
	t.AddRow("steal ops/s", fmt.Sprintf("%.0f", res.StealsPerSecond()), ">85,000 @1024")
	t.AddRow("working-state time", fmt.Sprintf("%.1f%%", 100*res.WorkingFraction()), "93%")
	t.AddRow("searching time", fmt.Sprintf("%.1f%%", 100*bd[stats.Searching]), "—")
	t.AddRow("stealing time", fmt.Sprintf("%.1f%%", 100*bd[stats.Stealing]), "—")
	t.AddRow("idle/termination time", fmt.Sprintf("%.1f%%", 100*bd[stats.Idle]), "—")
	return t, nil
}

// E7SweetSpot regenerates the Section 4.2.1 observation that the range of
// good chunk sizes is a plateau that narrows as processors are added.
func E7SweetSpot(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchMedium, &uts.BenchLarge)
	peCounts := pick(sc, []int{4, 8}, []int{16, 64}, []int{16, 64, 256})
	chunks := pick(sc, []int{2, 16, 128}, chunkSweep, chunkSweep)
	t := &Table{
		ID:      "E7",
		Title:   fmt.Sprintf("Chunk-size sweet spot vs scale, upc-distmem, %s", tree.Name),
		Columns: []string{"PEs", "chunk", "Mnodes/s", "efficiency"},
		Notes: []string{
			"paper: performance forms a plateau over chunk size that falls off on both sides",
			"and becomes narrower/more sensitive as threads are added",
		},
	}
	for _, p := range peCounts {
		for _, k := range chunks {
			res, err := des.Run(tree, des.Config{Algorithm: core.UPCDistMem, PEs: p, Chunk: k, Model: &pgas.KittyHawk})
			if err != nil {
				return nil, err
			}
			t.AddRow(p, k,
				fmt.Sprintf("%.2f", res.Rate()/1e6),
				fmt.Sprintf("%.1f%%", 100*res.Efficiency()))
		}
	}
	return t, nil
}

// A1StealHalf isolates rapid diffusion (Section 3.3.2): upc-term and
// upc-term-rapdif differ only in stealing one chunk vs half the chunks.
func A1StealHalf(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchMedium, &uts.BenchLarge)
	pes := pick(sc, 8, 64, 256)
	t := &Table{
		ID:      "A1",
		Title:   fmt.Sprintf("Ablation: steal-one vs steal-half at %d PEs on %s", pes, tree.Name),
		Columns: []string{"policy", "chunk", "Mnodes/s", "steals", "chunks-moved", "probes"},
	}
	for _, alg := range []core.Algorithm{core.UPCTerm, core.UPCTermRapdif} {
		label := "steal-one"
		if alg == core.UPCTermRapdif {
			label = "steal-half"
		}
		for _, k := range pick(sc, []int{4}, []int{4, 16, 64}, []int{4, 16, 64}) {
			res, err := des.Run(tree, des.Config{Algorithm: alg, PEs: pes, Chunk: k, Model: &pgas.KittyHawk})
			if err != nil {
				return nil, err
			}
			t.AddRow(label, k,
				fmt.Sprintf("%.2f", res.Rate()/1e6),
				res.Sum(func(th *stats.Thread) int64 { return th.Steals }),
				res.Sum(func(th *stats.Thread) int64 { return th.ChunksGot }),
				res.Sum(func(th *stats.Thread) int64 { return th.Probes }))
		}
	}
	return t, nil
}

// A2PollInterval sweeps the mpi-ws polling interval, the tuning parameter
// Section 3.2 highlights: polling too often wastes working time in
// MPI_Iprobe, polling too rarely delays steal responses.
func A2PollInterval(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchMedium, &uts.BenchLarge)
	pes := pick(sc, 8, 64, 256)
	polls := pick(sc, []int{2, 16}, []int{1, 2, 4, 8, 16, 32, 64, 128}, []int{1, 2, 4, 8, 16, 32, 64, 128})
	t := &Table{
		ID:      "A2",
		Title:   fmt.Sprintf("Ablation: mpi-ws polling interval at %d PEs on %s", pes, tree.Name),
		Columns: []string{"poll-interval", "Mnodes/s", "efficiency", "working"},
	}
	for _, p := range polls {
		res, err := des.Run(tree, des.Config{Algorithm: core.MPIWS, PEs: pes, Chunk: 16, PollInterval: p, Model: &pgas.KittyHawk})
		if err != nil {
			return nil, err
		}
		t.AddRow(p,
			fmt.Sprintf("%.2f", res.Rate()/1e6),
			fmt.Sprintf("%.1f%%", 100*res.Efficiency()),
			fmt.Sprintf("%.1f%%", 100*res.WorkingFraction()))
	}
	return t, nil
}

// A3Lockless isolates the lock-less stack (Section 3.3.3): upc-term-rapdif
// and upc-distmem differ only in lock-guarded vs request/response stealing.
func A3Lockless(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchMedium, &uts.BenchLarge)
	pes := pick(sc, 8, 64, 256)
	t := &Table{
		ID:      "A3",
		Title:   fmt.Sprintf("Ablation: lock-guarded vs lock-less stack at %d PEs on %s", pes, tree.Name),
		Columns: []string{"stack", "chunk", "Mnodes/s", "working", "efficiency"},
	}
	for _, alg := range []core.Algorithm{core.UPCTermRapdif, core.UPCDistMem, core.UPCTermRelaxed} {
		label := "lock-guarded"
		switch alg {
		case core.UPCDistMem:
			label = "lock-less"
		case core.UPCTermRelaxed:
			label = "fence-free"
		}
		for _, k := range pick(sc, []int{4}, []int{2, 8, 32}, []int{2, 8, 32}) {
			res, err := des.Run(tree, des.Config{Algorithm: alg, PEs: pes, Chunk: k, Model: &pgas.KittyHawk})
			if err != nil {
				return nil, err
			}
			t.AddRow(label, k,
				fmt.Sprintf("%.2f", res.Rate()/1e6),
				fmt.Sprintf("%.1f%%", 100*res.WorkingFraction()),
				fmt.Sprintf("%.1f%%", 100*res.Efficiency()))
		}
	}
	return t, nil
}
