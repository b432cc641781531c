package bench

import (
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/pgas"
	"repro/internal/uts"
)

// TestPaperClaims holds the simulator to the paper's qualitative claims, each
// on the smallest tree and PE count of the Kitty Hawk profile on which it
// holds — deterministic runs, so a change that breaks one is a change to the
// schedule, never noise. Larger configurations where a claim does not hold
// are findings in EXPERIMENTS.md, not bounds to loosen here. A3 is E2's
// last ordering.
func TestPaperClaims(t *testing.T) {
	t.Run("E2", func(t *testing.T) {
		// Figure 4 on bench-tiny at 16 PEs (at 8, upc-sharedmem is only
		// 0.6x the slowest other at k = 1).
		const pes = 16
		rate := func(alg core.Algorithm, k int) float64 {
			res, err := des.Run(&uts.BenchTiny, des.Config{Algorithm: alg, PEs: pes, Chunk: k, Model: &pgas.KittyHawk})
			if err != nil {
				t.Fatal(err)
			}
			return res.Rate()
		}
		// The shared-memory algorithm collapses at the smallest chunk: under
		// half the rate of every other implementation.
		sm := rate(core.UPCSharedMem, 1)
		for _, alg := range []core.Algorithm{core.UPCTerm, core.UPCTermRapdif, core.UPCDistMem, core.MPIWS} {
			if r := rate(alg, 1); sm >= r/2 {
				t.Errorf("k=1: upc-sharedmem %.2f Mnodes/s, not under half of %s's %.2f", sm/1e6, alg, r/1e6)
			}
		}
		// Each refinement improves on the last at every small chunk. The
		// last step, upc-term-rapdif < upc-distmem, is also A3's claim:
		// the lock-guarded shared region runs below the lock-less one.
		for _, k := range []int{1, 2, 4, 8} {
			term, rapdif, dist := rate(core.UPCTerm, k), rate(core.UPCTermRapdif, k), rate(core.UPCDistMem, k)
			if !(term < rapdif && rapdif < dist) {
				t.Errorf("k=%d: upc-term %.2f, upc-term-rapdif %.2f, upc-distmem %.2f Mnodes/s: want increasing", k, term/1e6, rapdif/1e6, dist/1e6)
			}
		}
		// The one-sided protocol beats message passing where stealing is
		// most frequent.
		if mpi, dist := rate(core.MPIWS, 1), rate(core.UPCDistMem, 1); mpi >= dist {
			t.Errorf("k=1: mpi-ws %.2f Mnodes/s, not below upc-distmem's %.2f", mpi/1e6, dist/1e6)
		}
	})
	t.Run("E0", func(t *testing.T) {
		// Static partitioning degenerates (Sections 1-2), on bench-small at
		// 16 and 32 PEs (at 8, upc-distmem is only 3.5x static): its
		// speedup stays under 2, upc-distmem's is at least 4x it.
		for _, pes := range []int{16, 32} {
			speedup := func(alg core.Algorithm) float64 {
				res, err := des.Run(&uts.BenchSmall, des.Config{Algorithm: alg, PEs: pes, Chunk: 16, Model: &pgas.KittyHawk})
				if err != nil {
					t.Fatal(err)
				}
				return res.Speedup()
			}
			if st, dist := speedup(core.Static), speedup(core.UPCDistMem); st >= 2 || dist < 4*st {
				t.Errorf("%d PEs: static speedup %.2f, upc-distmem %.2f: want static under 2 and upc-distmem at least 4x it", pes, st, dist)
			}
		}
	})
	t.Run("E7", func(t *testing.T) {
		// The chunk-size sweet spot narrows with scale (Section 4.2.1), on
		// bench-small from 4 to 8 PEs (bench-tiny's widens): fewer of
		// upc-distmem's chunk sizes come within 10 % of the best rate.
		spot := func(pes int) []int {
			rates := make([]float64, len(chunkSweep))
			best := 0.0
			for i, k := range chunkSweep {
				res, err := des.Run(&uts.BenchSmall, des.Config{Algorithm: core.UPCDistMem, PEs: pes, Chunk: k, Model: &pgas.KittyHawk})
				if err != nil {
					t.Fatal(err)
				}
				rates[i], best = res.Rate(), max(best, res.Rate())
			}
			var in []int
			for i, k := range chunkSweep {
				if rates[i] >= 0.9*best {
					in = append(in, k)
				}
			}
			return in
		}
		if small, large := spot(4), spot(8); len(large) >= len(small) {
			t.Errorf("chunks within 10%% of the best rate: %v at 4 PEs, %v at 8: want fewer at 8", small, large)
		}
	})
	t.Run("E5", func(t *testing.T) {
		// The refinements stack (Section 4.2): each implementation, at its
		// own best chunkSweep rate, beats the one before it. Strict on
		// bench-tiny at 8, 16 and 32 PEs (at 64, upc-term and
		// upc-term-rapdif tie).
		best := func(tree *uts.Spec, alg core.Algorithm, pes int) float64 {
			k, results, err := des.TuneChunk(tree, des.Config{Algorithm: alg, PEs: pes, Model: &pgas.KittyHawk}, chunkSweep)
			if err != nil {
				t.Fatal(err)
			}
			return results[k].Rate()
		}
		stack := []core.Algorithm{core.UPCSharedMem, core.UPCTerm, core.UPCTermRapdif, core.UPCDistMem}
		for _, pes := range []int{8, 16, 32} {
			prev := 0.0
			for _, alg := range stack {
				r := best(&uts.BenchTiny, alg, pes)
				if r <= prev {
					t.Errorf("%d PEs: %s at its best chunk %.2f Mnodes/s, not above the previous refinement's %.2f", pes, alg, r/1e6, prev/1e6)
				}
				prev = r
			}
		}
		// The total gain, upc-distmem over upc-sharedmem, grows with P on
		// bench-small from 8 to 64 PEs.
		prev := 0.0
		for _, pes := range []int{8, 16, 32, 64} {
			gain := best(&uts.BenchSmall, core.UPCDistMem, pes)/best(&uts.BenchSmall, core.UPCSharedMem, pes) - 1
			if gain <= prev {
				t.Errorf("%d PEs: total gain %+.1f%%, not above the %+.1f%% at half the PEs", pes, 100*gain, 100*prev)
			}
			prev = gain
		}
	})
	t.Run("A1", func(t *testing.T) {
		// Rapid diffusion (Section 3.3.2) on bench-tiny at 8 PEs: stealing
		// half the victim's chunks makes P/2 PEs work sources sooner than
		// stealing one. "Never" is later than any instant.
		sooner := func(sp *uts.Spec, pes int) {
			reach := func(alg core.Algorithm, k int) time.Duration {
				_, tr, err := des.RunTraced(sp, des.Config{Algorithm: alg, PEs: pes, Chunk: k, Model: &pgas.KittyHawk})
				if err != nil {
					t.Fatal(err)
				}
				if d := tr.TimeToSources(pes / 2); d >= 0 {
					return d
				}
				return des.Never
			}
			at := func(d time.Duration) any {
				if d == des.Never {
					return "never"
				}
				return d
			}
			for _, k := range []int{1, 2, 4, 8} {
				if one, half := reach(core.UPCTerm, k), reach(core.UPCTermRapdif, k); half >= one {
					t.Errorf("%s, %d PEs, k=%d: steal-half reaches %d work sources at %v, steal-one at %v: want sooner", sp.Name, pes, k, pes/2, at(half), at(one))
				} else {
					t.Logf("%s, %d PEs, k=%d: steal-half %v, steal-one %v", sp.Name, pes, k, at(half), at(one))
				}
			}
		}
		sooner(&uts.BenchTiny, 8)
		// At grain, behind UTS_GATES=1 (make gates, ≈15 s): on bench-large
		// at 64 PEs, where a chunk is a small share of a PE's stack, as on
		// the paper's trees. On bench-medium at 64 PEs steal-half never
		// reaches P/2 at chunk 8 (EXPERIMENTS.md, A1).
		if os.Getenv("UTS_GATES") == "1" {
			sooner(&uts.BenchLarge, 64)
		}
	})
}
