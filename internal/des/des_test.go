package des

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pgas"
	"repro/internal/stats"
	"repro/internal/uts"
)

var desSeqCache = map[string]uts.Count{}

func seqCount(t *testing.T, sp *uts.Spec) uts.Count {
	t.Helper()
	if c, ok := desSeqCache[sp.Name]; ok {
		return c
	}
	c := uts.SearchSequential(sp)
	desSeqCache[sp.Name] = c
	return c
}

func checkCounts(t *testing.T, sp *uts.Spec, res *core.Result) {
	t.Helper()
	want := seqCount(t, sp)
	if got := res.Nodes(); got != want.Nodes {
		t.Errorf("%s/%s: nodes = %d, want %d", res.Algorithm, sp.Name, got, want.Nodes)
	}
	if got := res.Leaves(); got != want.Leaves {
		t.Errorf("%s/%s: leaves = %d, want %d", res.Algorithm, sp.Name, got, want.Leaves)
	}
}

func TestSimulatedCountsMatchSequential(t *testing.T) {
	for _, alg := range core.Algorithms {
		for _, pes := range []int{1, 2, 7, 16} {
			res, err := Run(&uts.BenchTiny, Config{Algorithm: alg, PEs: pes, Chunk: 4})
			if err != nil {
				t.Fatalf("%s/%d PEs: %v", alg, pes, err)
			}
			checkCounts(t, &uts.BenchTiny, res)
		}
	}
}

func TestSimulatedTreeFamilies(t *testing.T) {
	for _, alg := range core.Algorithms {
		for _, sp := range []*uts.Spec{&uts.GeoLinear, &uts.Balanced3x7, &uts.HybridSmall} {
			res, err := Run(sp, Config{Algorithm: alg, PEs: 8, Chunk: 8})
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, sp.Name, err)
			}
			checkCounts(t, sp, res)
		}
	}
}

func TestSimulationDeterministic(t *testing.T) {
	run := func() (*core.Result, error) {
		return Run(&uts.BenchTiny, Config{Algorithm: core.UPCDistMem, PEs: 12, Chunk: 4, Seed: 3})
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Errorf("makespans differ: %v vs %v", a.Elapsed, b.Elapsed)
	}
	for i := range a.Threads {
		if a.Threads[i].Nodes != b.Threads[i].Nodes || a.Threads[i].Steals != b.Threads[i].Steals {
			t.Fatalf("PE %d: per-PE stats differ across identical runs", i)
		}
	}
}

func TestSimulatedSpeedupScales(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-PE simulations")
	}
	// Virtual speedup on an unbalanced tree must grow substantially with
	// PE count for the paper's best algorithm.
	var prev float64
	for _, pes := range []int{1, 4, 16} {
		res, err := Run(&uts.BenchSmall, Config{Algorithm: core.UPCDistMem, PEs: pes, Chunk: 16})
		if err != nil {
			t.Fatal(err)
		}
		checkCounts(t, &uts.BenchSmall, res)
		s := res.Speedup()
		if s < prev {
			t.Errorf("speedup fell from %.2f to %.2f going to %d PEs", prev, s, pes)
		}
		prev = s
	}
	if prev < 8 {
		t.Errorf("16-PE speedup = %.2f, want >= 8 (50%% efficiency)", prev)
	}
}

func TestSimulatedSinglePERateMatchesModel(t *testing.T) {
	// With one PE there is no communication: virtual rate must equal the
	// model's sequential rate almost exactly.
	res, err := Run(&uts.BenchTiny, Config{Algorithm: core.UPCDistMem, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	eff := res.Rate() / res.SeqRate
	if eff < 0.95 || eff > 1.05 {
		t.Errorf("single-PE efficiency = %.3f, want ~1.0", eff)
	}
}

func TestSimulatedZeroLatencyModelSafe(t *testing.T) {
	// A zero-cost model must not hang the event loop (costs are clamped
	// to 1ns).
	m := pgas.Model{Name: "zero"}
	res, err := Run(&uts.Balanced3x7, Config{Algorithm: core.UPCSharedMem, PEs: 4, Chunk: 4, Model: &m})
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &uts.Balanced3x7, res)
}

func TestSimulatedStatsPopulated(t *testing.T) {
	res, err := Run(&uts.BenchTiny, Config{Algorithm: core.UPCDistMem, PEs: 8, Chunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum(func(th *stats.Thread) int64 { return th.Steals }) == 0 {
		t.Error("no steals recorded on an 8-PE unbalanced run")
	}
	if res.Elapsed <= 0 {
		t.Error("no virtual makespan")
	}
	bd := res.StateBreakdown()
	if bd[stats.Working] <= 0 { // Working fraction
		t.Error("no working time recorded")
	}
	if res.WorkingFraction() <= 0.2 {
		t.Errorf("working fraction %.2f suspiciously low", res.WorkingFraction())
	}
}

func TestSimulatedChunkExtremes(t *testing.T) {
	for _, alg := range core.Algorithms {
		for _, k := range []int{1, 64} {
			res, err := Run(&uts.BenchTiny, Config{Algorithm: alg, PEs: 6, Chunk: k})
			if err != nil {
				t.Fatalf("%s k=%d: %v", alg, k, err)
			}
			checkCounts(t, &uts.BenchTiny, res)
		}
	}
}

func TestSimulatedManyPEsSmallTree(t *testing.T) {
	// More PEs than chunks of work: most PEs never get any; termination
	// must still be clean for every protocol.
	for _, alg := range core.Algorithms {
		res, err := Run(&uts.Balanced3x7, Config{Algorithm: alg, PEs: 64, Chunk: 8})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		checkCounts(t, &uts.Balanced3x7, res)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(&uts.BenchTiny, Config{Algorithm: "bogus"}); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if _, err := Run(&uts.BenchTiny, Config{Algorithm: core.Sequential}); err == nil {
		t.Error("sequential is not simulatable")
	}
	if _, err := Run(&uts.BenchTiny, Config{PEs: -2}); err == nil {
		t.Error("negative PEs accepted")
	}
	if _, err := Run(&uts.BenchTiny, Config{Chunk: -1}); err == nil {
		t.Error("negative chunk accepted")
	}
	bad := uts.Spec{Kind: uts.Binomial, B0: 3, M: 2, Q: 0.8}
	if _, err := Run(&bad, Config{}); err == nil {
		t.Error("supercritical spec accepted")
	}
}

func TestCostClamping(t *testing.T) {
	cs := newCosts(&pgas.Model{})
	if cs.remoteRef < time.Nanosecond || cs.localRef < time.Nanosecond ||
		cs.nodeCost < time.Nanosecond || cs.lockRTT < time.Nanosecond {
		t.Error("zero costs not clamped")
	}
	cs = newCosts(&pgas.KittyHawk)
	if cs.lockRTT != pgas.KittyHawk.LockRTT || cs.remoteRef != pgas.KittyHawk.RemoteRef {
		t.Error("non-zero costs altered by clamping")
	}
	if cs.bulk(1024) != cs.remoteRef+pgas.KittyHawk.PerKB {
		t.Errorf("bulk(1KiB) = %v", cs.bulk(1024))
	}
}

func TestSimulatedHierarchical(t *testing.T) {
	for _, alg := range []core.Algorithm{core.UPCDistMem, core.UPCDistMemHier} {
		res, err := Run(&uts.BenchTiny, Config{
			Algorithm: alg, PEs: 16, Chunk: 4,
			Model: &pgas.Topsail, NodeSize: 4, Intra: &pgas.Altix,
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		checkCounts(t, &uts.BenchTiny, res)
	}
}

func TestSimulatedHierWithoutTopologyMatchesFlat(t *testing.T) {
	// With no NodeSize the hier variant must produce the identical
	// deterministic schedule as plain distmem.
	a, err := Run(&uts.BenchTiny, Config{Algorithm: core.UPCDistMem, PEs: 8, Chunk: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(&uts.BenchTiny, Config{Algorithm: core.UPCDistMemHier, PEs: 8, Chunk: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Errorf("flat vs hier-without-topology makespans differ: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

func TestRunTraced(t *testing.T) {
	res, tr, err := RunTraced(&uts.BenchTiny, Config{
		Algorithm: core.UPCTermRapdif, PEs: 8, Chunk: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &uts.BenchTiny, res)
	if len(tr.Changes) == 0 {
		t.Fatal("no change recorded")
	}
	// Changes are strictly time-ordered, and the log ends within the run with
	// no source left.
	for i := 1; i < len(tr.Changes); i++ {
		if c, prev := tr.Changes[i], tr.Changes[i-1]; c.T <= prev.T {
			t.Fatalf("change %d %+v after %+v", i, c, prev)
		}
	}
	if last := tr.Changes[len(tr.Changes)-1]; last.T > res.Elapsed || last.WorkSources != 0 {
		t.Errorf("the log ends at %+v, makespan %v", last, res.Elapsed)
	}
	if tr.TimeToSources(1) < 0 {
		t.Error("never observed a single work source")
	}
	if tr.TimeToSources(1000) != -1 {
		t.Error("TimeToSources(1000) should be 'never'")
	}
}

// TestTraceMatchesSampled: the record at every multiple of 10µs short of the
// makespan is what a sampler proc that woke there saw — the digests below
// are of such a sampler's series, a proc of its own with the highest id, so
// that it read the state after every PE event at its instant. Exact, the
// first instant of P/4 sources is no later and the peak no lower than
// sampled. Recording changes nothing else: the traced run is the untraced
// one, windowed for mpi-ws, event for event.
func TestTraceMatchesSampled(t *testing.T) {
	const every = 10 * time.Microsecond
	for _, c := range []struct {
		sp      *uts.Spec
		alg     core.Algorithm
		n       int
		digest  uint64
		quarter time.Duration
		peak    int
	}{
		{&uts.BenchTiny, core.Static, 68, 0x6da21a497a9d66a5, -1, 0},
		{&uts.BenchTiny, core.UPCSharedMem, 258, 0x97044a3d0025676b, 120 * time.Microsecond, 10},
		{&uts.BenchTiny, core.UPCTerm, 126, 0xf1fca00def252bdb, 190 * time.Microsecond, 5},
		{&uts.BenchTiny, core.UPCTermRapdif, 94, 0x370493b07d4bac35, 120 * time.Microsecond, 6},
		{&uts.BenchTiny, core.UPCTermRelaxed, 54, 0xad06e41a5a74ef4d, 80 * time.Microsecond, 6},
		{&uts.BenchTiny, core.UPCDistMem, 74, 0xe47b46502bad8c34, 90 * time.Microsecond, 7},
		{&uts.BenchTiny, core.UPCDistMemHier, 74, 0xe47b46502bad8c34, 90 * time.Microsecond, 7},
		{&uts.BenchTiny, core.MPIWS, 91, 0x3d7ba0c992aab43f, 150 * time.Microsecond, 5},
		{&uts.T3Small, core.Static, 112, 0x661188b5b75cc525, -1, 0},
		{&uts.T3Small, core.UPCSharedMem, 560, 0x44880467949f825e, 130 * time.Microsecond, 13},
		{&uts.T3Small, core.UPCTerm, 160, 0xdabf7d993da00b94, 340 * time.Microsecond, 8},
		{&uts.T3Small, core.UPCTermRapdif, 98, 0x48213d4fa33a18ef, 120 * time.Microsecond, 8},
		{&uts.T3Small, core.UPCTermRelaxed, 75, 0xc3e088af4e08aea7, 30 * time.Microsecond, 7},
		{&uts.T3Small, core.UPCDistMem, 69, 0x7b5fa2cc92215df, 90 * time.Microsecond, 9},
		{&uts.T3Small, core.UPCDistMemHier, 69, 0x7b5fa2cc92215df, 90 * time.Microsecond, 9},
		{&uts.T3Small, core.MPIWS, 115, 0x92c7dccbd1493a3e, 270 * time.Microsecond, 8},
	} {
		cfg := Config{Algorithm: c.alg, PEs: 16, Chunk: 2}
		var log sourceLog
		res, info, err := run(c.sp, cfg, &log)
		if err != nil {
			t.Fatal(err)
		}
		name := c.sp.Name + "/" + string(c.alg)
		bare, want, _ := run(c.sp, cfg, nil)
		if info != want || res.Elapsed != bare.Elapsed || (c.alg == core.MPIWS) != (info.Lookahead > 0) {
			t.Errorf("%s: traced %+v in %v, untraced %+v in %v", name, info, res.Elapsed, want, bare.Elapsed)
		}
		tr := log.trace()
		h, n, i, now := fnv.New64a(), 0, 0, 0
		for at := time.Duration(0); at < res.Elapsed; at += every {
			for ; i < len(tr.Changes) && tr.Changes[i].T <= at; i++ {
				now = tr.Changes[i].WorkSources
			}
			fmt.Fprintf(h, "%d,", now)
			n++
		}
		if n != c.n || h.Sum64() != c.digest {
			t.Errorf("%s: %d samples digest %#x, want %d %#x", name, n, h.Sum64(), c.n, c.digest)
		}
		peak := 0
		for _, s := range tr.Changes {
			peak = max(peak, s.WorkSources)
		}
		if q := tr.TimeToSources(4); peak < c.peak || c.quarter >= 0 && (q < 0 || q > c.quarter) {
			t.Errorf("%s: P/4 at %v, peak %d; sampled %v, %d", name, q, peak, c.quarter, c.peak)
		}
	}
}

func TestSimulatedExtensionCountsMatch(t *testing.T) {
	res, err := Run(&uts.GeoLinear, Config{
		Algorithm: core.UPCDistMemHier, PEs: 12, Chunk: 8,
		Model: &pgas.Topsail, NodeSize: 3, Intra: &pgas.Altix,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &uts.GeoLinear, res)
}

func TestSimulatedStaticBaseline(t *testing.T) {
	res, err := Run(&uts.BenchTiny, Config{Algorithm: core.Static, PEs: 8, Chunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &uts.BenchTiny, res)
	// Static partitioning of a critical tree: virtual speedup must be far
	// from linear (the paper's premise).
	if s := res.Speedup(); s > 4 {
		t.Errorf("static speedup %.1f on 8 PEs is implausibly good", s)
	}
	// On a tree big enough to amortize steal costs, work stealing must beat
	// static partitioning decisively.
	staticBig, err := Run(&uts.BenchSmall, Config{Algorithm: core.Static, PEs: 8, Chunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	stealBig, err := Run(&uts.BenchSmall, Config{Algorithm: core.UPCDistMem, PEs: 8, Chunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stealBig.Speedup() <= 1.5*staticBig.Speedup() {
		t.Errorf("work stealing (%.1f) should decisively beat static partitioning (%.1f)",
			stealBig.Speedup(), staticBig.Speedup())
	}
}

// TestPaperShapeRegression pins the paper's central qualitative claims at
// a deterministic mid-size configuration, so any change to the protocols
// or the cost model that breaks a headline result fails loudly:
//
//  1. upc-sharedmem collapses at small chunk sizes (Figure 4);
//  2. the refinements are ordered: term < rapdif-or-equal < distmem at
//     small chunks;
//  3. upc-distmem beats static partitioning by a wide margin.
func TestPaperShapeRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size simulations")
	}
	rate := func(alg core.Algorithm, chunk int) float64 {
		res, err := Run(&uts.BenchSmall, Config{Algorithm: alg, PEs: 32, Chunk: chunk, Model: &pgas.KittyHawk})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		checkCounts(t, &uts.BenchSmall, res)
		return res.Rate()
	}
	sharedK2 := rate(core.UPCSharedMem, 2)
	termK2 := rate(core.UPCTerm, 2)
	distK2 := rate(core.UPCDistMem, 2)
	if !(sharedK2 < termK2 && termK2 < distK2) {
		t.Errorf("refinement ordering broken at chunk 2: sharedmem=%.2gM term=%.2gM distmem=%.2gM",
			sharedK2/1e6, termK2/1e6, distK2/1e6)
	}
	if distK2 < 3*sharedK2 {
		t.Errorf("sharedmem low-chunk collapse missing: distmem=%.2gM only %.1fx sharedmem=%.2gM",
			distK2/1e6, distK2/sharedK2, sharedK2/1e6)
	}
	staticRate := rate(core.Static, 2)
	if distK2 < 2*staticRate {
		t.Errorf("work stealing (%.2gM) should far exceed static partitioning (%.2gM)",
			distK2/1e6, staticRate/1e6)
	}
}

// TestSeedSweepAllProtocols fuzzes the protocol interleavings: every
// algorithm, many probe-order seeds, counts must match exactly every time.
func TestSeedSweepAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	algs := append(append([]core.Algorithm{}, core.Algorithms...), core.UPCDistMemHier, core.Static, core.UPCTermRelaxed)
	for _, alg := range algs {
		for seed := int64(0); seed < 8; seed++ {
			res, err := Run(&uts.BenchTiny, Config{Algorithm: alg, PEs: 11, Chunk: 3, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", alg, seed, err)
			}
			checkCounts(t, &uts.BenchTiny, res)
		}
	}
}

// TestSimulatedRelaxedCounts sweeps the relaxed fence-free variant across
// PE counts: exact counts always, faster-or-equal makespan than upc-term
// at the same scale (the protocol exists to shed the lock round trips),
// and zero duplicate takes — the simulator serializes every access on
// virtual time, so the ledger CAS can never lose (DESIGN.md §14).
func TestSimulatedRelaxedCounts(t *testing.T) {
	for _, pes := range []int{1, 2, 16, 64} {
		res, err := Run(&uts.BenchTiny, Config{Algorithm: core.UPCTermRelaxed, PEs: pes, Chunk: 4})
		if err != nil {
			t.Fatalf("%d PEs: %v", pes, err)
		}
		checkCounts(t, &uts.BenchTiny, res)
		if d := res.Sum(func(th *stats.Thread) int64 { return th.DuplicateTakes }); d != 0 {
			t.Errorf("%d PEs: %d duplicate takes in a serialized simulation", pes, d)
		}
		lock, err := Run(&uts.BenchTiny, Config{Algorithm: core.UPCTerm, PEs: pes, Chunk: 4})
		if err != nil {
			t.Fatalf("upc-term/%d PEs: %v", pes, err)
		}
		if res.Elapsed > lock.Elapsed {
			t.Errorf("%d PEs: relaxed makespan %v exceeds lock-based %v", pes, res.Elapsed, lock.Elapsed)
		}
	}
}

// TestPathologicalCostModel stresses the event loop with extreme cost
// ratios: locks five orders of magnitude above node cost must slow the
// lock-dependent protocols but never wedge or corrupt them.
func TestPathologicalCostModel(t *testing.T) {
	nasty := pgas.Model{
		Name:      "nasty",
		LocalRef:  time.Nanosecond,
		RemoteRef: 50 * time.Microsecond,
		PerKB:     100 * time.Microsecond,
		LockRTT:   10 * time.Millisecond,
		NodeCost:  100 * time.Nanosecond,
	}
	for _, alg := range core.Algorithms {
		res, err := Run(&uts.Balanced3x7, Config{Algorithm: alg, PEs: 5, Chunk: 4, Model: &nasty})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		checkCounts(t, &uts.Balanced3x7, res)
	}
}

func TestTuneChunk(t *testing.T) {
	cfg := Config{Algorithm: core.UPCDistMem, PEs: 8, Model: &pgas.KittyHawk}
	best, results, err := TuneChunk(&uts.BenchTiny, cfg, []int{2, 16, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results for %d candidates", len(results))
	}
	for k, res := range results {
		checkCounts(t, &uts.BenchTiny, res)
		if res.Rate() > results[best].Rate() {
			t.Errorf("chunk %d (%.2gM/s) beats reported best %d (%.2gM/s)",
				k, res.Rate()/1e6, best, results[best].Rate()/1e6)
		}
	}
	// Default candidate axis.
	best, results, err = TuneChunk(&uts.Balanced3x7, Config{Algorithm: core.UPCTerm, PEs: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 || results[best] == nil {
		t.Errorf("default sweep produced %d results", len(results))
	}
	if _, _, err := TuneChunk(&uts.Balanced3x7, cfg, []int{0}); err == nil {
		t.Error("chunk candidate 0 accepted")
	}
}

// TestTuneBestCandidate pins the sweep's best-candidate selection against
// the two regressions TuneChunk used to have: a NaN rate poisoning the
// `>` comparison (every candidate after the NaN silently lost), and ties
// broken by candidate order rather than deterministically toward the
// smaller chunk.
func TestTuneBestCandidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		cands []int
		rates map[int]float64
		want  int
	}{
		{"plain-max", []int{1, 2, 4}, map[int]float64{1: 10, 2: 30, 4: 20}, 2},
		{"nan-skipped", []int{1, 2, 4}, map[int]float64{1: 10, 2: nan, 4: 20}, 4},
		{"nan-first", []int{1, 2}, map[int]float64{1: nan, 2: 5}, 2},
		{"inf-skipped", []int{1, 2, 4}, map[int]float64{1: inf, 2: 30, 4: 20}, 2},
		{"neg-inf-skipped", []int{1, 2}, map[int]float64{1: math.Inf(-1), 2: 1}, 2},
		{"tie-smaller-chunk", []int{8, 2, 4}, map[int]float64{8: 30, 2: 30, 4: 30}, 2},
		{"tie-after-nan", []int{16, 4}, map[int]float64{16: nan, 4: nan}, 0},
		{"all-nonfinite", []int{1, 2}, map[int]float64{1: nan, 2: inf}, 0},
		{"zero-rate-wins-over-none", []int{1}, map[int]float64{1: 0}, 1},
	}
	for _, tc := range cases {
		if got := bestCandidate(tc.cands, tc.rates); got != tc.want {
			t.Errorf("%s: bestCandidate = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestInBarrierStealPathExercised pins configurations in which the rare
// Section 3.3.1 race actually occurs — threads reach the termination
// barrier while work remains, probe from inside it, and leave to steal —
// and verifies the protocol stays exact through it. The barrier-entry
// count exceeding the PE count is the witness that the path ran (the
// simulator is deterministic, so these witnesses are stable).
func TestInBarrierStealPathExercised(t *testing.T) {
	cases := []struct {
		alg  core.Algorithm
		pes  int
		seed int64
	}{
		{core.UPCTerm, 16, 3},
		{core.UPCTerm, 32, 9},
		{core.UPCDistMem, 32, 0},
	}
	for _, tc := range cases {
		res, err := Run(&uts.BenchTiny, Config{Algorithm: tc.alg, PEs: tc.pes, Chunk: 1, Seed: tc.seed})
		if err != nil {
			t.Fatalf("%s/%d/%d: %v", tc.alg, tc.pes, tc.seed, err)
		}
		checkCounts(t, &uts.BenchTiny, res)
		entries := res.Sum(func(th *stats.Thread) int64 { return th.TermBarrierEntries })
		if entries <= int64(tc.pes) {
			t.Errorf("%s pes=%d seed=%d: barrier entries %d <= %d; in-barrier steal no longer exercised — pick a new witness config",
				tc.alg, tc.pes, tc.seed, entries, tc.pes)
		}
	}
}
