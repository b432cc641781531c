package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/pgas"
	"repro/internal/stats"
	"repro/internal/uts"
)

// expect returns the sequential ground truth for a spec, cached across the
// test binary's lifetime.
var seqCache = map[string]uts.Count{}

func expect(t *testing.T, sp *uts.Spec) uts.Count {
	t.Helper()
	if c, ok := seqCache[sp.Name]; ok {
		return c
	}
	c := uts.SearchSequential(sp)
	seqCache[sp.Name] = c
	return c
}

// checkRun asserts the repository-wide invariant: the parallel node and
// leaf counts equal the sequential traversal exactly.
func checkRun(t *testing.T, sp *uts.Spec, res *Result) {
	t.Helper()
	want := expect(t, sp)
	if got := res.Nodes(); got != want.Nodes {
		t.Errorf("%s/%s: nodes = %d, want %d", res.Algorithm, sp.Name, got, want.Nodes)
	}
	if got := res.Leaves(); got != want.Leaves {
		t.Errorf("%s/%s: leaves = %d, want %d", res.Algorithm, sp.Name, got, want.Leaves)
	}
}

func TestAllAlgorithmsMatchSequential(t *testing.T) {
	for _, alg := range Algorithms {
		for _, threads := range []int{1, 2, 4, 8} {
			res, err := Run(&uts.BenchTiny, Options{Algorithm: alg, Threads: threads, Chunk: 4})
			if err != nil {
				t.Fatalf("%s/%d: %v", alg, threads, err)
			}
			checkRun(t, &uts.BenchTiny, res)
		}
	}
}

func TestAllAlgorithmsOnTreeFamilies(t *testing.T) {
	trees := []*uts.Spec{&uts.GeoLinear, &uts.HybridSmall, &uts.Balanced3x7}
	for _, alg := range Algorithms {
		for _, sp := range trees {
			res, err := Run(sp, Options{Algorithm: alg, Threads: 4, Chunk: 8})
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, sp.Name, err)
			}
			checkRun(t, sp, res)
		}
	}
}

func TestChunkSizeSweepCorrectness(t *testing.T) {
	for _, alg := range Algorithms {
		for _, k := range []int{1, 2, 16, 64, 500} {
			res, err := Run(&uts.BenchTiny, Options{Algorithm: alg, Threads: 4, Chunk: k})
			if err != nil {
				t.Fatalf("%s/k=%d: %v", alg, k, err)
			}
			checkRun(t, &uts.BenchTiny, res)
		}
	}
}

func TestUnderLatencyModels(t *testing.T) {
	if testing.Short() {
		t.Skip("latency injection is slow")
	}
	// Scaled-down cluster latencies keep the test quick while exercising
	// every charge path.
	model := pgas.Model{
		Name:      "test-cluster",
		LocalRef:  50 * time.Nanosecond,
		RemoteRef: 2 * time.Microsecond,
		PerKB:     500 * time.Nanosecond,
		LockRTT:   10 * time.Microsecond,
	}
	for _, alg := range Algorithms {
		res, err := Run(&uts.BenchTiny, Options{Algorithm: alg, Threads: 4, Chunk: 4, Model: &model})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		checkRun(t, &uts.BenchTiny, res)
	}
}

func TestBiggerTreeStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, alg := range Algorithms {
		res, err := Run(&uts.BenchSmall, Options{Algorithm: alg, Threads: 8, Chunk: 8})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		checkRun(t, &uts.BenchSmall, res)
		if alg != UPCSharedMem && alg != Sequential {
			// With 8 threads on a 63k-node tree every implementation must
			// actually balance load: no thread may do everything.
			if res.Imbalance() > 7.99 {
				t.Errorf("%s: imbalance %.2f suggests no stealing happened", alg, res.Imbalance())
			}
		}
		if res.Sum(func(th *stats.Thread) int64 { return th.Steals }) == 0 && alg != Sequential {
			t.Errorf("%s: zero steals on an 8-thread unbalanced run", alg)
		}
	}
}

func TestManyThreadsOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("oversubscription stress")
	}
	// 32 goroutine-threads on (likely) 1 CPU: exercises the cooperative
	// yield paths and the termination protocols under heavy interleaving.
	for _, alg := range Algorithms {
		res, err := Run(&uts.BenchTiny, Options{Algorithm: alg, Threads: 32, Chunk: 2})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		checkRun(t, &uts.BenchTiny, res)
	}
}

func TestRepeatedRunsStable(t *testing.T) {
	// The termination protocols must not be flaky: repeat each algorithm
	// many times on a small tree with varying seeds.
	for _, alg := range Algorithms {
		for seed := int64(0); seed < 10; seed++ {
			res, err := Run(&uts.Balanced3x7, Options{Algorithm: alg, Threads: 4, Chunk: 2, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", alg, seed, err)
			}
			checkRun(t, &uts.Balanced3x7, res)
		}
	}
}

func TestSequentialAlgorithm(t *testing.T) {
	res, err := Run(&uts.BenchTiny, Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, &uts.BenchTiny, res)
	if len(res.Threads) != 1 {
		t.Errorf("sequential run has %d threads", len(res.Threads))
	}
}

func TestSingleThreadAllAlgorithms(t *testing.T) {
	for _, alg := range Algorithms {
		res, err := Run(&uts.BenchTiny, Options{Algorithm: alg, Threads: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		checkRun(t, &uts.BenchTiny, res)
		if res.Sum(func(th *stats.Thread) int64 { return th.Steals }) != 0 {
			t.Errorf("%s: steals on a single-thread run", alg)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(&uts.BenchTiny, Options{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Run(&uts.BenchTiny, Options{Threads: -1}); err == nil {
		t.Error("negative threads accepted")
	}
	if _, err := Run(&uts.BenchTiny, Options{Chunk: -5}); err == nil {
		t.Error("negative chunk accepted")
	}
	bad := uts.Spec{Kind: uts.Binomial, B0: 2, M: 2, Q: 0.9}
	if _, err := Run(&bad, Options{}); err == nil {
		t.Error("supercritical spec accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	res, err := Run(&uts.Balanced3x7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != UPCDistMem {
		t.Errorf("default algorithm = %s", res.Algorithm)
	}
	if res.Chunk != 16 {
		t.Errorf("default chunk = %d", res.Chunk)
	}
	checkRun(t, &uts.Balanced3x7, res)
}

func TestStatsAccounting(t *testing.T) {
	res, err := Run(&uts.BenchTiny, Options{Algorithm: UPCDistMem, Threads: 4, Chunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Per-thread node sums were already checked; here check the timers
	// actually accumulated and the rate/speedup plumbing works.
	if res.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
	var total time.Duration
	for i := range res.Threads {
		for _, st := range res.Threads[i].InState {
			total += st
		}
	}
	if total <= 0 {
		t.Error("no per-state time recorded")
	}
	if res.Rate() <= 0 {
		t.Error("zero rate")
	}
	res.SeqRate = res.Rate() // pretend baseline == parallel rate
	if e := res.Efficiency(); e <= 0 || e > 1.01 {
		t.Errorf("efficiency = %f", e)
	}
}

func TestProbeRNG(t *testing.T) {
	r := NewProbeOrder(1, 2)
	for i := 0; i < 1000; i++ {
		v := r.Victim(2, 8)
		if v == 2 || v < 0 || v >= 8 {
			t.Fatalf("victim(%d) out of range: %d", 2, v)
		}
	}
	perm := ints(r.Cycle(3, 6))
	if len(perm) != 5 {
		t.Fatalf("cycle length %d", len(perm))
	}
	seen := map[int]bool{}
	for _, v := range perm {
		if v == 3 || seen[v] {
			t.Fatalf("bad cycle %v", perm)
		}
		seen[v] = true
	}
	// Determinism per (seed, thread).
	a := NewProbeOrder(7, 1)
	b := NewProbeOrder(7, 1)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("ProbeOrder not deterministic")
		}
	}
}

// ints is a probe table as the thread ids it holds.
func ints(perm []uint16) []int {
	s := make([]int, len(perm))
	for i, v := range perm {
		s[i] = int(v)
	}
	return s
}

// TestHierarchicalVariantCorrect: the goroutine substrate has no nodes, so
// upc-distmem-hier probes the flat cycle plain distmem does.
func TestHierarchicalVariantCorrect(t *testing.T) {
	res, err := Run(&uts.BenchTiny, Options{Algorithm: UPCDistMemHier, Threads: 4, Chunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, &uts.BenchTiny, res)
}

func TestCycleHier(t *testing.T) {
	r := NewProbeOrder(1, 5)
	// 12 threads in nodes of 4; me = 5 lives on node 1 = {4,5,6,7}.
	perm := ints(r.CycleHier(5, 12, 4))
	if len(perm) != 11 {
		t.Fatalf("perm length %d", len(perm))
	}
	sameNode := map[int]bool{4: true, 6: true, 7: true}
	for i, v := range perm {
		if v == 5 {
			t.Fatal("self in probe cycle")
		}
		if i < 3 && !sameNode[v] {
			t.Errorf("position %d is off-node victim %d; same-node must come first", i, v)
		}
		if i >= 3 && sameNode[v] {
			t.Errorf("position %d is same-node victim %d; should be in prefix", i, v)
		}
	}
	// nodeSize <= 1 degrades to a plain cycle.
	flat := r.CycleHier(5, 12, 1)
	if len(flat) != 11 {
		t.Fatalf("flat perm length %d", len(flat))
	}
}

func TestStaticBaselineCorrect(t *testing.T) {
	// No balancing, but the count invariant still holds, and the imbalance
	// on a critical binomial tree must be dramatic.
	res, err := Run(&uts.BenchTiny, Options{Algorithm: Static, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, &uts.BenchTiny, res)
	if res.Sum(func(th *stats.Thread) int64 { return th.Steals }) != 0 {
		t.Error("static baseline must never steal")
	}
	if res.Imbalance() < 2 {
		t.Errorf("imbalance %.2f suspiciously even for static partitioning of a critical tree", res.Imbalance())
	}
	// Single thread degenerates to sequential.
	res1, err := Run(&uts.Balanced3x7, Options{Algorithm: Static, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, &uts.Balanced3x7, res1)
}

func TestStaticMoreThreadsThanRootChildren(t *testing.T) {
	// Threads beyond the root fan-out get nothing; counts must still match.
	sp := uts.Spec{Name: "small-fanout", Kind: uts.Binomial, Seed: 3, B0: 3, M: 2, Q: 0.3}
	res, err := Run(&sp, Options{Algorithm: Static, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := uts.SearchSequential(&sp)
	if res.Nodes() != want.Nodes {
		t.Errorf("nodes = %d, want %d", res.Nodes(), want.Nodes)
	}
}

// TestCycleIsPermutationProperty property-checks that probe cycles are
// exactly the other threads, each once, for arbitrary (seed, me, n).
func TestCycleIsPermutationProperty(t *testing.T) {
	f := func(seed int64, me8, n8 uint8) bool {
		n := int(n8%63) + 2 // 2..64
		me := int(me8) % n
		r := NewProbeOrder(seed, me)
		perm := ints(r.Cycle(me, n))
		if len(perm) != n-1 {
			return false
		}
		seen := make(map[int]bool, len(perm))
		for _, v := range perm {
			if v < 0 || v >= n || v == me || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCycleHierPartitionProperty property-checks the locality-aware cycle:
// a permutation of all other threads with every same-node victim strictly
// before every off-node victim.
func TestCycleHierPartitionProperty(t *testing.T) {
	f := func(seed int64, me8, n8, g8 uint8) bool {
		n := int(n8%63) + 2
		me := int(me8) % n
		g := int(g8%8) + 1
		r := NewProbeOrder(seed, me)
		perm := ints(r.CycleHier(me, n, g))
		if len(perm) != n-1 {
			return false
		}
		seen := make(map[int]bool, len(perm))
		offNodeSeen := false
		for _, v := range perm {
			if v < 0 || v >= n || v == me || seen[v] {
				return false
			}
			seen[v] = true
			same := g > 1 && v/g == me/g
			if same && offNodeSeen {
				return false // same-node victim after an off-node one
			}
			if !same {
				offNodeSeen = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRelaxedLedgerDifferential is the multiplicity-ledger property test:
// the relaxed variant's ledger-deduped node/leaf counts must be bit-exact
// against every lock-based implementation — all seven parallel algorithms
// across two tree shapes and three probe seeds reduce to the same
// sequential ground truth, so any duplicate subtree the relaxed protocol
// failed to dedup (or any chunk it lost) shows up as a count mismatch.
func TestRelaxedLedgerDifferential(t *testing.T) {
	algs := append(append([]Algorithm{}, Algorithms...), UPCDistMemHier, UPCTermRelaxed)
	trees := []*uts.Spec{&uts.BenchTiny, &uts.T3Small}
	type key struct{ tree string }
	counts := map[key][2]int64{}
	for _, sp := range trees {
		want := expect(t, sp)
		counts[key{sp.Name}] = [2]int64{want.Nodes, want.Leaves}
	}
	for _, alg := range algs {
		for _, sp := range trees {
			for seed := int64(0); seed < 3; seed++ {
				res, err := Run(sp, Options{Algorithm: alg, Threads: 4, Chunk: 4, Seed: seed})
				if err != nil {
					t.Fatalf("%s/%s/seed=%d: %v", alg, sp.Name, seed, err)
				}
				want := counts[key{sp.Name}]
				if res.Nodes() != want[0] || res.Leaves() != want[1] {
					t.Errorf("%s/%s/seed=%d: counts = %d/%d, want %d/%d",
						alg, sp.Name, seed, res.Nodes(), res.Leaves(), want[0], want[1])
				}
			}
		}
	}
}

// TestRelaxedSurfacesDuplicateTakes pins the accounting plumbing: a
// thread's DuplicateTakes counter reaches the run summary, and a clean
// run (no duplicates) keeps the summary byte-identical to before.
func TestRelaxedSurfacesDuplicateTakes(t *testing.T) {
	res, err := Run(&uts.BenchTiny, Options{Algorithm: UPCTermRelaxed, Threads: 4, Chunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, &uts.BenchTiny, res)
	dups := res.Sum(func(th *stats.Thread) int64 { return th.DuplicateTakes })
	if got := strings.Contains(res.Summary(), "duplicate-takes="); got != (dups > 0) {
		t.Errorf("summary mentions duplicate-takes=%v, but run had %d duplicate takes", got, dups)
	}
	res.Threads[0].DuplicateTakes += 3
	if !strings.Contains(res.Summary(), "duplicate-takes=") {
		t.Error("summary omits the duplicate-takes line despite a nonzero counter")
	}
}

// BenchmarkProbeOrderCycle measures one victim permutation per iteration —
// the per-search-cycle cost a thief pays. The list reuse keeps this at one
// Fisher-Yates pass with no allocation after the first call.
func BenchmarkProbeOrderCycle(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("flat-n%d", n), func(b *testing.B) {
			r := NewProbeOrder(1, 3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Cycle(3, n)
			}
		})
		b.Run(fmt.Sprintf("hier-n%d", n), func(b *testing.B) {
			r := NewProbeOrder(1, 3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.CycleHier(3, n, 4)
			}
		})
	}
}

// TestProbeWalkSmallMatchesCycle pins the compatibility contract: below
// probeWalkCacheMax a walk must visit victims in exactly the order the
// cached Cycle/CycleHier permutation would, consuming the same RNG draws,
// so schedules recorded before ProbeWalk existed stay byte-identical.
func TestProbeWalkSmallMatchesCycle(t *testing.T) {
	for _, hier := range []bool{false, true} {
		a := NewProbeOrder(42, 7)
		b := NewProbeOrder(42, 7)
		for round := 0; round < 3; round++ {
			var perm []int
			var w ProbeWalk
			if hier {
				perm = ints(a.CycleHier(7, 64, 8))
				w = b.WalkHier(7, 64, 8)
			} else {
				perm = ints(a.Cycle(7, 64))
				w = b.Walk(7, 64)
			}
			got := make([]int, 0, len(perm))
			for !w.Exhausted() {
				got = append(got, w.Victim())
				w.Advance()
			}
			if len(got) != len(perm) {
				t.Fatalf("hier=%v round %d: walk length %d, cycle length %d", hier, round, len(got), len(perm))
			}
			for i := range perm {
				if got[i] != perm[i] {
					t.Fatalf("hier=%v round %d: walk diverges from cycle at %d: %d != %d", hier, round, i, got[i], perm[i])
				}
			}
		}
	}
}

// TestProbeWalkLargePermutation checks the strided path is still a true
// probe cycle: each of the n−1 victims exactly once, never me, with O(1)
// walker state (the whole point — cached permutations cost O(P²) across
// P simulated PEs and OOM-killed 131072-PE work-stealing runs).
func TestProbeWalkLargePermutation(t *testing.T) {
	const n = probeWalkCacheMax*2 + 17
	const me = 4099
	r := NewProbeOrder(3, me)
	seen := make([]bool, n)
	count := 0
	for w := r.Walk(me, n); !w.Exhausted(); w.Advance() {
		v := w.Victim()
		if v < 0 || v >= n || v == me {
			t.Fatalf("bad victim %d", v)
		}
		if seen[v] {
			t.Fatalf("victim %d visited twice", v)
		}
		seen[v] = true
		count++
	}
	if count != n-1 {
		t.Fatalf("visited %d victims, want %d", count, n-1)
	}
}

// TestProbeWalkLargeHier checks the locality contract survives the
// strided path: all nodeSize−1 same-node victims strictly before any
// off-node victim, and the whole thing still a permutation.
func TestProbeWalkLargeHier(t *testing.T) {
	const n = probeWalkCacheMax * 3
	const nodeSize = 16
	const me = 8195 // node 512, mid-block
	r := NewProbeOrder(9, me)
	base := (me / nodeSize) * nodeSize
	seen := make([]bool, n)
	count, intra := 0, 0
	offNode := false
	for w := r.WalkHier(me, n, nodeSize); !w.Exhausted(); w.Advance() {
		v := w.Victim()
		if v < 0 || v >= n || v == me {
			t.Fatalf("bad victim %d", v)
		}
		if seen[v] {
			t.Fatalf("victim %d visited twice", v)
		}
		seen[v] = true
		count++
		if v >= base && v < base+nodeSize {
			if offNode {
				t.Fatalf("same-node victim %d after an off-node one", v)
			}
			intra++
		} else {
			offNode = true
		}
	}
	if count != n-1 {
		t.Fatalf("visited %d victims, want %d", count, n-1)
	}
	if intra != nodeSize-1 {
		t.Fatalf("%d same-node victims, want %d", intra, nodeSize-1)
	}
}

// probeWalkSets consumes a strided hierarchical walk and splits the
// victims into the locality prefix (same-node victims, which the contract
// says all come before any off-node victim) and the remainder, failing on
// duplicates or out-of-range IDs.
func probeWalkSets(t *testing.T, r *ProbeOrder, me, n, nodeSize int) (intra, rest map[int]bool) {
	t.Helper()
	base := (me / nodeSize) * nodeSize
	end := base + nodeSize
	if end > n {
		end = n
	}
	intra, rest = map[int]bool{}, map[int]bool{}
	offNode := false
	for w := r.WalkHier(me, n, nodeSize); !w.Exhausted(); w.Advance() {
		v := w.Victim()
		if v < 0 || v >= n || v == me {
			t.Fatalf("bad victim %d", v)
		}
		if intra[v] || rest[v] {
			t.Fatalf("victim %d visited twice", v)
		}
		if v >= base && v < end {
			if offNode {
				t.Fatalf("same-node victim %d after an off-node one", v)
			}
			intra[v] = true
		} else {
			offNode = true
			rest[v] = true
		}
	}
	return intra, rest
}

// TestProbeTableTwoBytesAnID: the largest walk that is a table, over
// probeWalkCacheMax threads, holds its ids in two bytes each — building it
// allocates at most 2 bytes an id (4,095 victims fill the allocator's 8 KiB
// class). TotalAlloc counts bytes, so the bound holds on any host.
func TestProbeTableTwoBytesAnID(t *testing.T) {
	r := NewProbeOrder(1, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := r.Walk(0, probeWalkCacheMax)
	runtime.ReadMemStats(&after)
	if n := len(w.Rest()); n != probeWalkCacheMax-1 {
		t.Fatalf("a walk over %d threads has %d victims in its table", probeWalkCacheMax, n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*probeWalkCacheMax {
		t.Errorf("a table walk over %d threads allocated %d bytes, want at most %d", probeWalkCacheMax, got, 2*probeWalkCacheMax)
	}
}

// TestProbeWalkHierPartialLastBlock: on the strided path with
// n % nodeSize != 0, a walker inside the truncated last node block must
// visit exactly the same victim sets as the cached CycleHier path — the
// partial block minus me first, then everyone else. The strided block
// bound [base, min(base+nodeSize, n)) and CycleHier's loop bound must
// agree or victims near n would be double-counted or lost.
func TestProbeWalkHierPartialLastBlock(t *testing.T) {
	const nodeSize = 16
	const n = probeWalkCacheMax*2 + 7 // last block holds 7 of 16 IDs
	if n%nodeSize == 0 {
		t.Fatal("test wants a partial last block")
	}
	for _, me := range []int{n - 3, n - 7, probeWalkCacheMax + 5} {
		r := NewProbeOrder(11, me)
		intra, rest := probeWalkSets(t, r, me, n, nodeSize)

		// The cached path is the oracle: CycleHier builds the same cycle
		// eagerly (callable at any n; only WalkHier switches on the cap).
		oracle := ints(NewProbeOrder(99, me).CycleHier(me, n, nodeSize))
		base := (me / nodeSize) * nodeSize
		end := base + nodeSize
		if end > n {
			end = n
		}
		wantIntra, wantRest := map[int]bool{}, map[int]bool{}
		for _, v := range oracle {
			if v >= base && v < end {
				wantIntra[v] = true
			} else {
				wantRest[v] = true
			}
		}
		if len(intra) != len(wantIntra) || len(rest) != len(wantRest) {
			t.Fatalf("me=%d: walk sets %d+%d victims, CycleHier %d+%d",
				me, len(intra), len(rest), len(wantIntra), len(wantRest))
		}
		for v := range wantIntra {
			if !intra[v] {
				t.Fatalf("me=%d: same-node victim %d missing from walk", me, v)
			}
		}
		for v := range wantRest {
			if !rest[v] {
				t.Fatalf("me=%d: off-node victim %d missing from walk", me, v)
			}
		}
	}
}

// TestProbeWalkHierDegenerateBlock: n % nodeSize == 1 puts the last ID
// alone in its block (bl == 1), so the intra segment is empty and the
// coprimeStride(1) path runs. The walk must still be a full permutation
// matching CycleHier's set.
func TestProbeWalkHierDegenerateBlock(t *testing.T) {
	const nodeSize = 8
	const n = probeWalkCacheMax*2 + 1
	me := n - 1 // block [n-1, n): me alone, zero same-node victims
	r := NewProbeOrder(7, me)
	intra, rest := probeWalkSets(t, r, me, n, nodeSize)
	if len(intra) != 0 {
		t.Fatalf("degenerate block produced %d same-node victims, want 0", len(intra))
	}
	oracle := ints(NewProbeOrder(42, me).CycleHier(me, n, nodeSize))
	if len(rest) != len(oracle) {
		t.Fatalf("walk visited %d victims, CycleHier has %d", len(rest), len(oracle))
	}
	for _, v := range oracle {
		if !rest[v] {
			t.Fatalf("victim %d missing from walk", v)
		}
	}
}

// TestProbeWalkDeterministic: same seed and thread, same walk.
func TestProbeWalkDeterministic(t *testing.T) {
	const n = probeWalkCacheMax + 100
	a := NewProbeOrder(5, 3)
	b := NewProbeOrder(5, 3)
	wa, wb := a.Walk(3, n), b.Walk(3, n)
	for !wa.Exhausted() {
		if wb.Exhausted() || wa.Victim() != wb.Victim() {
			t.Fatal("ProbeWalk not deterministic")
		}
		wa.Advance()
		wb.Advance()
	}
	if !wb.Exhausted() {
		t.Fatal("walk lengths differ")
	}
}
