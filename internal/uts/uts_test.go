package uts

import (
	"context"
	"crypto/sha1"
	"encoding/binary"
	"math"
	"os"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/rng"
)

// pinned holds the exact node counts of the sample trees, measured once and
// frozen. Any change to the RNG conventions or child-generation rules will
// trip these, which is the point: the trees are the ground truth for every
// parallel result in the repository.
var pinned = map[string]struct {
	nodes, leaves int64
	maxDepth      int32
}{
	"bench-tiny":   {3337, 1698, 100},
	"bench-small":  {63575, 31887, 319},
	"geo-linear":   {1132, 641, 10},
	"hybrid-small": {37328, 18921, 292},
	"balanced-3x7": {3280, 2187, 7},
}

var pinnedLarge = map[string]struct {
	nodes, leaves int64
	maxDepth      int32
}{
	"bench-medium": {481599, 241049, 1665},
	"geo-fixed":    {18796, 15085, 8},
	"geo-cyclic":   {127037, 69182, 38},
	"bench-large":  {6698443, 3350221, 6853},
}

func TestPinnedCounts(t *testing.T) {
	for name, want := range pinned { //uts:ok detcheck assertion sweep over golden counts; order cannot affect pass/fail
		sp := ByName(name)
		if sp == nil {
			t.Fatalf("tree %q not found", name)
		}
		c := SearchSequential(sp)
		if c.Nodes != want.nodes || c.Leaves != want.leaves || c.MaxDepth != want.maxDepth {
			t.Errorf("%s: got (nodes=%d leaves=%d depth=%d), want (%d, %d, %d)",
				name, c.Nodes, c.Leaves, c.MaxDepth, want.nodes, want.leaves, want.maxDepth)
		}
	}
}

func TestPinnedCountsLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large trees skipped in -short mode")
	}
	for name, want := range pinnedLarge { //uts:ok detcheck assertion sweep over golden counts; order cannot affect pass/fail
		sp := ByName(name)
		c := SearchSequential(sp)
		if c.Nodes != want.nodes || c.Leaves != want.leaves || c.MaxDepth != want.maxDepth {
			t.Errorf("%s: got (nodes=%d leaves=%d depth=%d), want (%d, %d, %d)",
				name, c.Nodes, c.Leaves, c.MaxDepth, want.nodes, want.leaves, want.maxDepth)
		}
	}
}

// TestUTSPublishedCounts walks six of the trees UTS publishes counts for
// from UTS's own root — the SHA-1 of sixteen zero bytes followed by the
// 4-byte big-endian seed, where rng.BRG.Init hashes the seed alone — with
// this package's Expand, so spawn, Rand and the binomial, geometric and
// hybrid draws are checked against the published figures: T1 is UTS's -t 1
// -a 3 -d 10 -b 4 -r 19, T5 its -t 1 -a 0 -d 20 -b 4 -r 34, T2 its -t 1 -a 2
// -d 16 -b 6 -r 502 (the cyclic shape), T4 its -t 2 -a 0 -d 16 -b 6 -r 1 -q
// 0.234375 -m 4, binomial below half the depth cutoff. UTS publishes node
// counts and depths; T2's leaf count is this walk's own. T3L (111M nodes)
// runs behind UTS_GATES=1.
func TestUTSPublishedCounts(t *testing.T) {
	for _, tc := range []struct {
		name          string
		sp            Spec // UTS's -t, -a, -d, -b, -q, -m and -r
		nodes, leaves int64
		depth         int32
		gated         bool
	}{
		{"T1", Spec{Kind: Geometric, Shape: ShapeFixed, B0: 4, GenMx: 10, Seed: 19}, 4130071, 3305118, 10, false},
		{"T2", Spec{Kind: Geometric, Shape: ShapeCyclic, B0: 6, GenMx: 16, Seed: 502}, 4117769, 2342762, 81, false},
		{"T3", Spec{Kind: Binomial, B0: 2000, Q: 0.124875, M: 8, Seed: 42}, 4112897, 3599034, 1572, false},
		{"T4", Spec{Kind: Hybrid, Shape: ShapeLinear, B0: 6, GenMx: 16, Q: 0.234375, M: 4, Shift: 0.5, Seed: 1}, 4132453, 3108986, 134, false},
		{"T5", Spec{Kind: Geometric, Shape: ShapeLinear, B0: 4, GenMx: 20, Seed: 34}, 4147582, 2181318, 20, false},
		{"T3L", Spec{Kind: Binomial, B0: 2000, Q: 0.200014, M: 5, Seed: 7}, 111345631, 89076904, 17844, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.gated && os.Getenv("UTS_GATES") != "1" {
				t.Skip("set UTS_GATES=1 to walk this tree")
			}
			sp, st := &tc.sp, tc.sp.Stream()
			var msg [20]byte
			binary.BigEndian.PutUint32(msg[16:], uint32(sp.Seed))
			root := Node{State: rng.State(sha1.Sum(msg[:]))}
			root.NumKids = int32(numChildren(sp, st, &root))
			var c Count
			for stack := []Node{root}; len(stack) > 0; {
				var nodes, leaves int
				var deepest int32
				stack, nodes, leaves, deepest = Expand(sp, st, stack, 0, FrontierScan)
				c.Nodes += int64(nodes)
				c.Leaves += int64(leaves)
				c.MaxDepth = max(c.MaxDepth, deepest)
			}
			if c.Nodes != tc.nodes || c.Leaves != tc.leaves || c.MaxDepth != tc.depth {
				t.Errorf("%d nodes / %d leaves / depth %d, UTS publishes %d / %d / %d",
					c.Nodes, c.Leaves, c.MaxDepth, tc.nodes, tc.leaves, tc.depth)
			}
		})
	}
}

func TestBalancedExactStructure(t *testing.T) {
	// A balanced b-ary tree of depth d has (b^(d+1)-1)/(b-1) nodes and b^d
	// leaves; verify across several shapes.
	for _, tc := range []struct{ b, d int }{{2, 10}, {3, 7}, {5, 4}, {1, 6}, {7, 3}} {
		sp := Spec{Name: "bal", Kind: Balanced, B0: tc.b, GenMx: tc.d}
		c := SearchSequential(&sp)
		wantLeaves := int64(math.Pow(float64(tc.b), float64(tc.d)))
		var wantNodes int64
		if tc.b == 1 {
			wantNodes = int64(tc.d) + 1
		} else {
			wantNodes = (wantLeaves*int64(tc.b) - 1) / int64(tc.b-1)
		}
		if c.Nodes != wantNodes {
			t.Errorf("balanced(%d,%d): nodes=%d want %d", tc.b, tc.d, c.Nodes, wantNodes)
		}
		if c.Leaves != wantLeaves {
			t.Errorf("balanced(%d,%d): leaves=%d want %d", tc.b, tc.d, c.Leaves, wantLeaves)
		}
		if int(c.MaxDepth) != tc.d {
			t.Errorf("balanced(%d,%d): depth=%d want %d", tc.b, tc.d, c.MaxDepth, tc.d)
		}
	}
}

// TestNodeBytesIsTheNodesSize: the wire size every substrate charges
// bandwidth by is the size of the type it names.
func TestNodeBytesIsTheNodesSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != NodeBytes {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, NodeBytes = %d", got, NodeBytes)
	}
}

func TestRootProperties(t *testing.T) {
	r := Root(&BenchTiny)
	if r.Height != 0 {
		t.Errorf("root height = %d", r.Height)
	}
	if int(r.NumKids) != BenchTiny.B0 {
		t.Errorf("binomial root has %d kids, want B0=%d", r.NumKids, BenchTiny.B0)
	}
}

func TestChildrenDeterministic(t *testing.T) {
	st := BenchTiny.Stream()
	r := Root(&BenchTiny)
	a := Children(&BenchTiny, st, &r, nil)
	b := Children(&BenchTiny, st, &r, nil)
	if len(a) != len(b) {
		t.Fatalf("child counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("child %d differs", i)
		}
	}
}

func TestChildrenAppendSemantics(t *testing.T) {
	st := BenchTiny.Stream()
	r := Root(&BenchTiny)
	prefix := []Node{{Height: 99}}
	out := Children(&BenchTiny, st, &r, prefix)
	if len(out) != 1+int(r.NumKids) {
		t.Fatalf("append result length %d, want %d", len(out), 1+r.NumKids)
	}
	if out[0].Height != 99 {
		t.Error("Children clobbered existing prefix")
	}
}

func TestNodeCountsMatchChildSum(t *testing.T) {
	// Invariant: nodes = 1 + sum of child counts over all nodes; equivalently
	// nodes = leaves + interior, and for binomial interior non-root nodes all
	// have exactly M children: nodes = 1 + B0 + M*(interior - 1).
	sp := &BenchTiny
	c := SearchSequential(sp)
	interior := c.Nodes - c.Leaves
	want := 1 + int64(sp.B0) + int64(sp.M)*(interior-1)
	if c.Nodes != want {
		t.Errorf("binomial identity violated: nodes=%d want %d", c.Nodes, want)
	}
}

func TestValidate(t *testing.T) {
	good := []Spec{BenchTiny, GeoFixed, GeoCyclic, HybridSmall, Balanced3x7, T1Paper, T2Paper}
	for _, sp := range good {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: unexpected validate error: %v", sp.Name, err)
		}
	}
	bad := []Spec{
		{Kind: Binomial, B0: -1},
		{Kind: Binomial, B0: 10, M: 2, Q: 0.6},          // supercritical
		{Kind: Binomial, B0: 10, M: -3, Q: 0.1},         // negative M
		{Kind: Binomial, B0: 10, M: 2, Q: 1.5},          // Q out of range
		{Kind: Geometric, B0: 4, GenMx: 0},              // no depth
		{Kind: Hybrid, B0: 4, GenMx: 5, Shift: 2},       // bad shift
		{Kind: Kind(42), B0: 1},                         // unknown kind
		{Kind: Binomial, B0: 4, M: 2, Q: 0.1, RNG: "x"}, // unknown rng
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
}

func TestExpectedSizeBinomial(t *testing.T) {
	// BenchTiny: 1 + 60/(1-2*0.5*(1-5e-3)) = 1 + 60/0.005 = 12001.
	got := BenchTiny.ExpectedSize()
	if math.Abs(got-12001) > 1 {
		t.Errorf("ExpectedSize = %g, want 12001", got)
	}
	sup := Spec{Kind: Binomial, B0: 2, M: 2, Q: 0.6}
	if !math.IsInf(sup.ExpectedSize(), 1) {
		t.Error("supercritical tree should have infinite expected size")
	}
}

func TestExpectedSizeBalanced(t *testing.T) {
	got := Balanced3x7.ExpectedSize()
	if got != 3280 {
		t.Errorf("balanced expected size = %g, want 3280", got)
	}
}

func TestSearchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := SearchSequentialCtx(ctx, &BenchMedium)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if c.Nodes >= 481599 {
		t.Errorf("cancelled run should be partial, got %d nodes", c.Nodes)
	}
}

func TestSearchTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now() //uts:ok detcheck measures real cancellation latency, not simulated time
	_, err := SearchSequentialCtx(ctx, &BenchLarge)
	if err == nil {
		t.Skip("machine fast enough to finish BenchLarge in 20ms?!")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("cancellation took %v, polling too coarse", el)
	}
}

func TestByName(t *testing.T) {
	if ByName("bench-small") == nil {
		t.Error("bench-small not found")
	}
	if ByName("T1paper") == nil {
		t.Error("paper trees should be resolvable by name")
	}
	if ByName("no-such-tree") != nil {
		t.Error("unknown name should return nil")
	}
}

func TestCountRate(t *testing.T) {
	c := Count{Nodes: 1000, Elapsed: time.Second}
	if c.Rate() != 1000 {
		t.Errorf("rate = %g", c.Rate())
	}
	if (Count{Nodes: 5}).Rate() != 0 {
		t.Error("zero elapsed should give zero rate")
	}
}

// TestGeometricKidsBounds property-checks that geometric child draws always
// land in [0, MaxChildren] for arbitrary states and depths.
func TestGeometricKidsBounds(t *testing.T) {
	sp := &GeoFixed
	st := sp.Stream()
	f := func(raw [rng.StateSize]byte, depth uint8) bool {
		n := Node{State: rng.State(raw), Height: int32(depth % 12), NumKids: -1}
		k := numChildren(sp, st, &n)
		return k >= 0 && k <= MaxChildren
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestGeoBranchExpDec holds the exp-dec shape to UTS's b(d) = B0·d^(−ln
// B0/ln GenMx) at three depths: with B0 = 4 and GenMx = 16 the exponent is
// −1/2, so b(4) = 2, b(16) = 1 and b(64) = 1/2; b(0) is B0. The shape has
// no depth cut: at four times GenMx the top draw still has children.
func TestGeoBranchExpDec(t *testing.T) {
	sp := Spec{Kind: Geometric, Shape: ShapeExpDec, B0: 4, GenMx: 16}
	for _, tc := range []struct {
		d    int
		want float64
	}{{0, 4}, {4, 2}, {16, 1}, {64, 0.5}} {
		if got := sp.geoBranch(tc.d); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("b(%d) = %v, want %v", tc.d, got, tc.want)
		}
	}
	if k := geometricCount(&sp, 64, rng.RandMax-1); k == 0 {
		t.Error("no children at depth 64 for the top draw: exp-dec must not cut at GenMx")
	}
	one := Spec{Kind: Geometric, Shape: ShapeExpDec, B0: 1, GenMx: 1}
	if k := geometricCount(&one, 2, rng.RandMax-1); k != 0 {
		t.Errorf("B0 = GenMx = 1 (a NaN branching factor) draws %d children, want a leaf", k)
	}
}

// TestBinomialKidsZeroOrM property-checks the binomial rule: non-root nodes
// have exactly 0 or M children.
func TestBinomialKidsZeroOrM(t *testing.T) {
	sp := &BenchSmall
	st := sp.Stream()
	f := func(raw [rng.StateSize]byte) bool {
		n := Node{State: rng.State(raw), Height: 3, NumKids: -1}
		k := numChildren(sp, st, &n)
		return k == 0 || k == sp.M
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBinomialThresholdIsUTS: UTS gives a node M children when r/2³¹ < Q.
// At Q = 0.124875, Q·2³¹ = 268,167,020.544, so the draw 268,167,020 has M
// children and the next draw none — on the strict path and under the
// frontier's integer bound alike.
func TestBinomialThresholdIsUTS(t *testing.T) {
	sp := &Spec{Kind: Binomial, B0: 2000, Q: 0.124875, M: 8}
	const r = 268167020
	if got := binomialCount(sp, r); got != sp.M {
		t.Errorf("binomialCount(%d) = %d, want M = %d", r, got, sp.M)
	}
	if got := binomialCount(sp, r+1); got != 0 {
		t.Errorf("binomialCount(%d) = %d, want 0", r+1, got)
	}
	if got := sp.binomialBelow(); got != r+1 {
		t.Errorf("frontier bound %d, want %d", got, r+1)
	}
}

// TestBinomialLeafFraction checks that the empirical leaf probability over
// non-root nodes approximates 1−Q.
func TestBinomialLeafFraction(t *testing.T) {
	sp := &BenchSmall
	c := SearchSequential(sp)
	// Root's B0 children are drawn with probability Q of having M kids, same
	// as everyone else; only the root itself is special.
	nonRoot := float64(c.Nodes - 1)
	leafFrac := float64(c.Leaves) / nonRoot
	wantLeaf := 1 - sp.Q
	if math.Abs(leafFrac-wantLeaf) > 0.02 {
		t.Errorf("leaf fraction %.4f, want ≈ %.4f", leafFrac, wantLeaf)
	}
}

func TestKindAndShapeStrings(t *testing.T) {
	if Binomial.String() != "binomial" || Geometric.String() != "geometric" ||
		Hybrid.String() != "hybrid" || Balanced.String() != "balanced" {
		t.Error("kind names wrong")
	}
	if ShapeFixed.String() != "fixed" || ShapeLinear.String() != "linear" ||
		ShapeExpDec.String() != "expdec" || ShapeCyclic.String() != "cyclic" {
		t.Error("shape names wrong")
	}
	if Kind(9).String() == "" || Shape(9).String() == "" {
		t.Error("out-of-range enums should still stringify")
	}
}

func TestSpecString(t *testing.T) {
	for _, sp := range SampleTrees {
		if sp.String() == "" {
			t.Errorf("%s: empty String()", sp.Name)
		}
	}
}

func BenchmarkSequentialBRG(b *testing.B) {
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		c := SearchSequential(&BenchTiny)
		nodes += c.Nodes
	}
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
}

func BenchmarkSequentialALFG(b *testing.B) {
	sp := BenchTiny
	sp.RNG = "ALFG"
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		c := SearchSequential(&sp)
		nodes += c.Nodes
	}
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
}

func TestGranularityOneIsDefault(t *testing.T) {
	a := BenchTiny
	a.Granularity = 1
	ca := SearchSequential(&a)
	cb := SearchSequential(&BenchTiny)
	if ca.Nodes != cb.Nodes || ca.Leaves != cb.Leaves {
		t.Errorf("granularity 1 changed the tree: %d vs %d nodes", ca.Nodes, cb.Nodes)
	}
}

func TestGranularityDefinesDifferentTree(t *testing.T) {
	g3 := BenchTiny
	g3.Granularity = 3
	a := SearchSequential(&g3)
	b := SearchSequential(&g3)
	if a.Nodes != b.Nodes {
		t.Error("granularity-3 tree not deterministic")
	}
	base := SearchSequential(&BenchTiny)
	if a.Nodes == base.Nodes {
		t.Log("granularity-3 tree happens to have the same size as base; acceptable but unlikely")
	}
	if a.Nodes < 2 {
		t.Errorf("granularity-3 tree degenerate: %d nodes", a.Nodes)
	}
}

// opaqueStream hides a built-in stream's concrete type, so Children takes
// the generic interface path: one Spawn per evaluation, the definition the
// per-family fast paths are shortcuts of.
type opaqueStream struct{ rng.Stream }

// TestFamilyPathsMatchGenericStream counts whole trees through Children
// twice — the family's own arm (pairs and odd tail at granularity 1, the
// g-spawns-per-child walk above it) and the generic path — and requires the
// same nodes in the same order.
func TestFamilyPathsMatchGenericStream(t *testing.T) {
	alfg, alfg3, brg3 := BenchTiny, BenchTiny, BenchTiny
	alfg.Name, alfg.RNG = "bench-tiny+alfg", "ALFG"
	alfg3.Name, alfg3.RNG, alfg3.Granularity = "bench-tiny+alfg-g3", "ALFG", 3
	brg3.Name, brg3.Granularity = "bench-tiny-g3", 3
	// Odd child counts: the one-lane tail. Seed 19's ALFG tree is its root
	// alone, seed 20's has 9,234 nodes.
	geo := GeoLinear
	geo.Name, geo.RNG, geo.Seed = "geo-linear+alfg", "ALFG", 20
	for _, sp := range []*Spec{&alfg, &alfg3, &brg3, &geo} {
		fast, generic := sp.Stream(), opaqueStream{sp.Stream()}
		var nodes int
		a, b := []Node{Root(sp)}, []Node{Root(sp)}
		for len(a) > 0 {
			na, nb := a[len(a)-1], b[len(b)-1]
			if na != nb {
				t.Fatalf("%s: node %d is %+v on the family path, %+v on the generic one", sp.Name, nodes, na, nb)
			}
			nodes++
			a = Children(sp, fast, &na, a[:len(a)-1])
			b = Children(sp, generic, &nb, b[:len(b)-1])
			if len(a) != len(b) {
				t.Fatalf("%s: stacks diverge after node %d: %d vs %d entries", sp.Name, nodes, len(a), len(b))
			}
		}
		if nodes < 100 {
			t.Errorf("%s: degenerate tree, %d nodes", sp.Name, nodes)
		}
	}
}

func TestGranularityValidation(t *testing.T) {
	sp := BenchTiny
	sp.Granularity = -1
	if err := sp.Validate(); err == nil {
		t.Error("negative granularity accepted")
	}
	sp.Granularity = 4
	if err := sp.Validate(); err != nil {
		t.Errorf("granularity 4 rejected: %v", err)
	}
}

func TestRootSharesDominance(t *testing.T) {
	// The paper's imbalance claim: on a critical binomial tree, one root
	// subtree holds the overwhelming majority of the work.
	shares, total := RootShares(&BenchSmall)
	if len(shares) != BenchSmall.B0 {
		t.Fatalf("%d shares for %d root children", len(shares), BenchSmall.B0)
	}
	var sum int64 = 1
	for _, s := range shares {
		sum += s
	}
	if sum != total {
		t.Fatalf("shares sum to %d, total %d", sum, total)
	}
	if total != 63575 {
		t.Fatalf("total = %d, want the pinned count", total)
	}
	// At bench-small's extinction margin (ε = 5e-3) the dominance is less
	// extreme than the paper's 99.9% at ε = 1e-8, but the heavy tail must
	// be unmistakable: the top subtree holds a large constant fraction and
	// dwarfs the median one.
	top := float64(shares[0]) / float64(total)
	if top < 0.2 {
		t.Errorf("largest root subtree holds only %.1f%% of the tree; expected a heavy tail", 100*top)
	}
	median := shares[len(shares)/2]
	if shares[0] < 100*median {
		t.Errorf("top share %d not ≫ median share %d; distribution not heavy-tailed", shares[0], median)
	}
	// Shares are sorted descending.
	for i := 1; i < len(shares); i++ {
		if shares[i] > shares[i-1] {
			t.Fatal("shares not sorted")
		}
	}
}
