package uts

// Named tree specifications.
//
// T1Paper and T2Paper are the exact parameter sets reported in Section 4 of
// the paper (footnotes 1 and 2). They generate roughly 10.6 billion and 157
// billion nodes respectively — hours of CPU on this hardware — and are
// included so the full experiment can be run where that budget exists.
//
// The Bench* family keeps the paper's structure (binomial, root fan-out
// B0 = 2000 or a scaled-down fan-out, M = 2, critical q = (1−ε)/2) while
// raising the extinction margin ε to bring expected sizes into the
// 10^4–10^7 range. Because the binomial family is self-similar, the
// subtree-size distribution at every node has the same shape at any ε;
// only the overall scale changes, so load-balancing behaviour is preserved.
//
// The Geo* and Hybrid* trees exercise the other UTS families; they are used
// by the cross-implementation correctness tests and the customtree example.
var (
	// T1Paper is the 10.6-billion-node tree of Section 4.1, footnote 1.
	T1Paper = Spec{Name: "T1paper", Kind: Binomial, Seed: 0, B0: 2000, M: 2,
		Q: 0.5 * (1 - 1e-8)}

	// T2Paper is the 157-billion-node tree of Section 4.2.2, footnote 2. Its
	// q has two readings: 0.5·(1−10⁻⁶) = 0.4999995, the one here, and the
	// UTS distribution's T3WL value 0.4999999995 = 0.5·(1−10⁻⁹). Neither has
	// been walked to the paper's count, so which the paper ran is open.
	T2Paper = Spec{Name: "T2paper", Kind: Binomial, Seed: 559, B0: 2000, M: 2,
		Q: 0.5 * (1 - 1e-6)}

	// BenchTiny: a few thousand nodes; unit tests.
	BenchTiny = Spec{Name: "bench-tiny", Kind: Binomial, Seed: 17, B0: 60, M: 2,
		Q: 0.5 * (1 - 5e-3)}

	// BenchSmall: expected ~40k nodes; integration tests.
	BenchSmall = Spec{Name: "bench-small", Kind: Binomial, Seed: 42, B0: 200, M: 2,
		Q: 0.5 * (1 - 5e-3)}

	// BenchMedium: expected ~500k nodes; local benchmarks.
	BenchMedium = Spec{Name: "bench-medium", Kind: Binomial, Seed: 7, B0: 500, M: 2,
		Q: 0.5 * (1 - 1e-3)}

	// BenchLarge: expected ~4M nodes; figure regeneration (the role the
	// 10.6B tree plays in the paper's Figure 4).
	BenchLarge = Spec{Name: "bench-large", Kind: Binomial, Seed: 0, B0: 2000, M: 2,
		Q: 0.5 * (1 - 5e-4)}

	// BenchHuge: tens of millions of nodes; ALFG-driven simulator runs
	// (the Figure 5 stand-in for the 157B tree).
	BenchHuge = Spec{Name: "bench-huge", Kind: Binomial, Seed: 559, B0: 2000, M: 2,
		Q: 0.5 * (1 - 1e-4), RNG: "ALFG"}

	// T3Small: expected ~10k nodes; a binomial tree (B0 = 200, m = 2) sized
	// for differential engine tests where every algorithm × seed
	// combination must run in tier-1 time. Not UTS's T3 shape, which is
	// B0 = 2000, m = 8 (uts_test.go walks that one); the name stays because
	// make fingerprints prints it.
	T3Small = Spec{Name: "t3-small", Kind: Binomial, Seed: 31, B0: 200, M: 2,
		Q: 0.5 * (1 - 2e-2)}

	// T3XXL: expected ~5M nodes, ALFG-driven like the paper's runs; the
	// 1024-PE scale workload for the batched DES engine (its wall-time
	// target).
	T3XXL = Spec{Name: "t3-xxl", Kind: Binomial, Seed: 100, B0: 2000, M: 2,
		Q: 0.5 * (1 - 4e-4), RNG: "ALFG"}

	// GeoFixed is a small geometric tree with depth-independent branching.
	GeoFixed = Spec{Name: "geo-fixed", Kind: Geometric, Seed: 19, B0: 4,
		GenMx: 8, Shape: ShapeFixed}

	// GeoLinear has UTS T5's shape, linearly decaying branching (-a 0), at
	// T1's branching, depth and seed (-b 4 -d 10 -r 19); T1's own shape is
	// the fixed one (-a 3).
	GeoLinear = Spec{Name: "geo-linear", Kind: Geometric, Seed: 19, B0: 4,
		GenMx: 10, Shape: ShapeLinear}

	// GeoCyclic alternates bushy and sparse depth bands.
	GeoCyclic = Spec{Name: "geo-cyclic", Kind: Geometric, Seed: 3, B0: 4,
		GenMx: 20, Shape: ShapeCyclic}

	// HybridSmall switches from geometric to binomial at 30% of GenMx.
	HybridSmall = Spec{Name: "hybrid-small", Kind: Hybrid, Seed: 9, B0: 6,
		M: 2, Q: 0.49, GenMx: 10, Shift: 0.3}

	// Balanced3x7 is a deterministic 3-ary depth-7 tree with exactly
	// (3^8−1)/2 = 3280 nodes; used wherever tests need a known structure.
	Balanced3x7 = Spec{Name: "balanced-3x7", Kind: Balanced, B0: 3, GenMx: 7}
)

// SampleTrees lists every runnable named tree (the paper-scale trees are
// deliberately excluded) for use by CLIs and table-driven tests.
var SampleTrees = []*Spec{
	&BenchTiny, &BenchSmall, &BenchMedium, &BenchLarge, &BenchHuge,
	&T3Small, &T3XXL,
	&GeoFixed, &GeoLinear, &GeoCyclic, &HybridSmall, &Balanced3x7,
}

// ByName returns the named sample tree (including the paper-scale specs),
// or nil if the name is unknown.
func ByName(name string) *Spec {
	all := append([]*Spec{&T1Paper, &T2Paper}, SampleTrees...)
	for _, sp := range all {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}
