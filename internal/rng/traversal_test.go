package rng_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/uts"
)

// These are tests of uts.Children's pair walk, and they live here because
// only this directory's tests can set the kernel dispatch variable
// (rng.ForceKernel, export_test.go): the program has no knob for it.

// kernelTrees is every sample tree that reaches the SHA-1 kernel, plus the
// shapes the pair walk has corners for: granularity 2 (a pair is one
// child's two spawns) and 3 (pairs straddle children), and the full-scale
// root fan-out B0 = 2000 on a small tree. The geometric samples supply odd
// child counts (the one-lane tail).
func kernelTrees(short bool) []*uts.Spec {
	var specs []*uts.Spec
	for _, sp := range uts.SampleTrees {
		if _, brg := sp.Stream().(rng.BRG); !brg {
			continue // ALFG trees never execute a SHA-1
		}
		if short && sp == &uts.BenchLarge {
			continue
		}
		specs = append(specs, sp)
	}
	g2, g3, geo3, wide := uts.BenchSmall, uts.T3Small, uts.GeoCyclic, uts.T3Small
	g2.Name, g2.Granularity = "bench-small-g2", 2
	g3.Name, g3.Granularity = "t3-small-g3", 3
	geo3.Name, geo3.Granularity = "geo-cyclic-g3", 3
	wide.Name, wide.B0 = "t3-small-b2000", 2000
	return append(specs, &g2, &g3, &geo3, &wide)
}

// TestCountsIdenticalUnderEveryKernel requires the same tree — nodes,
// leaves, depth — from the sequential traversal whichever kernels spawn it,
// and so whichever order they let it take: strict depth-first under the
// narrow two, frontiers under the sixteen-lane one.
func TestCountsIdenticalUnderEveryKernel(t *testing.T) {
	for _, sp := range kernelTrees(testing.Short()) {
		var portable uts.Count
		for _, k := range rng.Kernels {
			if !k.Available() {
				t.Logf("CPUID reports no %v: that kernel cannot run on this host", k)
				continue
			}
			restore := rng.ForceKernel(k)
			c := uts.SearchSequential(sp)
			restore()
			c.Elapsed = 0
			if k == rng.GoUnrolled {
				portable = c
			} else if c != portable {
				t.Errorf("%s: %v %+v, go-unrolled %+v", sp.Name, k, c, portable)
			}
		}
		if portable.Nodes < 2 {
			t.Errorf("%s: degenerate tree, %d nodes", sp.Name, portable.Nodes)
		}
	}
}

// TestChildrenAllocatesNothing holds a node expansion into a stack with
// room to zero allocations under every kernel, at granularity 1 and 3, and
// the same for the ALFG arm (which the kernel switch does not reach) — and
// the same for the node kernel every scheduler runs, core.PE.Visit, which
// expands in place on its own stack, a frontier at a time where the kernel
// is wide: zero once a first traversal has grown it.
func TestChildrenAllocatesNothing(t *testing.T) {
	g3, alfg, alfg3 := uts.BenchTiny, uts.BenchTiny, uts.BenchTiny
	g3.Granularity = 3
	alfg.Name, alfg.RNG = "bench-tiny+alfg", "ALFG"
	alfg3.Name, alfg3.RNG, alfg3.Granularity = "bench-tiny+alfg-g3", "ALFG", 3
	for _, sp := range []*uts.Spec{&uts.BenchTiny, &g3, &alfg, &alfg3} {
		for _, k := range rng.Kernels {
			if !k.Available() {
				continue
			}
			restore := rng.ForceKernel(k)
			st := sp.Stream()
			root := uts.Root(sp)
			stack := make([]uts.Node, 0, 4*uts.MaxChildren)
			if n := testing.AllocsPerRun(200, func() {
				stack = uts.Children(sp, st, &root, stack[:0])
				stack = uts.Children(sp, st, &stack[0], stack)
			}); n != 0 {
				t.Errorf("%s, %s: Children allocates %v times per run, want 0", sp.Name, rng.KernelName(), n)
			}
			var th stats.Thread
			pe := core.NewPE(sp, &th, nil, nil)
			visit := func() {
				if pe.Visit(core.YieldEvery) == 0 {
					pe.Local.Push(root)
				}
			}
			for visit(); pe.Local.Len() > 0; visit() {
			}
			if n := testing.AllocsPerRun(2000, visit); n != 0 {
				t.Errorf("%s, %s: PE.Visit allocates %v times per call, want 0", sp.Name, rng.KernelName(), n)
			}
			restore()
		}
	}
}

// BenchmarkSequentialByKernel is the sequential traversal rate under each
// kernel — the only place the narrower kernels' rates can be read on a host
// that has a wider one.
func BenchmarkSequentialByKernel(b *testing.B) {
	for _, k := range rng.Kernels {
		if !k.Available() {
			continue
		}
		restore := rng.ForceKernel(k)
		b.Run(k.String(), func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				nodes += uts.SearchSequential(&uts.BenchSmall).Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
		})
		restore()
	}
}
