// Package repro's root test file holds one testing.B benchmark per paper
// table/figure (see DESIGN.md's per-experiment index), plus micro-benches
// of the load-balancing hot paths. The figure benchmarks run their
// experiment drivers at Smoke scale so `go test -bench=.` stays fast;
// regenerate publication-scale numbers with `go run ./cmd/uts-bench
// -scale full`.
package repro

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// benchExperiment runs one experiment driver per iteration and reports
// the row count so regressions to zero output are visible.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e := bench.ByID(id)
	if e == nil {
		b.Fatalf("experiment %s not found", id)
	}
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(bench.Smoke)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tab.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkE1SequentialRate regenerates the Section 4.1 sequential table.
func BenchmarkE1SequentialRate(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Fig4ChunkSweep regenerates Figure 4 (chunk-size sweep).
func BenchmarkE2Fig4ChunkSweep(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3Fig5Scaling regenerates Figure 5 (processor-count scaling).
func BenchmarkE3Fig5Scaling(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4Fig6SharedMem regenerates Figure 6 (Altix shared memory).
func BenchmarkE4Fig6SharedMem(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Refinements regenerates the Section 4.2 refinement stack.
func BenchmarkE5Refinements(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Efficiency regenerates the Sections 1/6.2 operational profile.
func BenchmarkE6Efficiency(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7SweetSpot regenerates the Section 4.2.1 sweet-spot table.
func BenchmarkE7SweetSpot(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkA1StealHalf regenerates the rapid-diffusion ablation.
func BenchmarkA1StealHalf(b *testing.B) { benchExperiment(b, "A1") }

// BenchmarkA2PollInterval regenerates the mpi-ws polling-interval ablation.
func BenchmarkA2PollInterval(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkA3Lockless regenerates the lock-guarded vs lock-less ablation.
func BenchmarkA3Lockless(b *testing.B) { benchExperiment(b, "A3") }

// --- micro-benchmarks of the hot paths -------------------------------

// BenchmarkSequentialSearch measures the raw sequential exploration rate
// (the denominator of every speedup in the paper).
func BenchmarkSequentialSearch(b *testing.B) {
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		nodes += uts.SearchSequential(&uts.BenchTiny).Nodes
	}
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
}

// BenchmarkRealRun measures end-to-end real concurrent runs of each
// implementation at 4 goroutine threads on the tiny tree.
func BenchmarkRealRun(b *testing.B) {
	for _, alg := range append(append([]core.Algorithm{}, core.Algorithms...), core.UPCTermRelaxed) {
		b.Run(string(alg), func(b *testing.B) {
			b.ReportAllocs()
			var steals int64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(&uts.BenchTiny, core.Options{Algorithm: alg, Threads: 4, Chunk: 8})
				if err != nil {
					b.Fatal(err)
				}
				if res.Nodes() != 3337 {
					b.Fatalf("count mismatch: %d", res.Nodes())
				}
				steals += res.Sum(func(t *stats.Thread) int64 { return t.Steals })
			}
			b.ReportMetric(float64(steals)/float64(b.N), "steals/run")
		})
	}
}

// BenchmarkTracerDisabled and BenchmarkTracerEnabled bracket the cost of
// the internal/obs event tracer on a real concurrent run. Disabled means
// the workers hold nil lanes and every recording call is one nil check —
// the difference against pre-tracer builds must stay under 2% (the
// benchmark's core.trace_overhead_pct row measures it today). Enabled
// shows the full recording cost for scale: the protocol path only, never
// the per-node loop.
func BenchmarkTracerDisabled(b *testing.B) { benchTracedRun(b, false) }
func BenchmarkTracerEnabled(b *testing.B)  { benchTracedRun(b, true) }

func benchTracedRun(b *testing.B, traced bool) {
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		opt := core.Options{Algorithm: core.UPCDistMem, Threads: 4, Chunk: 8}
		if traced {
			opt.Tracer = obs.New(4, 0)
		}
		res, err := core.Run(&uts.BenchTiny, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Nodes() != 3337 {
			b.Fatalf("count mismatch: %d", res.Nodes())
		}
		if traced {
			events += res.Obs.Events
		}
	}
	if traced {
		b.ReportMetric(float64(events)/float64(b.N), "events/run")
	}
}

// BenchmarkSamplerDetached and BenchmarkSamplerAttached bracket the cost
// of the live telemetry read side on a traced run: the attached variant
// adds a Sampler folding at millisecond cadence from its own goroutine.
// The pair is the measured form of the <2% overhead gate
// (TestSamplerOverheadGate, OBS_BENCH_GATE=1): the sampler reads only the
// rings' seqlock side, so the two must be within noise of each other.
func BenchmarkSamplerDetached(b *testing.B) { benchSampledRun(b, false) }
func BenchmarkSamplerAttached(b *testing.B) { benchSampledRun(b, true) }

func benchSampledRun(b *testing.B, sampled bool) {
	b.ReportAllocs()
	var folded int64
	for i := 0; i < b.N; i++ {
		tr := obs.New(4, 0)
		var s *obs.Sampler
		if sampled {
			s = obs.NewSampler(tr)
			s.Start(time.Millisecond)
		}
		res, err := core.Run(&uts.BenchTiny, core.Options{Algorithm: core.UPCDistMem, Threads: 4, Chunk: 8, Tracer: tr})
		if err != nil {
			b.Fatal(err)
		}
		s.Stop()
		if res.Nodes() != 3337 {
			b.Fatalf("count mismatch: %d", res.Nodes())
		}
		if sampled {
			folded += s.Stats().Events
		}
	}
	if sampled {
		b.ReportMetric(float64(folded)/float64(b.N), "events/run")
	}
}

// BenchmarkLaneRec measures the raw cost of recording one event into a
// lane's ring — the per-protocol-operation price of an enabled tracer.
func BenchmarkLaneRec(b *testing.B) {
	tr := obs.New(1, 0)
	l := tr.Lane(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Rec(obs.KindProbeResult, 1, int64(i))
	}
}

// --- owner-path microbenchmarks (PR 8 win condition) -----------------

// sinkChunk keeps the retracted chunk observable so the compiler cannot
// elide the owner-path loop bodies.
var sinkChunk []uts.Node

// benchOwnerChunk builds the 16-node chunk both owner paths cycle.
func benchOwnerChunk() []uts.Node {
	c := make([]uts.Node, 16)
	for i := range c {
		c[i].Height = int32(i)
	}
	return c
}

// ownerPathDepth is the burst size both owner-path benchmarks cycle: each
// benchmark iteration performs ownerPathDepth releases followed by
// ownerPathDepth reacquires, the shape of an owner riding the 2k release
// threshold and then draining its surplus back. Both paths do identical
// logical work per iteration, so their ns/op are directly comparable.
const ownerPathDepth = 8

// ownerPathBallast pins 64 MiB of live heap for the duration of an
// owner-path benchmark. A real run carries megabytes of live tree, deque
// and trace state, against which the relaxed ledger's ~32 B/publish churn
// is collector noise; in a bare benchmark heap the same churn re-triggers
// the collector hundreds of times per second and the loop measures mark
// assists instead of protocol cost. Both benchmarks hold the identical
// ballast (the lock path allocates nothing, so it is unaffected either
// way), keeping the comparison symmetric. Callers defer the returned
// release.
func ownerPathBallast() func() {
	ballast := make([]byte, 64<<20)
	return func() { runtime.KeepAlive(ballast) }
}

// BenchmarkOwnerPathLock measures the lock-based owner path exactly as
// sharedWorker.release/reacquire perform it: lock round trip, pool
// append, workAvail store, unlock — per release and again per reacquire.
func BenchmarkOwnerPathLock(b *testing.B) {
	dom, err := pgas.NewDomain(1, &pgas.SharedMemory)
	if err != nil {
		b.Fatal(err)
	}
	lk := dom.NewLock(0)
	var pool stack.Pool
	var workAvail atomic.Int32
	chunk := benchOwnerChunk()
	defer ownerPathBallast()()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < ownerPathDepth; j++ {
			lk.Acquire(0)
			pool.Put(chunk)
			workAvail.Store(int32(pool.Len()))
			lk.Release(0)
		}
		for j := 0; j < ownerPathDepth; j++ {
			lk.Acquire(0)
			c, ok := pool.TakeNewest()
			if ok {
				workAvail.Store(int32(pool.Len()))
			}
			lk.Release(0)
			if !ok {
				b.Fatal("pool drained")
			}
			sinkChunk = c
		}
	}
}

// BenchmarkOwnerPathRelaxed measures the same burst through the
// fence-free ring: one atomic slot store per publish, one ledger
// compare-and-swap per retract, and workAvail written only on the
// empty↔nonempty transitions — two stores per burst instead of two per
// operation, exactly the transition-only policy releaseRelaxed and
// reacquireRelaxed implement. The ≥2x gate (TestRelaxedOwnerPathGate,
// RELAXED_BENCH_GATE=1) compares this against BenchmarkOwnerPathLock.
func BenchmarkOwnerPathRelaxed(b *testing.B) {
	ring := stack.NewRelaxed(0)
	var workAvail atomic.Int32
	chunk := benchOwnerChunk()
	defer ownerPathBallast()()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < ownerPathDepth; j++ {
			if _, ok := ring.Publish(chunk); !ok {
				b.Fatal("ring full")
			}
			if ring.Live() == 1 {
				workAvail.Store(1)
			}
		}
		for j := 0; j < ownerPathDepth; j++ {
			c, ok := ring.Retract()
			if !ok {
				b.Fatal("ring drained")
			}
			if ring.Live() == 0 {
				workAvail.Store(0)
			}
			sinkChunk = c
		}
	}
}

// TestRelaxedOwnerPathGate is the CI speedup gate for the PR 8 win
// condition: the relaxed owner path must run at least 2x the lock-based
// path's throughput. Opt-in via RELAXED_BENCH_GATE=1 (benchmark-grade
// timing has no place in a default test run) and self-skipping below 4
// cores, where a loaded runner's scheduling noise swamps the measurement.
func TestRelaxedOwnerPathGate(t *testing.T) {
	if os.Getenv("RELAXED_BENCH_GATE") == "" {
		t.Skip("set RELAXED_BENCH_GATE=1 to run the owner-path speedup gate")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 cores for stable timing, have %d", runtime.NumCPU())
	}
	// Min of three runs per side: the minimum is the least-interference
	// estimate, so a background hiccup during any single run cannot fail
	// (or pass) the gate on its own.
	best := func(bench func(*testing.B)) int64 {
		m := int64(0)
		for i := 0; i < 3; i++ {
			if ns := testing.Benchmark(bench).NsPerOp(); ns > 0 && (m == 0 || ns < m) {
				m = ns
			}
		}
		return m
	}
	lock := best(BenchmarkOwnerPathLock)
	relaxed := best(BenchmarkOwnerPathRelaxed)
	if lock <= 0 || relaxed <= 0 {
		t.Fatalf("degenerate timings: lock %dns relaxed %dns", lock, relaxed)
	}
	ratio := float64(lock) / float64(relaxed)
	t.Logf("owner path: lock %dns/op, relaxed %dns/op, speedup %.2fx", lock, relaxed, ratio)
	if ratio < 2.0 {
		t.Errorf("relaxed owner path speedup %.2fx < 2x gate (lock %dns/op, relaxed %dns/op)",
			ratio, lock, relaxed)
	}
}

// BenchmarkSimRun measures simulator throughput (virtual PEs simulated
// per wall second matters for how big a figure run is affordable).
func BenchmarkSimRun(b *testing.B) {
	for _, alg := range core.Algorithms {
		b.Run(string(alg), func(b *testing.B) {
			b.ReportAllocs()
			var eff float64
			for i := 0; i < b.N; i++ {
				res, err := des.Run(&uts.BenchTiny, des.Config{Algorithm: alg, PEs: 16, Chunk: 8, Model: &pgas.KittyHawk})
				if err != nil {
					b.Fatal(err)
				}
				eff = res.Efficiency()
			}
			b.ReportMetric(100*eff, "virt-eff-%")
		})
	}
}

// BenchmarkSimEngine compares the batched DES engine against the retained
// legacy reference on the same mid-scale configuration. Both engines
// execute identical event sequences (the differential suite proves it),
// so the events/s metric isolates pure engine overhead: heap handling,
// goroutine handoffs, and allocation.
func BenchmarkSimEngine(b *testing.B) {
	for _, engine := range []string{des.EngineBatched, des.EngineLegacy} {
		b.Run(engine, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				_, info, err := des.RunInfo(&uts.T3Small, des.Config{
					Algorithm: core.UPCDistMem, PEs: 64, Chunk: 8,
					Model: &pgas.KittyHawk, Engine: engine,
				})
				if err != nil {
					b.Fatal(err)
				}
				events += info.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSimSteal stresses the steal path: chunk 1 under rapid diffusion
// makes nearly every explored node a protocol interaction, so interrupt
// delivery and the lock waiter ring dominate instead of batched work.
func BenchmarkSimSteal(b *testing.B) {
	for _, engine := range []string{des.EngineBatched, des.EngineLegacy} {
		b.Run(engine, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			var steals int64
			for i := 0; i < b.N; i++ {
				res, info, err := des.RunInfo(&uts.BenchTiny, des.Config{
					Algorithm: core.UPCTermRapdif, PEs: 16, Chunk: 1,
					Model: &pgas.KittyHawk, Engine: engine,
				})
				if err != nil {
					b.Fatal(err)
				}
				events += info.Events
				for _, t := range res.Threads {
					steals += t.Steals
				}
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(steals)/float64(b.N), "steals/run")
		})
	}
}

// BenchmarkSimSharded measures parallel dispatch scaling of the sharded
// engine: the same mid-scale distributed-memory simulation dispatched by
// 1, 2, 4 and 8 shard goroutines. Every variant executes the bit-identical
// event schedule (TestShardedDifferential proves it), so events/s isolates
// how well conservative-lookahead synchronization converts cores into
// dispatch throughput. On a single-core runner the variants tie — compare
// across shard counts only on a machine with that many idle cores.
func BenchmarkSimSharded(b *testing.B) {
	for _, shards := range []int{0, 1, 2, 4, 8} {
		name := "batched" // shards == 0: the sequential baseline
		if shards > 0 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				_, info, err := des.RunInfo(&uts.T3Small, des.Config{
					Algorithm: core.UPCDistMem, PEs: 256, Chunk: 8,
					Model: &pgas.KittyHawk, Shards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				events += info.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSimDispatch is the pure engine microbenchmark: 64 PEs burn
// interleaved 1-4ns stepped quanta with no tree or protocol work, so
// every cost is dispatch itself — heap exchange, quantum accounting, and
// (for the legacy engine) one goroutine round trip per event. This is
// the number the batched rewrite targets; BenchmarkSimEngine shows the
// same ratio diluted by the simulation's real node-expansion work.
func BenchmarkSimDispatch(b *testing.B) {
	for _, engine := range []string{des.EngineBatched, des.EngineLegacy} {
		b.Run(engine, func(b *testing.B) {
			b.ReportAllocs()
			const pes = 64
			quanta := b.N/pes + 1
			var sim *des.Sim
			if engine == des.EngineLegacy {
				sim = des.NewLegacy()
			} else {
				sim = des.New()
			}
			for i := 0; i < pes; i++ {
				sim.Spawn(func(p *des.Proc) {
					n := 0
					p.AdvanceStepped(func() (time.Duration, uint8) {
						if n >= quanta {
							return 0, des.StepDone
						}
						n++
						return time.Duration(1 + (n & 3)), 0
					})
				})
			}
			if err := sim.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sim.Events())/b.Elapsed().Seconds(), "events/s")
		})
	}
}
