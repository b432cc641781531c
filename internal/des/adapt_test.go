package des

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/uts"
)

// fingerprint condenses a simulated run into the tuple the differential
// tests compare: every field is deterministic under the DES, so any
// drift — a stray virtual-time charge, a perturbed probe order, an extra
// release — shows up here.
type fingerprint struct {
	Elapsed      time.Duration
	Events       uint64
	Nodes        int64
	Steals       int64
	Probes       int64
	FailedSteals int64
	Releases     int64
}

func fp(res *core.Result, info Info) fingerprint {
	return fingerprint{
		Elapsed:      res.Elapsed,
		Events:       info.Events,
		Nodes:        res.Nodes(),
		Steals:       res.Sum(func(t *stats.Thread) int64 { return t.Steals }),
		Probes:       res.Sum(func(t *stats.Thread) int64 { return t.Probes }),
		FailedSteals: res.Sum(func(t *stats.Thread) int64 { return t.FailedSteals }),
		Releases:     res.Sum(func(t *stats.Thread) int64 { return t.Releases }),
	}
}

// TestAdaptOffByteIdentical pins controller-disabled runs to golden
// fingerprints captured on the tree at the commit BEFORE the adaptive
// wiring existed. Every scheduler hook sits behind a single nil check, so
// a run with Config.Adapt == nil must reproduce these tuples exactly; a
// mismatch means the wiring perturbed the fixed-knob path.
func TestAdaptOffByteIdentical(t *testing.T) {
	altix := pgas.Altix
	cases := []struct {
		name string
		sp   *uts.Spec
		cfg  Config
		want fingerprint
	}{
		{"distmem-t3s-kh", &uts.T3Small,
			Config{Algorithm: core.UPCDistMem, PEs: 64, Chunk: 16, Model: &pgas.KittyHawk, Seed: 1},
			fingerprint{1159213, 18074, 6089, 16, 15315, 94, 17}},
		{"rapdif-t3s-altix", &uts.T3Small,
			Config{Algorithm: core.UPCTermRapdif, PEs: 32, Chunk: 8, Model: &pgas.Altix, Seed: 2},
			fingerprint{855210, 36032, 6089, 57, 33419, 164, 57}},
		{"mpiws-t3s-kh", &uts.T3Small,
			Config{Algorithm: core.MPIWS, PEs: 16, Chunk: 16, PollInterval: 8, Model: &pgas.KittyHawk, Seed: 3},
			fingerprint{923853, 16053, 6089, 16, 1259, 1228, 16}},
		{"hier-t3s-kh", &uts.T3Small,
			Config{Algorithm: core.UPCDistMemHier, PEs: 64, Chunk: 16, Model: &pgas.KittyHawk, NodeSize: 8, Intra: &altix, Seed: 4},
			fingerprint{1077800, 18498, 6089, 17, 15547, 83, 17}},
		{"relaxed-t3s-ts", &uts.T3Small,
			Config{Algorithm: core.UPCTermRelaxed, PEs: 16, Chunk: 16, Model: &pgas.Topsail, Seed: 5},
			fingerprint{807406, 2743, 6089, 17, 1658, 74, 17}},
		{"shmem-tiny-kh", &uts.BenchTiny,
			Config{Algorithm: core.UPCSharedMem, PEs: 8, Chunk: 4, Model: &pgas.KittyHawk, Seed: 6},
			fingerprint{1226414, 2338, 3337, 37, 158, 13, 108}},
		// Corners, recorded at the commit before the five hand-mirrored
		// discovery/termination loops became one machine: 1 PE (no probe
		// cycle, and a zero-level announcement), 2 PEs (one-victim cycles),
		// plain upc-term, and a hierarchical cycle over a partial last node.
		{"term-1pe-kh", &uts.T3Small,
			Config{Algorithm: core.UPCTerm, PEs: 1, Chunk: 16, Model: &pgas.KittyHawk, Seed: 7},
			fingerprint{2549727, 886, 6089, 0, 0, 0, 17}},
		{"distmem-1pe-kh", &uts.T3Small,
			Config{Algorithm: core.UPCDistMem, PEs: 1, Chunk: 16, Model: &pgas.KittyHawk, Seed: 8},
			// 781 events, not the 782 recorded: a lone PE's zero-level
			// announcement used to count a boundary in upc-distmem alone, and
			// now counts none in either family. Makespan and counters did not move.
			fingerprint{2549202, 781, 6089, 0, 0, 0, 17}},
		{"term-2pe-altix", &uts.T3Small,
			Config{Algorithm: core.UPCTerm, PEs: 2, Chunk: 8, Model: &pgas.Altix, Seed: 9},
			fingerprint{2792975, 1371, 6089, 12, 150, 0, 57}},
		{"term-32pe-kh", &uts.T3Small,
			Config{Algorithm: core.UPCTerm, PEs: 32, Chunk: 16, Model: &pgas.KittyHawk, Seed: 10},
			fingerprint{1072020, 7024, 6089, 17, 5191, 51, 17}},
		{"shmem-1pe-kh", &uts.BenchTiny,
			Config{Algorithm: core.UPCSharedMem, PEs: 1, Chunk: 4, Model: &pgas.KittyHawk, Seed: 11},
			fingerprint{1399771, 1874, 3337, 0, 0, 0, 108}},
		{"hier-7pe-partial-node", &uts.T3Small,
			Config{Algorithm: core.UPCDistMemHier, PEs: 7, Chunk: 16, Model: &pgas.KittyHawk, NodeSize: 8, Intra: &altix, Seed: 12},
			fingerprint{599088, 3209, 6089, 14, 2283, 13, 17}},
		// mpi-ws corners, recorded at the commit before the simulated and the
		// real rank became one core.MsgRank: a lone rank (terminates without a
		// message), 2 ranks (the token ring is one hop each way), the finest
		// grain (a poll per node, one-node grants), and the benchmark's
		// sim_msgpoll shape.
		{"mpiws-1pe-kh", &uts.T3Small,
			Config{Algorithm: core.MPIWS, PEs: 1, Chunk: 16, PollInterval: 8, Model: &pgas.KittyHawk, Seed: 13},
			fingerprint{2926202, 1525, 6089, 0, 0, 0, 0}},
		{"mpiws-2pe-altix", &uts.T3Small,
			Config{Algorithm: core.MPIWS, PEs: 2, Chunk: 8, PollInterval: 8, Model: &pgas.Altix, Seed: 14},
			fingerprint{2801885, 2116, 6089, 12, 28, 15, 12}},
		{"mpiws-poll1-k1-kh", &uts.T3Small,
			Config{Algorithm: core.MPIWS, PEs: 16, Chunk: 1, PollInterval: 1, Model: &pgas.KittyHawk, Seed: 15},
			fingerprint{1976803, 44364, 6089, 425, 2830, 2391, 425}},
		{"mpiws-msgpoll-256pe-kh", &uts.BenchSmall,
			Config{Algorithm: core.MPIWS, PEs: 256, Chunk: 16, PollInterval: 8, Model: &pgas.KittyHawk, Seed: 16},
			fingerprint{8156183, 2525770, 63575, 108, 226044, 225700, 108}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, info, err := RunInfo(tc.sp, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fp(res, info); got != tc.want {
				t.Errorf("fixed-knob run drifted from pre-adaptive golden:\ngot  %+v\nwant %+v", got, tc.want)
			}
			if res.Policy != nil {
				t.Errorf("Adapt == nil must leave Result.Policy nil, got %+v", res.Policy)
			}
		})
	}
}

// TestAdaptiveDeterministic demands bit-identical adaptive runs across
// engines: the controllers consume only virtual-time feedback, so the legacy
// reference, which resumes a PE at every event and counts no poll, must take
// every decision the batched engine takes.
func TestAdaptiveDeterministic(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"distmem", Config{Algorithm: core.UPCDistMem, PEs: 64, Chunk: 2,
			Model: &pgas.KittyHawk, Seed: 11, Adapt: &policy.Config{}}},
		{"mpiws", Config{Algorithm: core.MPIWS, PEs: 32, Chunk: 4, PollInterval: 2,
			Model: &pgas.Altix, Seed: 12, Adapt: &policy.Config{}}},
		{"rapdif", Config{Algorithm: core.UPCTermRapdif, PEs: 32, Chunk: 64,
			Model: &pgas.Altix, Seed: 13, Adapt: &policy.Config{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refInfo, err := RunInfo(&uts.T3Small, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Policy == nil {
				t.Fatal("adaptive run returned no policy summary")
			}
			cfg := tc.cfg
			cfg.reference = true
			res, info, err := RunInfo(&uts.T3Small, cfg)
			if err != nil {
				t.Fatalf("legacy: %v", err)
			}
			if got, want := fp(res, info), fp(ref, refInfo); got != want {
				t.Errorf("legacy diverged from batched:\ngot  %+v\nwant %+v", got, want)
			}
			if got, want := *res.Policy, *ref.Policy; got.Windows != want.Windows ||
				got.Changes != want.Changes || got.ChunkFinalMean != want.ChunkFinalMean ||
				got.ChunkLo != want.ChunkLo || got.ChunkHi != want.ChunkHi {
				t.Errorf("legacy policy summary diverged:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestAdaptiveConverges is the closed-loop check on the small tree:
// started from a deliberately bad chunk on either side of the plateau,
// the adaptive run must reach 80% of the best fixed-chunk rate found by
// a TuneChunk sweep — on two machine profiles — and must at least double
// a start whose fixed rate was under half the best (the serialized k=128
// pathology). T3Small is ~6k nodes, so the adaptation transient is a
// large fraction of the run; the full within-10%-of-best acceptance bar
// runs on T3XXL behind UTS_GATES (TestAdaptBenchGate), where the
// transient amortizes.
func TestAdaptiveConverges(t *testing.T) {
	models := []*pgas.Model{&pgas.KittyHawk, &pgas.Altix}
	for _, m := range models {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			base := Config{Algorithm: core.UPCDistMem, PEs: 64, Model: m, Seed: 21}
			best, results, err := TuneChunk(&uts.T3Small, base, nil)
			if err != nil {
				t.Fatal(err)
			}
			bestRate := results[best].Rate()
			for _, bad := range []int{1, 128} {
				cfg := base
				cfg.Chunk = bad
				cfg.Adapt = &policy.Config{}
				res, err := Run(&uts.T3Small, cfg)
				if err != nil {
					t.Fatalf("chunk=%d: %v", bad, err)
				}
				rate := res.Rate()
				fixed := results[bad].Rate()
				t.Logf("chunk=%d: adaptive %.0f nodes/s, fixed-at-start %.0f, best fixed %.0f (k=%d); policy: %s",
					bad, rate, fixed, bestRate, best, res.Policy)
				if rate < 0.8*bestRate {
					t.Errorf("chunk=%d: adaptive rate %.0f below 80%% of best fixed %.0f (k=%d)",
						bad, rate, bestRate, best)
				}
				if fixed < 0.5*bestRate && rate < 2*fixed {
					t.Errorf("chunk=%d: adaptive rate %.0f failed to double the bad fixed rate %.0f",
						bad, rate, fixed)
				}
			}
		})
	}
}

// TestAdaptBenchGate is the acceptance bar from the issue, on the big
// tree: adaptive control started from the worst chunk in the sweep must
// land within 5% of the best fixed-chunk rate on T3XXL, where the
// adaptation transient amortizes over 5.2M nodes. It sweeps a reduced
// candidate set and runs ~15s single-core, so it is opt-in (gate).
func TestAdaptBenchGate(t *testing.T) {
	gate(t)
	base := Config{Algorithm: core.UPCDistMem, PEs: 256,
		Model: &pgas.KittyHawk, Seed: 7}
	best, results, err := TuneChunk(&uts.T3XXL, base, []int{1, 8, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	bestRate := results[best].Rate()
	worst, worstRate := best, bestRate
	for k, r := range results {
		if r.Rate() < worstRate {
			worst, worstRate = k, r.Rate()
		}
	}
	cfg := base
	cfg.Chunk = worst
	cfg.Adapt = &policy.Config{}
	res, err := Run(&uts.T3XXL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := res.Rate()
	t.Logf("T3XXL: adaptive from worst k=%d: %.0f nodes/s; best fixed %.0f (k=%d), worst fixed %.0f; policy: %s",
		worst, rate, bestRate, best, worstRate, res.Policy)
	if rate < 0.95*bestRate {
		t.Errorf("adaptive rate %.0f below 95%% of best fixed %.0f (k=%d)", rate, bestRate, best)
	}
}

// TestAdaptiveHierTier pins the latency-model-driven victim tier, read off
// the trace: an adaptive flat-distmem run on nodes of 8 whose intra-node
// model makes a same-node steal pay starts every PE's probing on its own
// node (the tier drives the walk although the operator asked for the flat
// algorithm); where the intra-node model is no cheaper than the remote one,
// the walk stays flat and not every first probe is a neighbour's.
func TestAdaptiveHierTier(t *testing.T) {
	const pes, node = 32, 8
	for _, tc := range []struct {
		intra pgas.Model
		pays  bool
	}{{pgas.Altix, true}, {pgas.KittyHawk, false}} {
		cfg := Config{Algorithm: core.UPCDistMem, PEs: pes, Chunk: 8,
			Model: &pgas.KittyHawk, NodeSize: node, Intra: &tc.intra, Seed: 31,
			Adapt: &policy.Config{}, Tracer: obs.NewVirtual(pes, 1<<12)}
		if _, err := Run(&uts.T3Small, cfg); err != nil {
			t.Fatal(err)
		}
		onNode := 0
		for i := 0; i < pes; i++ {
			evs, _, missed := cfg.Tracer.Lane(i).SnapshotSince(0, nil)
			if missed > 0 {
				t.Fatalf("PE %d: the ring lost %d events", i, missed)
			}
			for _, e := range evs {
				if e.Kind == obs.KindProbeStart {
					if int(e.Other)/node == i/node {
						onNode++
					}
					break
				}
			}
		}
		if all := onNode == pes; all != tc.pays {
			t.Errorf("intra %s: %d of %d PEs probed their own node first, want all: %v",
				tc.intra.Name, onNode, pes, tc.pays)
		}
	}
}

// TestAdaptiveSummaryRendered checks the stats plumbing end to end: an
// adaptive run's Summary() block carries the adaptive line, a fixed run's
// does not.
func TestAdaptiveSummaryRendered(t *testing.T) {
	cfg := Config{Algorithm: core.UPCDistMem, PEs: 16, Chunk: 2,
		Model: &pgas.KittyHawk, Seed: 41, Adapt: &policy.Config{}}
	res, err := Run(&uts.BenchTiny, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if want := "adaptive: chunk 2 -> "; !strings.Contains(sum, want) {
		t.Errorf("adaptive summary missing %q:\n%s", want, sum)
	}
	cfg.Adapt = nil
	res, err = Run(&uts.BenchTiny, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Summary(), "adaptive:") {
		t.Errorf("fixed-knob summary must not mention adaptation:\n%s", res.Summary())
	}
}

// TestMPIWSSamplerFollowsAdaptedChunk: the diffusion record counts a rank
// as a work source by the rule a steal request is granted by (the adapted
// 2k, core.MsgRank.Grantable), so a traced adaptive run started from a k
// too large to ever be reached cannot report successful steals from zero
// sources.
func TestMPIWSSamplerFollowsAdaptedChunk(t *testing.T) {
	cfg := Config{Algorithm: core.MPIWS, PEs: 16, Chunk: 128, PollInterval: 8,
		Model: &pgas.KittyHawk, Seed: 51, Adapt: &policy.Config{}}
	res, tr, err := RunTraced(&uts.T3Small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	steals := res.Sum(func(t *stats.Thread) int64 { return t.Steals })
	peak := 0
	for _, s := range tr.Changes {
		if s.WorkSources > peak {
			peak = s.WorkSources
		}
	}
	if steals == 0 {
		t.Fatalf("the configuration no longer exercises the rule: no steals (policy: %s)", res.Policy)
	}
	if peak == 0 {
		t.Errorf("%d steals succeeded but no work source was recorded", steals)
	}
}

// kWatch is the host of a simulated shared-memory PE that counts the calls
// of Work that move k inside a work spell at any edge but Yielded.
type kWatch struct {
	*simSharedPE
	moved *int
}

func (w kWatch) Work() {
	k, in := w.k, w.inWork
	w.simSharedPE.Work()
	if in && w.k != k && w.edge != core.Yielded {
		*w.moved++
	}
}

// TestSharedChunkMovesOnlyAtYield holds the simulated shared-memory family
// to PE.NoteCtl's rule (DESIGN.md §16), as the dist family and the wall
// clock keep it: an adaptive run feeds and reads the controller only at a
// Yielded edge, so the k a Surplus edge releases is the k that set its 2k
// threshold. The PEs are simShared's, each behind a kWatch host.
func TestSharedChunkMovesOnlyAtYield(t *testing.T) {
	sp := &uts.BenchSmall
	for _, pes := range []int{8, 16, 32} {
		cfg := Config{Algorithm: core.UPCTermRelaxed, PEs: pes}.withDefaults()
		cs := newCosts(cfg.Model)
		base := core.PolicyBase(cfg.Algorithm, cfg.Chunk, cfg.PollInterval)
		pset := policy.NewSet(&policy.Config{Window: max(8*cs.remoteRef, 32*cs.nodeCost)}, base, pes)
		res := &core.Result{Spec: sp, Algorithm: cfg.Algorithm, Chunk: cfg.Chunk}
		res.Threads = make([]stats.Thread, pes)
		sim := New()
		r := &simSharedRun{upcRun: newUPCRun(cfg, cs, &Wakes{}, nil), mode: core.SharedVariants[cfg.Algorithm]}
		r.pes = make([]*simSharedPE, pes)
		moved := 0
		for i := range r.pes {
			pe := &simSharedPE{upcPE: r.newPE(sp, res, pset, i), r: r}
			r.pes[i], r.upc[i] = pe, &pe.upcPE
			if i == 0 {
				pe.Local.Push(uts.Root(sp))
			}
			m := &core.Machine{H: kWatch{pe, &moved}, PE: &pe.PE, Rng: pe.rng, Me: i, N: pes, Stream: r.mode.StreamTerm}
			pe.spawnStepped(sim, m.Start(), pe.read, func(*Proc) {})
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if got := res.Nodes(); got != 63575 {
			t.Fatalf("%d PEs: %d nodes, want 63575", pes, got)
		}
		if moved != 0 {
			t.Errorf("%d PEs: k moved at %d edges other than Yielded", pes, moved)
		}
	}
}
