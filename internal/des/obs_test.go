package des

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/stats"
	"repro/internal/uts"
)

// TestTracingIsObservationOnly is the differential test for the event
// tracer: the simulator is deterministic and recording adds no virtual
// time, so a traced run must be bit-identical to an untraced one — same
// makespan, same per-thread schedule, same counters — for every
// algorithm.
func TestTracingIsObservationOnly(t *testing.T) {
	sp := &uts.BenchTiny
	for _, alg := range core.Algorithms {
		cfg := Config{Algorithm: alg, PEs: 8, Chunk: 4}
		plain, err := Run(sp, cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", alg, err)
		}
		tr := obs.NewVirtual(8, 0)
		cfg.Tracer = tr
		traced, err := Run(sp, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", alg, err)
		}
		if plain.Elapsed != traced.Elapsed {
			t.Errorf("%s: tracing changed the makespan: %v vs %v", alg, plain.Elapsed, traced.Elapsed)
		}
		if len(plain.Threads) != len(traced.Threads) {
			t.Fatalf("%s: thread counts differ", alg)
		}
		for i := range plain.Threads {
			a, b := &plain.Threads[i], &traced.Threads[i]
			if a.Nodes != b.Nodes || a.Leaves != b.Leaves ||
				a.Steals != b.Steals || a.ChunksGot != b.ChunksGot ||
				a.Probes != b.Probes || a.FailedSteals != b.FailedSteals ||
				a.Releases != b.Releases || a.Reacquires != b.Reacquires ||
				a.Requests != b.Requests || a.TermBarrierEntries != b.TermBarrierEntries {
				t.Errorf("%s PE %d: counters diverged under tracing:\nuntraced %+v\ntraced   %+v", alg, i, a, b)
			}
			if a.InState != b.InState {
				t.Errorf("%s PE %d: state times diverged under tracing", alg, i)
			}
		}
		if traced.Obs == nil {
			t.Fatalf("%s: traced run has no histogram summary", alg)
		}
		if plain.Obs != nil {
			t.Errorf("%s: untraced run grew a histogram summary", alg)
		}

		// Cross-check the tracer against the counters it shadows: every
		// scheduler records exactly one chunk-transfer event per
		// successful steal, and the untraced report must not carry the
		// trace section.
		steals := traced.Sum(func(th *stats.Thread) int64 { return th.Steals })
		if got := traced.Obs.ChunkSize.Count(); got != steals {
			t.Errorf("%s: %d chunk-transfer events for %d steals", alg, got, steals)
		}
		if strings.Contains(plain.Summary(), "steal-latency") {
			t.Errorf("%s: untraced summary contains trace output", alg)
		}
		if steals > 0 && !strings.Contains(traced.Summary(), "steal-latency: p50=") {
			t.Errorf("%s: traced summary lacks the steal-latency line:\n%s", alg, traced.Summary())
		}
	}
}

// TestSamplerIsObservationOnly extends the differential to the live
// telemetry plane: a run with a Sampler attached and folding at full
// speed from another goroutine must stay bit-identical to an untraced
// run — the sampler touches only the rings' seqlock read side and the
// lanes' atomic progress counters, never the schedule.
func TestSamplerIsObservationOnly(t *testing.T) {
	sp := &uts.BenchTiny
	for _, alg := range core.Algorithms {
		cfg := Config{Algorithm: alg, PEs: 8, Chunk: 4}
		plain, err := Run(sp, cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", alg, err)
		}

		tr := obs.NewVirtual(8, 64) // tiny rings: sampling under constant wraparound
		cfg.Tracer = tr
		s := obs.NewSampler(tr)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					s.Sample()
				}
			}
		}()
		sampled, err := Run(sp, cfg)
		close(stop)
		<-done
		if err != nil {
			t.Fatalf("%s sampled: %v", alg, err)
		}

		if plain.Elapsed != sampled.Elapsed {
			t.Errorf("%s: sampling changed the makespan: %v vs %v", alg, plain.Elapsed, sampled.Elapsed)
		}
		for i := range plain.Threads {
			a, b := &plain.Threads[i], &sampled.Threads[i]
			if a.Nodes != b.Nodes || a.Steals != b.Steals || a.Probes != b.Probes ||
				a.FailedSteals != b.FailedSteals || a.InState != b.InState {
				t.Errorf("%s PE %d: counters diverged under sampling:\nplain   %+v\nsampled %+v", alg, i, a, b)
			}
		}

		// The sampler's own view must reconcile with the run it watched:
		// the flushed node counter covers the whole tree, and the final
		// fold accounts for every recorded event.
		st := s.Sample()
		if nodes := plain.Nodes(); st.Nodes != nodes {
			t.Errorf("%s: sampler saw %d nodes, run expanded %d", alg, st.Nodes, nodes)
		}
		if st.Events <= 0 || !st.Virtual {
			t.Errorf("%s: sampler stats implausible: %+v", alg, st)
		}
		var kindSum int64
		for k := 0; k < obs.NumKinds; k++ {
			kindSum += st.Kinds[k]
		}
		if kindSum+st.Missed != st.Events {
			t.Errorf("%s: replayed %d + missed %d != recorded %d", alg, kindSum, st.Missed, st.Events)
		}
	}
}

// TestSamplerRecordPathGate is the gate of the telemetry read side: a
// Sampler reads the rings' seqlock side from a goroutine of its own, so a PE
// recording while one is attached and folding pays nothing for it — no lock,
// no store of the sampler's, no allocation. The contract is a count, held on
// any host with any number of cores: recording with a live sampler attached
// allocates nothing. That a sampled run is bit-identical to an untraced one
// is TestSamplerIsObservationOnly's. What a record costs, detached and
// attached, is logged for information only: a wall-clock ratio of two runs
// drifts with the host — the ≤ 2 % bound over 1000 paired runs this gate
// used to hold read anywhere from −1.2 to +5.3 % on one machine — a count
// does not.
func TestSamplerRecordPathGate(t *testing.T) {
	gate(t)
	tr := obs.NewVirtual(1, 0)
	lane := tr.Lane(0)
	var at time.Duration
	record := func() {
		at++
		lane.RecV(obs.KindProbeStart, 1, 0, at)
		lane.AddNodes(1)
	}
	timed := func() float64 {
		const n = 1 << 20
		start := time.Now()
		for i := 0; i < n; i++ {
			record()
		}
		return float64(time.Since(start).Nanoseconds()) / n
	}
	detached := timed()
	s := obs.NewSampler(tr)
	s.Start(time.Millisecond)
	defer s.Stop()
	if n := testing.AllocsPerRun(100000, record); n != 0 {
		t.Errorf("a record with a sampler attached allocates %v times; want 0", n)
	}
	t.Logf("%.1f ns a record detached, %.1f attached (information only)", detached, timed())
}

// TestTracedEventsWellFormed runs one stealing-heavy configuration on each
// clock and checks the merged event stream invariants: nondecreasing
// timestamps (virtual ones in virtual time), per-lane sequence numbers,
// kinds within the taxonomy, and — the machine being one — the same probe
// bracket on both: every probe-result answers the probe-start before it.
// A wall-clock lane can outrun its ring (on a loaded host idle threads
// probe for as long as the workers are descheduled), and what a wrapped
// ring retains may open between a probe-start and its result: such a lane
// is held to the bracket from its first retained probe-start on. Virtual
// lanes never wrap here, and are held to it from their first event.
func TestTracedEventsWellFormed(t *testing.T) {
	virt, wall := obs.NewVirtual(8, 0), obs.New(8, 0)
	if _, err := Run(&uts.BenchTiny, Config{Algorithm: core.UPCDistMem, PEs: 8, Chunk: 4, Tracer: virt}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(&uts.BenchTiny, core.Options{Algorithm: core.UPCDistMem, Threads: 8, Chunk: 4, Tracer: wall}); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*obs.Tracer{virt, wall} {
		events := tr.Events()
		if len(events) == 0 {
			t.Fatal("no events recorded")
		}
		lastSeq := map[int32]uint64{}
		probing := map[int32]int32{} // PE -> victim of its probe in flight, +1
		// midBracket marks the lanes whose retained history may open inside
		// a bracket: they dropped events and have shown no probe-start yet.
		midBracket := map[int32]bool{}
		for pe := 0; pe < 8; pe++ {
			if dropped := tr.Lane(pe).Recorded() - obs.DefaultRingSize; dropped > 0 {
				if tr.Virtual() {
					t.Fatalf("virtual lane %d dropped %d events: the strict half of this test needs the whole history", pe, dropped)
				}
				midBracket[int32(pe)] = true
			}
		}
		for i, e := range events {
			if i > 0 && e.T < events[i-1].T {
				t.Fatalf("event %d out of time order", i)
			}
			if e.T < 0 {
				t.Fatalf("event %d has a negative timestamp: %+v", i, e)
			}
			if e.PE < 0 || e.PE >= 8 {
				t.Fatalf("event %d from unknown PE %d", i, e.PE)
			}
			if e.Kind.String() == "" || strings.HasPrefix(e.Kind.String(), "Kind(") {
				t.Fatalf("event %d has unknown kind %d", i, e.Kind)
			}
			if last, ok := lastSeq[e.PE]; ok && e.Seq <= last {
				t.Fatalf("PE %d sequence regressed at event %d", e.PE, i)
			}
			lastSeq[e.PE] = e.Seq
			switch e.Kind {
			case obs.KindProbeStart:
				probing[e.PE] = e.Other + 1
				midBracket[e.PE] = false
			case obs.KindProbeResult:
				if probing[e.PE] != e.Other+1 && !midBracket[e.PE] {
					t.Fatalf("virtual=%v: event %d: probe-result from PE %d without its probe-start", tr.Virtual(), i, e.Other)
				}
				probing[e.PE] = 0
			}
		}
	}
}

// TestTraceCountsPinned gives the traced path exact rows, in the shape of
// TestEngineCountsPinned: how many events a run records and how many of
// them its rings have overwritten by the end, as literals that hold on any
// host. On bench-small at 64 PEs one row wraps a 1024-slot ring and one
// stays inside it; both must read the same under the legacy reference, which
// steps every probe and poll the batched engine counts and records each
// where it falls. With obs's 32-byte slot these are also the bytes a trace
// costs: Events × 32 written, (Events − Dropped) × 32 retained.
func TestTraceCountsPinned(t *testing.T) {
	const pes, ringSize = 64, 1024
	type counts struct{ Events, Dropped int64 }
	for _, row := range []struct {
		alg  core.Algorithm
		want counts
	}{
		{core.UPCDistMem, counts{Events: 53820, Dropped: 16}},
		{core.MPIWS, counts{Events: 53756}},
	} {
		for _, e := range engines {
			cfg := Config{Algorithm: row.alg, PEs: pes, Chunk: 8, Model: &pgas.KittyHawk, Seed: 1,
				reference: e.reference, Tracer: obs.NewVirtual(pes, ringSize)}
			res, err := Run(&uts.BenchSmall, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", row.alg, e.name, err)
			}
			if got := (counts{res.Obs.Events, res.Obs.Dropped}); got != row.want {
				t.Errorf("%s %s: %+v, want %+v", row.alg, e.name, got, row.want)
			}
		}
	}
}
