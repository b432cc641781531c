package des

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/uts"
)

// differentialCases calls fn for every algorithm × tree × seed
// configuration the engine differentials cover.
func differentialCases(fn func(name string, sp *uts.Spec, cfg Config)) {
	algos := []core.Algorithm{
		core.Static, core.UPCSharedMem, core.UPCTerm, core.UPCTermRapdif, core.UPCTermRelaxed,
		core.UPCDistMem, core.UPCDistMemHier, core.MPIWS,
	}
	for _, algo := range algos {
		for _, sp := range []*uts.Spec{&uts.GeoLinear, &uts.T3Small} {
			for _, seed := range []int64{1, 2, 3} {
				fn(fmt.Sprintf("%s/%s/seed%d", algo, sp.Name, seed), sp,
					Config{Algorithm: algo, PEs: 16, Chunk: 8, Model: &pgas.KittyHawk, Seed: seed})
			}
		}
	}
	// A two-level machine: nodes of four PEs, same-node references at the
	// Altix price. The hierarchical walk then probes at two periods
	// within a cycle, the flat one at both in random order.
	for _, algo := range []core.Algorithm{core.UPCDistMem, core.UPCDistMemHier} {
		fn(fmt.Sprintf("%s/t3-small/nodes-of-4", algo), &uts.T3Small,
			Config{Algorithm: algo, PEs: 16, Chunk: 8, Model: &pgas.KittyHawk, Seed: 1, NodeSize: 4, Intra: &pgas.Altix})
	}
}

// onesidedTree is the ALFG binomial tree of the benchmark's sim_* workloads
// (tree seed 2007's first candidate): 312,139 nodes.
var onesidedTree = uts.Spec{Name: "ALFG-b2000-r1449485361", Kind: uts.Binomial, Seed: 1449485361,
	B0: 2000, M: 2, Q: 0.5 * (1 - 6e-3), RNG: "ALFG"}

// runSame runs cfg on the engine it selects and requires the batched
// engine's result (bres, binfo) bit for bit: same makespan, same event
// count, same per-thread counters and state times.
func runSame(t *testing.T, engine string, sp *uts.Spec, cfg Config, bres *core.Result, binfo Info) Info {
	t.Helper()
	res, info, err := RunInfo(sp, cfg)
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	if res.Elapsed != bres.Elapsed {
		t.Errorf("makespan diverged: %s %v, batched %v", engine, res.Elapsed, bres.Elapsed)
	}
	if info.Events != binfo.Events {
		t.Errorf("event count diverged: %s %d, batched %d", engine, info.Events, binfo.Events)
	}
	for i := range bres.Threads {
		if !reflect.DeepEqual(res.Threads[i], bres.Threads[i]) {
			t.Errorf("thread %d diverged:\n%s %+v\nbatched %+v", i, engine, res.Threads[i], bres.Threads[i])
		}
	}
	return info
}

// windowCases calls fn for the mpi-ws rows the engine differential adds to
// the matrix: the configurations where dispatching a window as a bag
// (DESIGN.md §9, "A window is a bag") could go wrong, each with the window
// the batched run must report.
func windowCases(fn func(name string, sp *uts.Spec, cfg Config, window time.Duration)) {
	// A window of 3 ns and a microsecond a KB: a quantum spans hundreds of
	// windows, so most events wait in the far heap, and the wake a bulky
	// message queued there moves out of it when a small one overtakes.
	fewNS := pgas.Model{Name: "few-ns", LocalRef: time.Nanosecond, RemoteRef: 3 * time.Nanosecond,
		PerKB: time.Microsecond, LockRTT: 30 * time.Nanosecond, NodeCost: 418 * time.Nanosecond}
	rows := []struct {
		name   string
		set    func(*Config)
		window time.Duration
	}{
		// Per-rank controllers fed with virtual stamps.
		{"adapt", func(c *Config) { c.Adapt = &policy.Config{} }, 4 * time.Microsecond},
		{"poll1", func(c *Config) { c.PollInterval = 1 }, 4 * time.Microsecond},
		{"poll32", func(c *Config) { c.PollInterval = 32 }, 4 * time.Microsecond},
		{"topsail", func(c *Config) { c.Model = &pgas.Topsail }, 5 * time.Microsecond},
		{"altix", func(c *Config) { c.Model = &pgas.Altix }, 600 * time.Nanosecond},
		{"few-ns", func(c *Config) { c.Model = &fewNS }, 3 * time.Nanosecond},
		// mpi-ws charges one cost model, Model, to every message; a node of
		// four with an Intra model only narrows the window to Intra's remote
		// reference.
		{"nodes-of-4", func(c *Config) { c.NodeSize, c.Intra = 4, &pgas.Altix }, 600 * time.Nanosecond},
		{"64pes", func(c *Config) { c.PEs = 64 }, 4 * time.Microsecond},
		{"256pes", func(c *Config) { c.PEs = 256 }, 4 * time.Microsecond},
	}
	for _, r := range rows {
		cfg := Config{Algorithm: core.MPIWS, PEs: 16, Chunk: 8, Model: &pgas.KittyHawk, Seed: 1}
		r.set(&cfg)
		fn("mpi-ws/t3-small/window/"+r.name, &uts.T3Small, cfg, r.window)
	}
}

// TestEngineDifferential proves the batched engine bit-identical to the
// legacy reference for every algorithm × tree × seed, and for the mpi-ws
// configurations where its windows could be wrong — a traced one included,
// whose merged event stream and Chrome JSON must be the reference's byte for
// byte.
func TestEngineDifferential(t *testing.T) {
	differentialCases(func(name string, sp *uts.Spec, cfg Config) {
		t.Run(name, func(t *testing.T) {
			bres, binfo, err := RunInfo(sp, cfg)
			if err != nil {
				t.Fatalf("batched: %v", err)
			}
			cfg.reference = true
			runSame(t, "legacy", sp, cfg, bres, binfo)
		})
	})
	windowCases(func(name string, sp *uts.Spec, cfg Config, window time.Duration) {
		t.Run(name, func(t *testing.T) {
			bres, binfo, err := RunInfo(sp, cfg)
			if err != nil {
				t.Fatalf("batched: %v", err)
			}
			if binfo.Lookahead != window {
				t.Errorf("dispatched in windows of %v, want %v", binfo.Lookahead, window)
			}
			cfg.reference = true
			runSame(t, "legacy", sp, cfg, bres, binfo)
		})
	})
	t.Run("mpi-ws/t3-small/window/traced", func(t *testing.T) {
		cfg := Config{Algorithm: core.MPIWS, PEs: 16, Chunk: 8, Model: &pgas.KittyHawk, Seed: 1}
		trace := func(reference bool) (*core.Result, Info, []obs.Event, []byte) {
			cfg.reference, cfg.Tracer = reference, obs.NewVirtual(cfg.PEs, 0)
			res, info, err := RunInfo(&uts.T3Small, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var chrome bytes.Buffer
			if err := obs.WriteChromeTrace(&chrome, cfg.Tracer); err != nil {
				t.Fatal(err)
			}
			return res, info, cfg.Tracer.Events(), chrome.Bytes()
		}
		bres, binfo, bevents, bchrome := trace(false)
		lres, _, levents, lchrome := trace(true)
		if binfo.Lookahead == 0 {
			t.Error("a traced mpi-ws run was not windowed")
		}
		if len(bevents) == 0 || !reflect.DeepEqual(bevents, levents) {
			t.Errorf("merged trace diverged: batched %d events, legacy %d", len(bevents), len(levents))
		}
		if !bytes.Equal(bchrome, lchrome) {
			t.Errorf("Chrome JSON diverged: batched %d bytes, legacy %d", len(bchrome), len(lchrome))
		}
		if lres.Elapsed != bres.Elapsed || !reflect.DeepEqual(lres.Threads, bres.Threads) {
			t.Error("traced run diverged from the reference")
		}
	})
}

// rawRun is everything a seeded raw workload leaves behind; all of it must
// come out bit-identical under every engine.
type rawRun struct {
	state  []int64   // per-PE counter partition, mutated through remote ops
	shared []int64   // per-PE-pair word, mutated under the pair's lock
	mail   [][]int64 // per-PE mailbox of delayed sends: (arrival stamp, value) pairs
	logs   [][]int64 // per-PE record of everything the PE observed
}

// buildRawWorkload spawns n PEs on s, each running rounds actions drawn from
// a stream seeded by (seed, PE): plain and stepped advances (some boundaries
// NoPoll), remote calls, immediate and delayed sends, two effects staged on
// one boundary, and lock sections shared with the neighbour PE. Every fourth
// PE is instead one stepped advance from spawn to finish (spawnStepped):
// random quanta, some NoPoll, some staging a read and an operation on other
// PEs, some opening a lock section on the neighbour's lock — the round trip,
// then take, then stepBlock until the holder hands it over, then handOver —
// against a neighbour that takes it with Acquire; ended by StepDone. The
// batched engine runs it in its dispatcher, the legacy reference on a
// coroutine. Durations come from a handful of values so that boundaries of
// different PEs keep falling on one instant.
func buildRawWorkload(s *Sim, seed int64, n, rounds int) *rawRun {
	const (
		opAdd = iota
		opRead
		opMax
		opMail
	)
	r := &rawRun{state: make([]int64, n), shared: make([]int64, n),
		mail: make([][]int64, n), logs: make([][]int64, n)}
	procs := make([]*Proc, n)
	locks := make([]Lock, n)
	// apply is the one remote operation of the workload: op against dst's
	// partition, returning what it held before.
	apply := func(dst int, op uint8, a, b int64) int64 {
		old := r.state[dst]
		switch op {
		case opAdd:
			r.state[dst] += a
		case opMax:
			r.state[dst] = max(old, a)
		case opMail: // sorted insert: order of application must not show
			m := r.mail[dst]
			i := 0
			for i < len(m) && (m[i] < a || (m[i] == a && m[i+1] < b)) {
				i += 2
			}
			r.mail[dst] = slices.Insert(m, i, a, b)
		}
		return old
	}
	// staged[i] is what PE i's boundary effect applies, and what it read.
	type rawOp struct {
		dst    int
		op     uint8
		a, res int64
	}
	staged := make([][2]rawOp, n)
	const hop = 100 * time.Nanosecond
	durs := []time.Duration{0, 1, 2, 3, hop / 2, hop}
	hops := []time.Duration{hop, hop + 1, 2 * hop}
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(seed<<8 + int64(i)))
		log := func(v ...int64) { r.logs[i] = append(r.logs[i], v...) }
		pick := func(ds []time.Duration) time.Duration { return ds[rng.Intn(len(ds))] }
		body := func(p *Proc) {
			for k := 0; k < rounds; k++ {
				dst, val := rng.Intn(n), int64(i<<20|k)
				switch rng.Intn(8) {
				case 0:
					p.Advance(pick(durs))
				case 1: // stepped advance
					quanta := make([]time.Duration, 1+rng.Intn(6))
					flags := make([]uint8, len(quanta))
					for j := range quanta {
						quanta[j] = pick(durs)
						flags[j] = uint8(rng.Intn(2)) * StepNoPoll
					}
					j := 0
					p.AdvanceStepped(func() (time.Duration, uint8) {
						if j == len(quanta) {
							return 0, StepDone
						}
						j++
						return quanta[j-1], flags[j-1]
					})
					log(int64(j))
				case 2: // remote call: the operation at the completion instant
					p.Advance(pick(hops))
					log(apply(dst, uint8(rng.Intn(4)), val, 0))
				case 3:
					p.Advance(pick(hops))
					apply(dst, uint8([]int{opAdd, opMax}[rng.Intn(2)]), val, 0)
				case 4: // delayed send, visible to dst from its stamp on
					adv, delay := pick(durs), pick(hops)
					p.Advance(adv)
					apply(dst, opMail, int64(p.Now()+delay), val)
				case 5: // two effects staged on one boundary, then one more quantum
					dst2, d, fl := rng.Intn(n), pick(hops), uint8(rng.Intn(2))*StepNoPoll
					op2, tail := uint8(rng.Intn(3)), pick(durs)
					j := 0
					p.AdvanceStepped(func() (time.Duration, uint8) {
						j++
						switch j {
						case 1:
							staged[i] = [2]rawOp{{dst: dst, op: opRead}, {dst: dst2, op: op2, a: val}}
							return p.Stage(d, 0), fl
						case 2:
							log(staged[i][0].res, staged[i][1].res)
							return tail, 0
						}
						return 0, StepDone
					})
					log(int64(j))
				case 6: // lock section with the neighbour PE
					if i^1 >= n {
						break
					}
					l, w := &locks[i&^1], &r.shared[i&^1]
					p.Acquire(l, pick(hops))
					v := *w
					p.Advance(pick(durs))
					*w = v*3 + int64(i)
					p.Release(l, pick(durs))
					log(v)
				case 7: // receive what has arrived
					m := r.mail[i]
					got := 0
					for got < len(m) && m[got] <= int64(p.Now()) {
						got += 2
					}
					log(m[:got]...)
					r.mail[i] = m[got:]
					r.state[i]++
				}
				log(int64(p.Now()))
			}
		}
		if i%4 == 3 {
			quanta, k, read := 1+rng.Intn(rounds), 0, false
			// The lock section: where it stands (0 none, 1 the acquisition's
			// round trip, 2 holding the lock, 3 leaving it) and what it read.
			l, w := &locks[i&^1], &r.shared[i&^1]
			section, held := 0, int64(0)
			procs[i] = s.spawnStepped(func() (time.Duration, uint8) {
				p := procs[i]
				if read { // what the effect staged on the last boundary saw
					log(staged[i][0].res, staged[i][1].res)
					read = false
				}
				log(int64(p.Now()))
				fl := uint8(rng.Intn(2)) * StepNoPoll
				switch section {
				case 1: // the round trip is over: hold the lock, or wait to be handed it
					section = 2
					if !p.take(l) {
						return 0, stepBlock
					}
					fallthrough
				case 2:
					section, held = 3, *w
					return pick(durs), fl
				case 3:
					section, *w = 0, held*3+int64(i)
					p.handOver(l)
					log(held)
					return pick(durs), fl
				}
				if k == quanta {
					return 0, StepDone
				}
				k++
				d := pick(durs)
				switch rng.Intn(4) {
				case 0:
					op := uint8([]int{opAdd, opMax}[rng.Intn(2)])
					staged[i] = [2]rawOp{{dst: rng.Intn(n), op: opRead}, {dst: rng.Intn(n), op: op, a: int64(i<<20 | k)}}
					read = true
					return p.Stage(d, 0), fl
				case 1:
					section = 1
					return pick(hops), fl
				}
				return d, fl
			}, func(p *Proc) { log(staged[i][0].res, staged[i][1].res, int64(k), int64(p.Now())) })
		} else {
			procs[i] = s.Spawn(body)
		}
		procs[i].effect = func() {
			for k := range staged[i] {
				o := &staged[i][k]
				o.res = apply(o.dst, o.op, o.a, 0)
			}
		}
	}
	return r
}

// TestEngineDifferentialRaw is the engine differential without a protocol on
// top: seeded raw workloads under the batched engine and under the legacy
// reference must leave bit-identical state, per-PE logs, event counts and
// makespans. A failure names its seed.
func TestEngineDifferentialRaw(t *testing.T) {
	const n, rounds, seeds = 16, 60, 20
	for seed := int64(0); seed < seeds; seed++ {
		var runs [2]*rawRun
		var sims [2]*Sim
		for i, e := range engines {
			sims[i] = e.new()
			runs[i] = buildRawWorkload(sims[i], seed, n, rounds)
			if err := sims[i].Run(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, e.name, err)
			}
		}
		b, l := sims[0], sims[1]
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("seed %d: state or per-PE logs diverged:\nbatched %+v\nlegacy  %+v", seed, runs[0], runs[1])
		}
		if b.Events() != l.Events() || b.Now() != l.Now() {
			t.Errorf("seed %d: batched %d events to %v, legacy %d to %v", seed, b.Events(), b.Now(), l.Events(), l.Now())
		}
	}
}

// TestShardedDifferential holds Config.Shards to what it is: a field that
// selects nothing. At every value the run is the batched engine's — the same
// Info, makespan and per-thread counters as the run with Shards 0 — over the
// whole differential matrix.
func TestShardedDifferential(t *testing.T) {
	differentialCases(func(name string, sp *uts.Spec, cfg Config) {
		bres, binfo, err := RunInfo(sp, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				cfg.Shards = shards
				if info := runSame(t, "shards", sp, cfg, bres, binfo); info != binfo {
					t.Errorf("%+v, want the Shards 0 run's %+v", info, binfo)
				}
			})
		}
	})
}

// TestShardedValidation covers the configuration ladder around
// Config.Shards: a negative count is an error, and every other — more shards
// than PEs, a zero-latency model, the lock-coupled shared-memory family, a
// windowed run, a diffusion-traced run — is the batched engine's run at
// Shards 0.
func TestShardedValidation(t *testing.T) {
	base := Config{Algorithm: core.UPCDistMem, PEs: 4, Model: &pgas.KittyHawk}
	neg := base
	neg.Shards = -1
	if _, _, err := RunInfo(&uts.BenchTiny, neg); err == nil {
		t.Error("negative shard count accepted")
	}
	for _, c := range []struct {
		name string
		set  func(*Config)
	}{
		{"more shards than PEs", func(c *Config) { c.Shards = 64 }},
		{"zero-latency model", func(c *Config) { c.Shards, c.Model = 2, &pgas.SharedMemory }},
		{"upc-term", func(c *Config) { c.Shards, c.Algorithm = 4, core.UPCTerm }},
		{"mpi-ws", func(c *Config) { c.Shards, c.Algorithm = 2, core.MPIWS }},
	} {
		cfg := base
		c.set(&cfg)
		_, info, err := RunInfo(&uts.BenchTiny, cfg)
		cfg.Shards = 0
		_, want, werr := RunInfo(&uts.BenchTiny, cfg)
		if err != nil || werr != nil {
			t.Errorf("%s: %v / %v", c.name, err, werr)
		} else if info != want || info.Engine != EngineBatched {
			t.Errorf("%s: ran %+v, want the batched engine's %+v", c.name, info, want)
		}
	}
	tr := base
	tr.Shards = 2
	_, got, err := RunTraced(&uts.BenchTiny, tr)
	if err != nil {
		t.Fatalf("traced run at two shards: %v", err)
	}
	tr.Shards = 0
	if _, want, _ := RunTraced(&uts.BenchTiny, tr); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run at two shards recorded %+v, at none %+v", got, want)
	}
}

// TestEveryNanosecondHasAState is the tier-1 piece of the lost-time
// identity: whatever a PE does with virtual time, it books it to one of its
// Figure-1 states, so the four state times of a PE add up to its own finish
// instant and the largest sum is the makespan — to the nanosecond, for every
// algorithm, under every engine. A sleep charged one poll too many or too
// few, or a quantum returned but not charged, shows here.
func TestEveryNanosecondHasAState(t *testing.T) {
	algos := []core.Algorithm{
		core.Static, core.UPCSharedMem, core.UPCTerm, core.UPCTermRapdif, core.UPCTermRelaxed,
		core.UPCDistMem, core.UPCDistMemHier, core.MPIWS,
	}
	engines := []struct {
		name string
		set  func(*Config)
	}{
		{"batched", func(*Config) {}},
		{"legacy", func(c *Config) { c.reference = true }},
	}
	for _, algo := range algos {
		for _, e := range engines {
			cfg := Config{Algorithm: algo, PEs: 16, Chunk: 8, Model: &pgas.KittyHawk, Seed: 1, ends: make([]time.Duration, 16)}
			e.set(&cfg)
			res, err := Run(&uts.T3Small, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, e.name, err)
			}
			var latest time.Duration
			for i := range res.Threads {
				var sum time.Duration
				for _, d := range res.Threads[i].InState {
					sum += d
				}
				if sum != cfg.ends[i] {
					t.Errorf("%s/%s: PE %d booked %v to its states and finished at %v", algo, e.name, i, sum, cfg.ends[i])
				}
				latest = max(latest, sum)
			}
			if latest != res.Elapsed {
				t.Errorf("%s/%s: the longest PE booked %v, the makespan is %v", algo, e.name, latest, res.Elapsed)
			}
		}
	}
}

// TestLockRingWraparoundFIFO drives the waiter ring directly through many
// interleaved enqueue/dequeue cycles so the head index wraps repeatedly and
// the buffer grows while partially drained; order must stay strictly FIFO.
func TestLockRingWraparoundFIFO(t *testing.T) {
	l := &Lock{}
	procs := make([]*Proc, 200)
	for i := range procs {
		procs[i] = &Proc{id: i}
	}
	next := 0 // next proc to enqueue
	want := 0 // next proc a FIFO dequeue must yield
	// Sawtooth fill levels: grow, drain low (wrapping head), grow larger.
	for _, step := range []struct{ in, out int }{
		{5, 3}, {6, 7}, {17, 10}, {30, 20}, {40, 58},
	} {
		for i := 0; i < step.in; i++ {
			l.enqueue(procs[next%len(procs)])
			next++
		}
		for i := 0; i < step.out; i++ {
			got := l.dequeue()
			if got != procs[want%len(procs)] {
				t.Fatalf("dequeue %d: got proc %d, want proc %d", want, got.id, procs[want%len(procs)].id)
			}
			want++
		}
	}
	if l.n != 0 {
		t.Fatalf("ring not drained: %d left", l.n)
	}
}

// TestLockFIFOUnderHeavyContention queues many simulated PEs behind one
// long-held lock and checks grants come back in exact arrival order.
func TestLockFIFOUnderHeavyContention(t *testing.T) {
	const waiters = 40
	s := New()
	l := &Lock{}
	var order []int
	s.Spawn(func(p *Proc) {
		p.Acquire(l, 1)
		p.Advance(10 * time.Microsecond) // hold while every waiter queues
		p.Release(l, 1)
	})
	for i := 0; i < waiters; i++ {
		i := i
		s.Spawn(func(p *Proc) {
			p.Advance(time.Duration(i+1) * 10 * time.Nanosecond) // distinct arrival instants
			p.Acquire(l, 1)
			order = append(order, i)
			p.Advance(5 * time.Nanosecond)
			p.Release(l, 1)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != waiters {
		t.Fatalf("got %d grants, want %d", len(order), waiters)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("grant %d went to waiter %d; order %v", i, got, order)
		}
	}
}

// gate skips t unless UTS_GATES=1 (`make gates`): the one switch every
// slow or wall-clock gate of the repo hides behind. DESIGN.md §17.
func gate(t *testing.T) {
	t.Helper()
	if os.Getenv("UTS_GATES") != "1" {
		t.Skip("set UTS_GATES=1 (or run `make gates`) to run this gate")
	}
}

// engines: the batched one and the legacy reference, for the benchmarks.
type engineLeg struct {
	name      string
	reference bool // Config.reference
	new       func() *Sim
}

var engines = []engineLeg{{EngineBatched, false, New}, {"legacy", true, newLegacy}}

// dispatchWorkload is pure dispatch: pes PEs each burn quanta interleaved
// 1-4ns stepped quanta with no tree or protocol work, so every cost is heap
// exchange, quantum accounting, and (legacy) a coroutine round trip per event.
func dispatchWorkload(sim *Sim, pes, quanta int) {
	for i := 0; i < pes; i++ {
		sim.Spawn(func(p *Proc) {
			n := 0
			p.AdvanceStepped(func() (time.Duration, uint8) {
				if n >= quanta {
					return 0, StepDone
				}
				n++
				return time.Duration(1 + (n & 3)), 0
			})
		})
	}
}

// TestEngineThroughputGate is the regression gate for the batched engine:
// the pure-dispatch workload must sustain at least 4x the event rate of
// the legacy reference. The measured ratio is 7.6–10.6x; the 4x floor leaves
// headroom for noisy CI runners while still catching any change that
// reintroduces per-event coroutine switches or per-event allocation.
func TestEngineThroughputGate(t *testing.T) {
	gate(t)
	run := func(newSim func() *Sim) float64 {
		sim := newSim()
		dispatchWorkload(sim, 64, 20000)
		start := time.Now()
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(sim.Events()) / time.Since(start).Seconds()
	}
	best := func(newSim func() *Sim) float64 {
		var b float64
		for i := 0; i < 3; i++ {
			if r := run(newSim); r > b {
				b = r
			}
		}
		return b
	}
	run(New) // warm the scheduler before timing anything
	batched, legacy := best(New), best(newLegacy)
	ratio := batched / legacy
	t.Logf("batched %.2fM events/s, legacy %.2fM events/s, ratio %.1fx",
		batched/1e6, legacy/1e6, ratio)
	if ratio < 4 {
		t.Errorf("batched engine dispatches at only %.1fx the legacy rate; want >= 4x", ratio)
	}
}

// TestEngineCountsPinned pins how the batched engine reaches its boundaries,
// not just how many: events that went through the queue (Info.Pops; the
// rest committed inline) and coroutine resumptions (Sim.handoffs: pure
// dispatch's Spawn bodies, two each; no simulated PE has a coroutine, so no
// row of a protocol run reports them), on pure dispatch and on two rows of
// the differential matrix. The counts are exact on any host, so an
// indirection added to the dispatcher shows here as an integer where a
// timing would drown it; the pure-dispatch and upc-distmem
// values are what the engine reported before the sharded engine came to
// share its dispatcher. The mpi-ws row was re-baselined once, when an idle
// rank stopped being an event stream (DESIGN.md §9): its 14,315 events did
// not move, but 8,408 of them are now polls counted at a wake instead of
// popped (Pops 12,379 → 3,731), and the rank's whole body is one step
// function inside the dispatcher, so a PE is resumed to start and to finish
// and never in between (Handoffs 2,632 → 32, two for each of 16 PEs). It was
// re-baselined a second time when a message run came to be dispatched one
// lookahead-wide window at a time (DESIGN.md §9, "A window is a bag"): events,
// counted polls and handoffs did not move, but a rank's boundary inside the
// current window commits inline instead of parking behind a root a few ns
// later (Pops 3,731 → 2,641), and a rank that slept before an earlier-landing
// message of the same window was delivered has its wake moved (Moved 0 →
// 168); Lookahead reports the window. The mpi-ws/sim_msgpoll row is the
// benchmark's configuration under the same rule: 3,131,451 events, 1,998,722
// counted and 512 handoffs as before the windows, Pops 837,898 → 532,857 and
// Moved 4 → 46,446. When a PE became a coroutine rather than a goroutine, no
// count moved; when a rank stopped being one — its step is the whole PE,
// started parked and finished by the dispatcher (Sim.spawnStepped) — only its
// two resumptions went (Handoffs 32 → 0 and 512 → 0). The upc-distmem row
// was re-baselined once too, when a searching PE stopped dispatching the probes no write can reach (DESIGN.md
// §9, "A probe is a read of a word with a history"): its 2,976 events and
// 441 handoffs did not move, 995 of the events are now probes counted at one
// of 144 wakes (Pops 2,940 → 1,909; 36 were and are inline). The 256-PE row
// is the benchmark's sim_onesided configuration, where a cycle is 255 probes
// and a sleep can span all of one: 399,666 events as ever, 282,957 of them
// counted at 8,300 wakes. When the UPC PEs became step functions too
// (core.Machine.Start), only their resumptions went: Handoffs 441 → 0 and,
// at 256 PEs, 13,312 → 0; no other count moved.
func TestEngineCountsPinned(t *testing.T) {
	if size := unsafe.Sizeof(ev{}); size > 24 {
		t.Errorf("a queued event is %d bytes, want at most 24", size)
	}
	// A Proc is whole cache lines, the first what every boundary reads — the
	// staged flag and the effect it runs included; everything a resumption or
	// a counted sleep needs lies behind it.
	var p Proc
	if size, hot := unsafe.Sizeof(p), unsafe.Offsetof(p.effect)+unsafe.Sizeof(p.effect); unsafe.Sizeof(uintptr(0)) == 8 &&
		(size%64 != 0 || hot != 64) {
		t.Errorf("a Proc is %d bytes with its boundary fields in 0..%d, want whole 64-byte lines and 0..64", size, hot)
	}
	check := func(name string, got, want Info) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
	}
	sim := New()
	dispatchWorkload(sim, 64, 2000)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	check("dispatchWorkload(64, 2000)", Info{Events: sim.events, Pops: sim.pops, Counted: sim.counted},
		Info{Events: 128064, Pops: 128064})
	if sim.handoffs != 128 {
		t.Errorf("dispatchWorkload(64, 2000): %d coroutine resumptions, want 128", sim.handoffs)
	}
	want := map[string]Info{
		"upc-distmem/t3-small/seed1": {Engine: EngineBatched, Events: 2976, Pops: 1909, Counted: 995,
			Wakes: Wakes{Word: 86, End: 56, Post: 2, Moved: 45}},
		"mpi-ws/t3-small/seed1": {Engine: EngineBatched, Events: 14315, Lookahead: 4 * time.Microsecond,
			Pops: 2641, Counted: 8408, Wakes: Wakes{Moved: 168}},
	}
	// The benchmark's two configurations and the mpi-ws smoke of DESIGN.md
	// §9 (uts-sim -alg mpi-ws -tree bench-small -pes 64: a rank loop that
	// grows a blocking wait moves its events), each with the identity row
	// the benchmark takes beside it (des.sharded2_*): at Shards 2 the run is
	// the batched engine's, the same counts and a result equal to Shards 0's.
	for _, row := range []struct {
		name string
		sp   *uts.Spec
		cfg  Config
		want Info
	}{
		{"upc-distmem/sim_onesided", &onesidedTree, Config{Algorithm: core.UPCDistMem, PEs: 256, Chunk: 16, Model: &pgas.KittyHawk, Seed: 1},
			Info{Engine: EngineBatched, Events: 399666, Pops: 116535, Counted: 282957,
				Wakes: Wakes{Word: 7296, End: 960, Post: 44, Moved: 6681}}},
		{"mpi-ws/sim_msgpoll", &onesidedTree, Config{Algorithm: core.MPIWS, PEs: 256, Chunk: 16, Model: &pgas.KittyHawk, PollInterval: 8, Seed: 1},
			Info{Engine: EngineBatched, Events: 3131451, Lookahead: 4 * time.Microsecond,
				Pops: 532857, Counted: 1998722, Wakes: Wakes{Moved: 46446}}},
		{"mpi-ws/bench-small/64", &uts.BenchSmall, Config{Algorithm: core.MPIWS, PEs: 64, Chunk: 16, Model: &pgas.KittyHawk, PollInterval: 8},
			Info{Engine: EngineBatched, Events: 305696, Lookahead: 4 * time.Microsecond,
				Pops: 53134, Counted: 190511, Wakes: Wakes{Moved: 4045}}},
	} {
		res, info, err := RunInfo(row.sp, row.cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(row.name, info, row.want)
		row.cfg.Shards = 2
		res2, info, err := RunInfo(row.sp, row.cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(row.name+" shards=2", info, row.want)
		if res2.Elapsed != res.Elapsed || !reflect.DeepEqual(res2.Threads, res.Threads) {
			t.Errorf("%s shards=2: the result differs from the Shards 0 run's", row.name)
		}
	}
	differentialCases(func(name string, sp *uts.Spec, cfg Config) {
		if w, ok := want[name]; ok {
			_, info, err := RunInfo(sp, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(name, info, w)
			delete(want, name)
		}
	})
	if len(want) != 0 {
		t.Errorf("rows missing from the differential matrix: %v", want)
	}
}

// TestSteppedPEsStartNoGoroutine: every simulated PE is a step function —
// an mpi-ws rank, a static PE, and the Figure-1 machine of each UPC
// algorithm — with no coroutine, so a run of 512 of them starts no
// goroutine. The count is read where each PE's finish runs, at the boundary
// of its last step, and must not exceed the count before the run: a
// goroutine an earlier test left behind may exit mid-run, and only one the
// run started reads higher.
func TestSteppedPEsStartNoGoroutine(t *testing.T) {
	for _, algo := range []core.Algorithm{
		core.MPIWS, core.Static, core.UPCSharedMem, core.UPCTerm, core.UPCTermRapdif, core.UPCTermRelaxed,
		core.UPCDistMem, core.UPCDistMemHier,
	} {
		cfg := Config{Algorithm: algo, PEs: 512}.withDefaults()
		res := &core.Result{}
		res.Threads = make([]stats.Thread, cfg.PEs)
		sim := New()
		before, most := runtime.NumGoroutine(), 0
		finish := func(*Proc) { most = max(most, runtime.NumGoroutine()) }
		if err := spawnPEs(sim, &uts.T3Small, cfg, newCosts(cfg.Model), res, nil, &Wakes{}, nil, finish); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if most > before || sim.handoffs != 0 {
			t.Errorf("%s at %d PEs: %d goroutines inside the run, %d before it; %d coroutine resumptions",
				algo, cfg.PEs, most, before, sim.handoffs)
		}
	}
}

// BenchmarkSimDispatch is the pure engine microbenchmark, the number the
// batched rewrite targets; BenchmarkSimEngine shows the same ratio diluted
// by the simulation's real node-expansion work.
func BenchmarkSimDispatch(b *testing.B) {
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			b.ReportAllocs()
			sim := e.new()
			dispatchWorkload(sim, 64, b.N/64+1)
			if err := sim.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sim.Events())/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// benchSim simulates cfg b.N times. Every engine executes the identical
// event sequence (the differentials prove it), so events/s isolates engine
// overhead: heap handling, coroutine resumptions, allocation.
func benchSim(b *testing.B, sp *uts.Spec, cfg Config) {
	b.ReportAllocs()
	var events uint64
	var steals int64
	for i := 0; i < b.N; i++ {
		res, info, err := RunInfo(sp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += info.Events
		steals += res.Sum(func(t *stats.Thread) int64 { return t.Steals })
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(steals)/float64(b.N), "steals/run")
}

// BenchmarkSimEngine compares the batched engine against the legacy
// reference on the same mid-scale configuration.
func BenchmarkSimEngine(b *testing.B) {
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			benchSim(b, &uts.T3Small, Config{Algorithm: core.UPCDistMem, PEs: 64, Chunk: 8,
				Model: &pgas.KittyHawk, reference: e.reference})
		})
	}
}

// BenchmarkSimSteal stresses the steal path: chunk 1 under rapid diffusion
// makes nearly every explored node a protocol interaction, so request
// service and the lock waiter ring dominate instead of batched work.
func BenchmarkSimSteal(b *testing.B) {
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			benchSim(b, &uts.BenchTiny, Config{Algorithm: core.UPCTermRapdif, PEs: 16, Chunk: 1,
				Model: &pgas.KittyHawk, reference: e.reference})
		})
	}
}
