package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pgas"
	"repro/internal/stack"
	"repro/internal/uts"
)

// rawShardCounts are the shard counts the raw differential runs at.
var rawShardCounts = []int{1, 2, 3, 4, 8}

// rawRun is everything a seeded raw workload leaves behind; all of it must
// come out bit-identical under every engine and shard count.
type rawRun struct {
	state  []int64   // per-PE counter partition, mutated through remote ops
	shared []int64   // per-PE-pair word, mutated under the pair's lock
	mail   [][]int64 // per-PE mailbox of delayed sends: (arrival stamp, value) pairs
	logs   [][]int64 // per-PE record of everything the PE observed
}

// buildRawWorkload spawns n PEs on s, each running rounds actions drawn from
// a stream seeded by (seed, PE): plain and stepped advances (NoPoll
// boundaries, ended early by interrupts other PEs post), rendezvous calls,
// immediate and delayed sends, two boundary reads staged in one quantum, and
// lock sections shared with the neighbour PE. Durations come from a handful
// of values so that boundaries of different PEs keep falling on one instant.
// The script never depends on the engine: every cross-PE effect is a remote
// operation at least la away, delayed sends are visible by their stamp only,
// lock partners share a shard at every count in rawShardCounts, and every PE
// ends at one late instant so that no effect is still in flight.
func buildRawWorkload(s *Sim, seed int64, n, rounds int, la time.Duration) *rawRun {
	const (
		opAdd = iota
		opRead
		opMax
		opPost
		opMail
	)
	r := &rawRun{state: make([]int64, n), shared: make([]int64, n),
		mail: make([][]int64, n), logs: make([][]int64, n)}
	procs := make([]*Proc, n)
	locks := make([]Lock, n)
	s.SetRemote(func(dst int, op uint8, a, b int64, _ []stack.Chunk) int64 {
		old := r.state[dst]
		switch op {
		case opAdd:
			r.state[dst] += a
		case opMax:
			r.state[dst] = max(old, a)
		case opPost:
			procs[dst].Post(Intr(1) << (a & 3))
		case opMail: // sorted insert: order of application must not show
			m := r.mail[dst]
			i := 0
			for i < len(m) && (m[i] < a || (m[i] == a && m[i+1] < b)) {
				i += 2
			}
			r.mail[dst] = slices.Insert(m, i, a, b)
		}
		return old
	})
	paired := func(i int) bool { // i and i^1 share a shard at every tested count
		for _, sc := range rawShardCounts {
			if i*sc/n != (i^1)*sc/n {
				return false
			}
		}
		return i^1 < n
	}
	durs := []time.Duration{0, 1, 2, 3, la / 2, la}
	hops := []time.Duration{la, la + 1, 2 * la}
	end := time.Duration(rounds) * 40 * la
	for i := 0; i < n; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed<<8 + int64(i)))
		procs[i] = s.Spawn(func(p *Proc) {
			log := func(v ...int64) { r.logs[i] = append(r.logs[i], v...) }
			pick := func(ds []time.Duration) time.Duration { return ds[rng.Intn(len(ds))] }
			for k := 0; k < rounds; k++ {
				dst, val := rng.Intn(n), int64(i<<20|k)
				switch rng.Intn(8) {
				case 0:
					p.Advance(pick(durs))
				case 1: // stepped advance; a posted interrupt may end it early
					quanta := make([]time.Duration, 1+rng.Intn(6))
					flags := make([]uint8, len(quanta))
					for j := range quanta {
						quanta[j] = pick(durs)
						flags[j] = uint8(rng.Intn(2)) * StepNoPoll
					}
					j := 0
					m := p.AdvanceStepped(func() (time.Duration, uint8) {
						if j == len(quanta) {
							return 0, StepDone
						}
						j++
						return quanta[j-1], flags[j-1]
					})
					log(int64(m), int64(j))
				case 2:
					log(p.RemoteCall(dst, pick(hops), uint8(rng.Intn(4)), val, 0))
				case 3:
					p.RemoteSend(dst, pick(hops), 0, uint8([]int{opAdd, opMax, opPost}[rng.Intn(3)]), val, 0, nil)
				case 4: // delayed send, visible to dst from its stamp on
					adv, delay := pick(durs), pick(hops)
					p.RemoteSend(dst, adv, delay, opMail, int64(p.Now()+adv+delay), val, nil)
				case 5: // two ops staged on one boundary, then one more quantum
					dst2, d, fl := rng.Intn(n), pick(hops), uint8(rng.Intn(2))*StepNoPoll
					op2, tail := uint8(rng.Intn(3)), pick(durs)
					j := 0
					m := p.AdvanceStepped(func() (time.Duration, uint8) {
						j++
						switch j {
						case 1:
							p.StageRemote(dst, d, opRead, 0, 0)
							return p.StageRemote(dst2, d, op2, val, 0), fl
						case 2:
							log(p.StagedResult(0), p.StagedResult(1))
							return tail, 0
						}
						return 0, StepDone
					})
					log(int64(m), int64(j))
				case 6: // lock section with the neighbour PE
					if !paired(i) {
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
			p.Advance(end + time.Duration(i) - p.Now())
		})
	}
	return r
}

// TestShardedMatchesBatchedRaw drives seeded raw workloads under the batched
// engine and under the sharded engine at several shard counts, demanding
// bit-identical state, per-PE logs, event counts, and makespans — the
// raw-engine half of the determinism story (the protocol half is
// TestShardedDifferential). A failure names its seed: put it first in the
// loop to replay it.
func TestShardedMatchesBatchedRaw(t *testing.T) {
	const n, rounds, seeds = 16, 60, 20
	const la = 100 * time.Nanosecond

	refs := make([]*rawRun, seeds)
	sims := make([]*Sim, seeds)
	for seed := range refs {
		sims[seed] = New()
		refs[seed] = buildRawWorkload(sims[seed], int64(seed), n, rounds, la)
		if err := sims[seed].Run(); err != nil {
			t.Fatalf("seed %d batched: %v", seed, err)
		}
	}
	for _, shards := range rawShardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed, ref := range refs {
				s := NewSharded(shards, la)
				got := buildRawWorkload(s, int64(seed), n, rounds, la)
				if err := s.Run(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("seed %d: state or per-PE logs diverged:\nsharded %+v\nbatched %+v", seed, got, ref)
				}
				if s.Events() != sims[seed].Events() {
					t.Errorf("seed %d: event count diverged: sharded %d, batched %d", seed, s.Events(), sims[seed].Events())
				}
				if s.Now() != sims[seed].Now() {
					t.Errorf("seed %d: makespan diverged: sharded %v, batched %v", seed, s.Now(), sims[seed].Now())
				}
			}
		})
	}
}

// TestShardedEqualHorizonsNoDeadlock is the null-message regression: two
// shards advancing in perfect lockstep issue rendezvous calls at each
// other at exactly equal virtual instants, so at every exchange both
// shards' horizons are equal. Conservative engines that gate on "peer
// horizon strictly greater" livelock here; ours promises t+L > t for both
// sides, so the run must complete — and with both clocks agreeing.
func TestShardedEqualHorizonsNoDeadlock(t *testing.T) {
	const la = 50 * time.Nanosecond
	const rounds = 200
	s := NewSharded(2, la)
	state := [2]int64{}
	s.SetRemote(func(dst int, op uint8, a, b int64, _ []stack.Chunk) int64 {
		state[dst]++
		return state[dst]
	})
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn(func(p *Proc) {
			for k := 0; k < rounds; k++ {
				// Both PEs stand at the same instant and call across.
				p.RemoteCall(1-i, la, 0, 0, 0)
			}
		})
	}
	go func() {
		defer close(done)
		if err := s.Run(); err != nil {
			t.Errorf("run: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sharded run deadlocked with equal horizons")
	}
	if state[0] != rounds || state[1] != rounds {
		t.Fatalf("lost calls: state %v, want %d each", state, rounds)
	}
	if got, want := s.Now(), time.Duration(rounds)*la; got != want {
		t.Fatalf("makespan %v, want %v", got, want)
	}
}

// TestShardedProtocolDeadlockReported checks that a genuine protocol
// deadlock — every PE blocked with nothing in flight — is reported as an
// error rather than hanging the engine, mirroring the sequential engines'
// drained-queue diagnostics.
func TestShardedProtocolDeadlockReported(t *testing.T) {
	s := NewSharded(2, time.Microsecond)
	s.SetRemote(func(dst int, op uint8, a, b int64, _ []stack.Chunk) int64 { return 0 })
	var blocked atomic.Int32
	for i := 0; i < 2; i++ {
		s.Spawn(func(p *Proc) {
			p.Advance(time.Duration(1+p.ID()) * time.Microsecond)
			blocked.Add(1)
			p.Block() // nobody will ever Wake us
		})
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.Run() }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("expected a deadlock error, got nil")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock went undetected")
	}
	if blocked.Load() != 2 {
		t.Fatalf("only %d PEs reached the blocking point", blocked.Load())
	}
}

// TestShardedDifferential extends the engine differential to the sharded
// engine: for every configuration of the batched/legacy matrix, the
// sharded engine must reproduce the batched result bit-identically at
// every tested shard count. This is the acceptance property of the
// parallel engine: shard count is a parallelism knob, never a semantic
// one. One effective shard — asked for, or all the lock-coupled
// shared-memory family ever gets — is the batched engine itself.
func TestShardedDifferential(t *testing.T) {
	differentialCases(func(name string, sp *uts.Spec, cfg Config) {
		bres, binfo, err := RunInfo(sp, cfg)
		if err != nil {
			t.Fatalf("%s batched: %v", name, err)
		}
		_, lockCoupled := core.SharedVariants[cfg.Algorithm]
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				cfg.Shards = shards
				want := Info{Engine: EngineSharded, Shards: shards}
				if shards == 1 || lockCoupled {
					want = Info{Engine: EngineBatched}
				}
				if info := runSame(t, "sharded", sp, cfg, bres, binfo); info.Engine != want.Engine || info.Shards != want.Shards {
					t.Errorf("engine %q with %d shards, want %q with %d", info.Engine, info.Shards, want.Engine, want.Shards)
				}
			})
		}
	})
}

// TestShardedValidation covers the configuration ladder around
// Config.Shards.
func TestShardedValidation(t *testing.T) {
	base := Config{Algorithm: core.UPCDistMem, PEs: 4, Model: &pgas.KittyHawk}

	neg := base
	neg.Shards = -1
	if _, _, err := RunInfo(&uts.BenchTiny, neg); err == nil {
		t.Error("negative shard count accepted")
	}

	zl := base
	zl.Shards = 2
	zl.Model = &pgas.SharedMemory
	if _, _, err := RunInfo(&uts.BenchTiny, zl); err == nil {
		t.Error("zero-latency model accepted with multiple shards")
	}

	// Shard count is capped at PEs.
	cap := base
	cap.Shards = 64
	_, info, err := RunInfo(&uts.BenchTiny, cap)
	if err != nil {
		t.Fatalf("capped run: %v", err)
	}
	if info.Engine != EngineSharded || info.Shards != 4 {
		t.Errorf("%s engine with %d shards, want sharded and capped at 4 PEs", info.Engine, info.Shards)
	}

	// One effective shard is the batched engine: asked for (and then no
	// lookahead is demanded of the model), left by the cap at PEs, or all
	// the lock-coupled shared-memory family ever gets.
	one := base
	one.Shards = 1
	capped := base
	capped.Shards, capped.PEs = 4, 1
	shm := base
	shm.Shards, shm.Algorithm = 4, core.UPCTerm
	zl.Shards = 1
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"shards=1", one}, {"one PE", capped}, {"upc-term", shm}, {"zero-latency model", zl}} {
		_, info, err := RunInfo(&uts.BenchTiny, c.cfg)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if info.Engine != EngineBatched || info.Shards != 0 || info.Lookahead != 0 {
			t.Errorf("%s: ran %+v, want the batched engine", c.name, info)
		}
	}

	// Traced runs sample global state and need a single shard.
	if _, _, err := RunTraced(&uts.BenchTiny, base, 0); err == nil {
		t.Error("zero trace interval accepted")
	}
	tr := base
	tr.Shards = 2
	if _, _, err := RunTraced(&uts.BenchTiny, tr, time.Millisecond); err == nil {
		t.Error("traced run accepted with multiple shards")
	}
	tr.Shards = 1
	if _, _, err := RunTraced(&uts.BenchTiny, tr, time.Millisecond); err != nil {
		t.Errorf("traced run rejected at one shard: %v", err)
	}
}

// BenchmarkSimSharded measures parallel dispatch scaling of the sharded
// engine: the same mid-scale distributed-memory simulation dispatched by
// 2, 4 and 8 shard goroutines, so events/s shows how well
// conservative-lookahead synchronization converts cores into dispatch
// throughput. On a single-core runner the variants tie — compare across
// shard counts only on a machine with that many idle cores.
func BenchmarkSimSharded(b *testing.B) {
	for _, shards := range []int{0, 2, 4, 8} {
		name := "batched" // shards == 0: the sequential baseline
		if shards > 0 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			benchSim(b, &uts.T3Small, Config{Algorithm: core.UPCDistMem, PEs: 256, Chunk: 8,
				Model: &pgas.KittyHawk, Shards: shards})
		})
	}
}
