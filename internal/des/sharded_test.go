package des

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pgas"
	"repro/internal/stack"
	"repro/internal/uts"
)

// buildRemoteWorkload spawns a synthetic workload exercising every remote
// primitive — inline advances, cross-PE calls, fire-and-forget sends, and
// staged boundary reads inside a stepped advance — against a per-PE
// counter partition. It returns the state array and a per-PE log of
// observed call results, both of which must come out bit-identical under
// every engine.
func buildRemoteWorkload(s *Sim, n, rounds int, la time.Duration) (*[]int64, *[][]int64) {
	state := make([]int64, n)
	logs := make([][]int64, n)
	s.SetRemote(func(dst int, op uint8, a, b int64, _ []stack.Chunk) int64 {
		old := state[dst]
		switch op {
		case 0: // fetch-and-add
			state[dst] += a
		case 1: // read
		case 2: // max
			if a > state[dst] {
				state[dst] = a
			}
		}
		return old
	})
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.Advance(time.Duration(1 + (i+k)%3))
				got := p.RemoteCall((i+1+k)%n, la, 0, int64(i*1000+k), 0)
				logs[i] = append(logs[i], got)
				p.RemoteSend((i+3+k)%n, la, 0, 2, int64(k*7+i), 0, nil)
				if k%4 == 0 {
					step := 0
					p.AdvanceStepped(func() (time.Duration, uint8) {
						step++
						if step > 2 {
							return 0, StepDone
						}
						d := p.StageRemote((i+5)%n, la, 1, 0, 0)
						return d, StepNoPoll
					})
					logs[i] = append(logs[i], p.StagedResult(0))
				}
			}
		})
	}
	return &state, &logs
}

// TestShardedMatchesBatchedRaw drives the synthetic remote workload under
// the batched engine and under the sharded engine at several shard counts,
// demanding bit-identical state, per-PE result logs, event counts, and
// makespans — the raw-engine half of the determinism story (the protocol
// half is TestShardedDifferential in run_test territory).
func TestShardedMatchesBatchedRaw(t *testing.T) {
	const n, rounds = 16, 40
	const la = 100 * time.Nanosecond

	ref := New()
	refState, refLogs := buildRemoteWorkload(ref, n, rounds, la)
	if err := ref.Run(); err != nil {
		t.Fatalf("batched: %v", err)
	}

	for _, shards := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := NewSharded(shards, la)
			state, logs := buildRemoteWorkload(s, n, rounds, la)
			if err := s.Run(); err != nil {
				t.Fatalf("sharded: %v", err)
			}
			if !reflect.DeepEqual(*state, *refState) {
				t.Errorf("state diverged:\nsharded %v\nbatched %v", *state, *refState)
			}
			if !reflect.DeepEqual(*logs, *refLogs) {
				t.Errorf("per-PE call results diverged")
			}
			if s.Events() != ref.Events() {
				t.Errorf("event count diverged: sharded %d, batched %d", s.Events(), ref.Events())
			}
			if s.Now() != ref.Now() {
				t.Errorf("makespan diverged: sharded %v, batched %v", s.Now(), ref.Now())
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
// one.
func TestShardedDifferential(t *testing.T) {
	differentialCases(func(name string, sp *uts.Spec, cfg Config) {
		bres, binfo, err := RunInfo(sp, cfg)
		if err != nil {
			t.Fatalf("%s batched: %v", name, err)
		}
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				cfg.Shards = shards
				if info := runSame(t, "sharded", sp, cfg, bres, binfo); info.Engine != EngineSharded {
					t.Errorf("engine %q, want %q", info.Engine, EngineSharded)
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
	zl.Shards = 1
	if _, _, err := RunInfo(&uts.BenchTiny, zl); err != nil {
		t.Errorf("zero-latency model rejected at one shard: %v", err)
	}

	// Shard count is capped at PEs, and the shared-memory family is
	// forced to a single shard.
	cap := base
	cap.Shards = 64
	_, info, err := RunInfo(&uts.BenchTiny, cap)
	if err != nil {
		t.Fatalf("capped run: %v", err)
	}
	if info.Shards != 4 {
		t.Errorf("shard count %d, want capped at 4 PEs", info.Shards)
	}
	shm := base
	shm.Algorithm = core.UPCSharedMem
	shm.Shards = 4
	_, info, err = RunInfo(&uts.BenchTiny, shm)
	if err != nil {
		t.Fatalf("shared-memory run: %v", err)
	}
	if info.Shards != 1 {
		t.Errorf("shared-memory family ran with %d shards, want 1", info.Shards)
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
// 1, 2, 4 and 8 shard goroutines, so events/s shows how well
// conservative-lookahead synchronization converts cores into dispatch
// throughput. On a single-core runner the variants tie — compare across
// shard counts only on a machine with that many idle cores.
func BenchmarkSimSharded(b *testing.B) {
	for _, shards := range []int{0, 1, 2, 4, 8} {
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
