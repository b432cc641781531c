package des

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// TestNegativePollAndNodeSizeRejected: des.run mirrors core's option
// validation, so the same bad input is an error on both substrates
// instead of a silently odd simulation. The node size is the simulator's
// own option.
func TestNegativePollAndNodeSizeRejected(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Algorithm: core.MPIWS, PEs: 4, PollInterval: -1}, "negative poll interval -1"},
		{Config{Algorithm: core.UPCDistMemHier, PEs: 4, NodeSize: -2}, "negative node size -2"},
	} {
		_, err := Run(&uts.BenchTiny, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: got error %v, want one containing %q", tc.cfg, err, tc.want)
		}
		if tc.cfg.NodeSize != 0 {
			continue // the goroutine substrate has no node topology to reject
		}
		copt := core.Options{Algorithm: tc.cfg.Algorithm, Threads: 2, PollInterval: tc.cfg.PollInterval}
		if _, cerr := core.Run(&uts.BenchTiny, copt); cerr == nil {
			t.Errorf("core accepts what des rejects: %+v", copt)
		}
	}
}

// TestAllocationsPerRun is core's test of the same name on the virtual
// clock: a simulated PE releases through the same shell, so a run at k = 1
// allocates for its set-up, its events' growth and a buffer per pooled
// chunk, not once a release (nodes/2 ≈ 31,800 on this tree).
func TestAllocationsPerRun(t *testing.T) {
	const bound = 6000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(&uts.BenchSmall, Config{Algorithm: core.UPCDistMem, PEs: 8, Chunk: 1, Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var releases int64
	for i := range res.Threads {
		releases += res.Threads[i].Releases
	}
	if releases < 5*bound {
		t.Fatalf("only %d releases: the run no longer releases at every other node", releases)
	}
	if n := after.Mallocs - before.Mallocs; n > bound {
		t.Errorf("%d allocations in a run of %d releases, want at most %d", n, releases, bound)
	} else {
		t.Logf("%d allocations, %d releases, %d nodes", n, releases, res.Nodes())
	}
}

// TestEpisodeAllocationsPinned counts the objects a fixed run allocates,
// one row a hot path of the engine: a search episode and a termination wait
// keep their state in the machine (core.Machine), a probe cycle's table is
// sized once, the heap, a parked slot, the probe sleep, the windowed
// calendar, a counted sleep and its wake, and a lock's take and hand-over
// allocate nothing per event, so a run's objects are its set-up, its pooled
// chunks and its stacks' and queues' growth. Each row's count is the least
// of three runs (the first warms the tree's stream up) and its bound that
// count and 3 %: on go1.24 the rows read 1,275, 1,040 and 1,315, and an
// object added per event, per episode or per lock section is thousands over
// its bound. With a walk and three closures allocated per search episode the
// upc-distmem row read 6,093. The race detector's runtime adds about a
// hundred objects of its own to each row (1,374, 1,142 and 1,410, as
// steady), so a race build holds each row to its own count and 3 %.
func TestEpisodeAllocationsPinned(t *testing.T) {
	for _, tc := range []struct {
		alg                      core.Algorithm
		events, bound, raceBound uint64
	}{
		{core.UPCDistMem, 53134, 1313, 1415}, // the heap, a parked slot, the probe sleep
		{core.MPIWS, 290177, 1071, 1176},     // the calendar, counted sleeps, Notify and wake
		{core.UPCTerm, 48335, 1354, 1452},    // simPE.acquire, stepBlock, handOver
	} {
		bound := tc.bound
		if raceEnabled {
			bound = tc.raceBound
		}
		cfg := Config{Algorithm: tc.alg, PEs: 64, Seed: 1}
		least := uint64(1 << 62)
		for i := 0; i < 4; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, info, err := RunInfo(&uts.BenchSmall, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Nodes() != 63575 || info.Events != tc.events {
				t.Fatalf("%s: run counted %d nodes in %d events, want 63575 in %d", tc.alg, res.Nodes(), info.Events, tc.events)
			}
			if n := after.Mallocs - before.Mallocs; i > 0 && n < least {
				least = n
			}
		}
		if least > bound {
			t.Errorf("bench-small, %s, 64 PEs allocated %d objects, want at most %d", tc.alg, least, bound)
		} else {
			t.Logf("%s: %d objects", tc.alg, least)
		}
	}
}

// TestWorkingEdges drives a bare simulated PE over bench-tiny one quantum
// at a time against a shadow PE stepped a node at a time, which says where
// WallPE.Working's edges fall: Surplus the node the stack reaches 2k (never
// at k = 0), Yielded after exactly batch nodes, Drained on an empty stack.
// A quantum is its nodes' work, booked to the current state, and the lane's
// live count is flushed at Drained and Yielded but not at Surplus, whose
// release follows at the same instant.
func TestWorkingEdges(t *testing.T) {
	for _, tc := range []struct {
		batch, k int
		yields   bool // some quantum ends at Yielded
	}{{8, 4, true}, {3, 2, true}, {8, 1, false}, {8, 0, true}, {1, 0, true}} {
		edges := walkWorking(t, tc.batch, tc.k)
		if (edges[core.Surplus] > 0) != (tc.k > 0) || (edges[core.Yielded] > 0) != tc.yields || edges[core.Drained] == 0 {
			t.Errorf("batch %d, k %d: edges %v", tc.batch, tc.k, edges)
		}
	}
}

// walkWorking explores bench-tiny to its end through simPE.working, releasing
// k nodes at Surplus and reacquiring the newest chunk at Drained, and counts
// the edges it met.
func walkWorking(t *testing.T, batch, k int) map[core.Edge]int {
	const nodeCost = 3 * time.Nanosecond
	sp := &uts.BenchTiny
	res := &core.Result{}
	res.Threads = make([]stats.Thread, 1)
	pe := newSimPE(sp, Config{Tracer: obs.NewVirtual(1, 0)}, res, nil, 0)
	var shadowT stats.Thread
	shadow := core.NewPE(sp, &shadowT, nil, nil)
	pe.Local.Push(uts.Root(sp))
	shadow.Local.Push(uts.Root(sp))
	var pool, shadowPool []stack.Chunk
	edges := map[core.Edge]int{}
	for {
		nodes, live, booked := pe.T.Nodes, pe.Lane.LiveNodes(), pe.T.InState[stats.Working]
		d, edge := pe.working(batch, k, nodeCost)
		edges[edge]++

		want, n := core.Yielded, 1
		for ; ; n++ {
			if shadow.Visit(1) == 0 {
				want, n = core.Drained, n-1
				break
			}
			if k > 0 && shadow.Local.Len() >= 2*k {
				want = core.Surplus
				break
			}
			if n >= batch {
				break
			}
		}
		if edge != want || pe.T.Nodes-nodes != int64(n) {
			t.Fatalf("batch %d, k %d: edge %d after %d nodes, want %d after %d",
				batch, k, edge, pe.T.Nodes-nodes, want, n)
		}
		if d != time.Duration(n)*nodeCost || pe.T.InState[stats.Working]-booked != d {
			t.Fatalf("batch %d, k %d: quantum %v, booked %v, want %v for %d nodes",
				batch, k, d, pe.T.InState[stats.Working]-booked, time.Duration(n)*nodeCost, n)
		}
		wantLive := pe.T.Nodes
		if edge == core.Surplus {
			wantLive = live
		}
		if got := pe.Lane.LiveNodes(); got != wantLive {
			t.Fatalf("batch %d, k %d: live count %d at edge %d, want %d", batch, k, got, edge, wantLive)
		}

		switch edge {
		case core.Surplus:
			pool = append(pool, pe.Release(k))
			shadowPool = append(shadowPool, shadow.Release(k))
		case core.Drained:
			last := len(pool) - 1
			if last < 0 {
				if pe.T.Nodes != 3337 {
					t.Fatalf("batch %d, k %d: %d nodes, want bench-tiny's 3337", batch, k, pe.T.Nodes)
				}
				return edges
			}
			pe.Reacquired(pool[last])
			shadow.Reacquired(shadowPool[last])
			pool, shadowPool = pool[:last], shadowPool[:last]
		}
	}
}
