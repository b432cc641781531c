package core

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// traverse drives a shell through a whole tree the way a wall-clock work
// loop does — a visit may take what is left until the next flush — flushing
// every flushEvery nodes, and returns the node count. strict holds every
// visit to one node, the simulator's order.
func traverse(pe *PE, sp *uts.Spec, flushEvery int, strict bool) int64 {
	pe.Local.Push(uts.Root(sp))
	since := 0
	for {
		most := flushEvery - since
		if strict {
			most = 1
		}
		n := pe.Visit(most)
		if n == 0 {
			break
		}
		if since += n; since >= flushEvery {
			since = 0
			pe.FlushNodes()
		}
	}
	pe.FlushNodes()
	return pe.T.Nodes
}

// TestShellNilHooksAreNoOps: with no lane and no controller the shell is
// the bare traversal — exact counts, fixed knobs, and no method touches a
// hook.
func TestShellNilHooksAreNoOps(t *testing.T) {
	sp := &uts.BenchTiny
	want := uts.SearchSequential(sp)
	var th stats.Thread
	pe := NewPE(sp, &th, nil, nil)
	pe.NoteCtl(1)
	pe.StealBegin(2)
	pe.Stolen = 9
	pe.StealEnd(true, 3)
	traverse(&pe, sp, 64, false)
	pe.NoteCtl(4)
	if th.Nodes != want.Nodes || th.Leaves != want.Leaves {
		t.Errorf("shell traversal counted %d nodes / %d leaves, sequential %d / %d", th.Nodes, th.Leaves, want.Nodes, want.Leaves)
	}
	if th.MaxStackDepth == 0 {
		t.Error("Visit never noted a stack depth")
	}
	if got := pe.Ctl.Chunk(16); got != 16 {
		t.Errorf("Chunk(16) = %d without a controller", got)
	}
	if pe.Visit(1) != 0 || pe.Visit(YieldEvery) != 0 {
		t.Error("Visit reported a node on an empty stack")
	}
	if th.Nodes != want.Nodes {
		t.Error("Visit on an empty stack changed the counters")
	}

	w := WallPE{PE: pe}
	if w.Now() != 0 {
		t.Error("a fixed-knob WallPE read the clock")
	}
}

// TestShellFlushPublishesEachNodeOnce: whatever the flush cadence, the
// lane's live counter ends equal to the thread's node count — no node
// published twice, none dropped, and a second flush adds nothing.
func TestShellFlushPublishesEachNodeOnce(t *testing.T) {
	sp := &uts.BenchTiny
	for _, every := range []int{1, 7, 64, 1 << 20} {
		lane := obs.New(1, 0).Lane(0)
		var th stats.Thread
		pe := NewPE(sp, &th, lane, nil)
		n := traverse(&pe, sp, every, every == 7)
		if got := lane.LiveNodes(); got != n {
			t.Errorf("flush every %d: lane counted %d nodes, thread %d", every, got, n)
		}
		pe.FlushNodes()
		if got := lane.LiveNodes(); got != n {
			t.Errorf("flush every %d: an empty flush moved the counter to %d", every, got)
		}
	}
}

// TestShellChunkFollowsController: the fixed value is only the fallback.
func TestShellChunkFollowsController(t *testing.T) {
	set := policy.NewSet(&policy.Config{}, policy.Base{Chunk: 5}, 1)
	var th stats.Thread
	pe := NewPE(&uts.BenchTiny, &th, nil, set.Controller(0))
	if got := pe.Ctl.Chunk(16); got != 5 {
		t.Errorf("Chunk(16) = %d under a controller based at 5", got)
	}
}

// TestShellHotPathAllocatesNothing pins the per-node and per-quantum
// methods at zero allocations with a live lane and a live controller.
func TestShellHotPathAllocatesNothing(t *testing.T) {
	sp := &uts.BenchTiny
	lane := obs.New(1, 0).Lane(0)
	// An hour-long window never closes.
	set := policy.NewSet(&policy.Config{Window: time.Hour}, policy.Base{Chunk: 16}, 2)
	var th stats.Thread
	pe := NewPE(sp, &th, lane, set.Controller(1))
	traverse(&pe, sp, 64, false) // grow the stack once
	root := uts.Root(sp)
	for _, most := range []int{1, YieldEvery} {
		if n := testing.AllocsPerRun(2000, func() {
			if pe.Visit(most) == 0 {
				pe.Local.Push(root)
			}
		}); n != 0 {
			t.Errorf("Visit(%d): %v allocs/op", most, n)
		}
	}
	if n := testing.AllocsPerRun(2000, func() {
		pe.T.Nodes++
		pe.FlushNodes()
	}); n != 0 {
		t.Errorf("FlushNodes: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(2000, func() {
		pe.T.Nodes++
		pe.NoteCtl(1)
	}); n != 0 {
		t.Errorf("NoteCtl: %v allocs/op", n)
	}
	// The release/reacquire pair, traced on either clock: the buffer the
	// reacquire recycles is the one the next release fills.
	chunk := make(stack.Chunk, 16)
	for _, virt := range []func() time.Duration{nil, func() time.Duration { return 7 }} {
		pe.Virt = virt
		if n := testing.AllocsPerRun(2000, func() {
			pe.Released(1)
			pe.Reacquired(chunk)
			chunk = pe.Release(len(chunk))
		}); n != 0 {
			t.Errorf("Released+Reacquired (virtual clock: %v): %v allocs/op", virt != nil, n)
		}
	}
}

// TestShellWorkMovementBooks: each work-movement event moves exactly its
// counters, and a landed steal keeps its first chunk and hands back the
// rest.
func TestShellWorkMovementBooks(t *testing.T) {
	set := policy.NewSet(&policy.Config{Window: time.Hour}, policy.Base{Chunk: 16}, 1)
	var th stats.Thread
	pe := NewPE(&uts.BenchTiny, &th, nil, set.Controller(0))
	pe.Released(3)
	pe.Reacquired(make(stack.Chunk, 4))
	pe.Granted(2, 1)
	pe.Denied(2)
	rest := pe.Landed(1, []stack.Chunk{make(stack.Chunk, 2), make(stack.Chunk, 3)})
	got := [6]int64{th.Releases, th.Reacquires, th.Requests, th.Steals, th.ChunksGot, int64(pe.Local.Len())}
	if want := [6]int64{1, 1, 2, 1, 2, 4 + 2}; got != want {
		t.Errorf("releases/reacquires/requests/steals/chunksGot/depth = %v, want %v", got, want)
	}
	if len(rest) != 1 || len(rest[0]) != 3 || pe.Stolen != 5 {
		t.Errorf("Landed returned %d chunks, Stolen = %d; want the second chunk back and 5 nodes", len(rest), pe.Stolen)
	}
}

// TestStackStructsPadded: the per-thread structs that hold the words
// other threads probe are whole cache lines, so two threads' structs never
// share one whatever the allocator's alignment. So is a pgas.Lock, and a
// worker's per-node words start a line past whatever precedes the worker.
func TestStackStructsPadded(t *testing.T) {
	if n := unsafe.Sizeof(pgas.Lock{}); n%cacheLine != 0 {
		t.Errorf("pgas.Lock is %d bytes, not a multiple of %d: adjust its pad", n, cacheLine)
	}
	if off := unsafe.Offsetof(WallPE{}.PE); off < cacheLine {
		t.Errorf("WallPE.PE starts at byte %d, less than a cache line (%d) into the worker", off, cacheLine)
	}
	// Go's allocator starts an object whose size class is a multiple of the
	// line on a line (256, 320, 384 bytes) and every other one of the classes
	// between (288, 416) in the middle of one. Workers 16 bytes larger than
	// these read real_coarse 2 % lower in 9 of 10 pairs (272-byte distWorker)
	// or, padded on to 320, real_fine's cpu_s_per_mnode 2.7 % higher in 10 of
	// 10: the work loop's two words live in the leading pad.
	for i, n := range []uintptr{unsafe.Sizeof(distWorker{}), unsafe.Sizeof(sharedWorker{}), unsafe.Sizeof(mpiWorker{})} {
		if n%cacheLine != 0 {
			t.Errorf("worker %d (dist, shared, mpi) is %d bytes, not a multiple of %d: WallPE has grown", i, n, cacheLine)
		}
	}
	if n := unsafe.Sizeof(sharedStack{}); n%cacheLine != 0 {
		t.Errorf("sharedStack is %d bytes, not a multiple of %d: adjust its pad", n, cacheLine)
	}
	if n := unsafe.Sizeof(privStack{}); n%cacheLine != 0 {
		t.Errorf("privStack is %d bytes, not a multiple of %d: adjust its pad", n, cacheLine)
	}
}

// ledgerShapes are the benchmark's two tree families (benchmark/workloads.go:
// root fan-out 2000, binary interior, just subcritical), at the root seed
// its tree search settles on: ~1.7 M SHA-1 nodes, ~0.3 M ALFG nodes.
var ledgerShapes = []uts.Spec{
	{Name: "brg", Kind: uts.Binomial, Seed: 1449485361, B0: 2000, M: 2, Q: 0.4995, RNG: "BRG"},
	{Name: "alfg", Kind: uts.Binomial, Seed: 1449485361, B0: 2000, M: 2, Q: 0.497, RNG: "ALFG"},
}

// BenchmarkVisit is the traversal layer's number: ns per node through the
// shell's node kernel, one PE, no scheduler around it — with a yield
// interval's room a visit, what a wall-clock worker gives it, and (-strict)
// one node a visit, what the simulator gives it — and beside it (-seq) the
// sequential loop's on the same tree. The first over the last is what the
// parallel node kernel costs over the sequential one (DESIGN.md §7).
func BenchmarkVisit(b *testing.B) {
	perNode := func(b *testing.B, nodes int64) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
	}
	for i := range ledgerShapes {
		sp := &ledgerShapes[i]
		for _, strict := range []bool{false, true} {
			name := sp.Name
			if strict {
				name += "-strict"
			}
			b.Run(name, func(b *testing.B) {
				var th stats.Thread
				pe := NewPE(sp, &th, nil, nil)
				for i := 0; i < b.N; i++ {
					traverse(&pe, sp, YieldEvery, strict)
				}
				perNode(b, th.Nodes)
			})
		}
		b.Run(sp.Name+"-seq", func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				nodes += uts.SearchSequential(sp).Nodes
			}
			perNode(b, nodes)
		})
	}
}

// pollCounter is a rank's transport that notes, at every Recv, how many
// nodes the rank has explored since the last one and how far its live
// counter — flushed at every yield — lags behind.
type pollCounter struct {
	*msg.Comm
	w               *mpiWorker
	atLastRecv      int64
	recvs           int
	maxPoll, maxLag int64
}

func (c *pollCounter) Recv(me int) (msg.Message, bool) {
	nodes := c.w.T.Nodes
	c.recvs++
	c.maxPoll = max(c.maxPoll, nodes-c.atLastRecv)
	c.maxLag = max(c.maxLag, nodes-c.w.Lane.LiveNodes())
	c.atLastRecv = nodes
	return c.Comm.Recv(me)
}

// askingStream is BRG with a thief in it: every 50th spawn stores one into
// word if the word is clear, and notes the node count at that moment — a
// request that arrives in the middle of a visit.
type askingStream struct {
	rng.BRG
	word   *atomic.Int32
	nodes  *int64
	spawns *int
	asked  *int64
}

func (a askingStream) Spawn(s *rng.State, i int) rng.State {
	if *a.spawns++; *a.spawns%50 == 0 && a.word.Load() < 0 {
		*a.asked = *a.nodes
		a.word.Store(1)
	}
	return a.BRG.Spawn(s, i)
}

// workingLeg runs a whole tree through WallPE.Working as a scripted UPC
// family — a pool, a release granularity (fixedK, or ctl's), and with
// thieves a request word — and holds every edge to the state it was
// returned in. A thief is stored into the word at every third edge and, with
// midVisit, by the stream in the middle of a visit.
func workingLeg(t *testing.T, sp *uts.Spec, fixedK int, ctl *policy.Controller, thieves, midVisit bool) {
	lane := obs.New(1, 0).Lane(0)
	var th stats.Thread
	w := WallPE{PE: NewPE(sp, &th, lane, ctl)}
	var word *atomic.Int32 // nil: the shared-memory family
	if thieves {
		word = new(atomic.Int32)
		word.Store(noThief)
	}
	spawns, asked := 0, int64(0) // asked: th.Nodes when the waiting thief was stored
	late := int64(0)             // the most nodes a visit can count after its thief was stored
	if midVisit {
		w.st = askingStream{word: word, nodes: &th.Nodes, spawns: &spawns, asked: &asked}
		late = 1 // a stream other than BRG is visited a node at a time
	}
	w.Local.Push(uts.Root(sp))
	var pool stack.Pool
	var atYield int64
	yields, pendings, kChanges, lastK := 0, 0, 0, 0
	for edges := 1; ; edges++ {
		before, waiting := th.Nodes, thieves && word.Load() >= 0
		e := w.Working(fixedK, word)
		visited, depth, k := th.Nodes-before, w.Local.Len(), w.K()
		if lag := th.Nodes - lane.LiveNodes(); lag > YieldEvery+uts.FrontierScan {
			t.Fatalf("edge %d: the live counter is %d nodes behind", edges, lag)
		}
		if lastK == 0 {
			lastK = k
		}
		if visited > 0 && (e == Surplus) != (depth >= 2*lastK) { // a yield's new k has judged no visit yet
			t.Fatalf("edge %d is %d (Surplus is %d) after a visit that left %d nodes, k = %d", edges, e, Surplus, depth, lastK)
		}
		if k != lastK {
			if kChanges++; e != Yielded {
				t.Fatalf("edge %d: K went %d -> %d across edge %d, not a yield", edges, lastK, k, e)
			}
		}
		if lastK = k; ctl == nil && k != fixedK || ctl != nil && e == Yielded && k != ctl.Chunk(fixedK) {
			t.Fatalf("edge %d: K() = %d", edges, k)
		}
		// A thief waiting when the call began is reported before any visit (a
		// yield that is due comes first); one that arrived during a visit
		// has seen that visit end, no more.
		if waiting && (e != Pending && e != Yielded || visited != 0) || thieves && word.Load() >= 0 && th.Nodes-asked > late {
			t.Fatalf("edge %d is %d (Pending is %d), %d nodes into the call, with a thief stored %d nodes ago (before the call: %v)",
				edges, e, Pending, visited, th.Nodes-asked, waiting)
		}
		switch e {
		case Pending:
			if !thieves || word.Load() < 0 {
				t.Fatalf("edge %d: Pending and nobody asked", edges)
			}
			pendings++
			word.Store(noThief)
		case Surplus:
			pool.Put(w.Release(k))
			w.Released(pool.Len())
		case Drained:
			if depth != 0 {
				t.Fatalf("edge %d: Drained with %d nodes on the stack", edges, depth)
			}
			c, ok := pool.TakeNewest()
			if !ok {
				w.FlushNodes()
				if want := uts.SearchSequential(sp); th.Nodes != want.Nodes || th.Leaves != want.Leaves {
					t.Errorf("%d nodes / %d leaves, sequential %d / %d", th.Nodes, th.Leaves, want.Nodes, want.Leaves)
				}
				if int64(yields) < th.Nodes/(YieldEvery+uts.FrontierScan) || thieves && pendings < edges/4 || ctl != nil && kChanges == 0 {
					t.Errorf("%d yields, %d Pending edges, %d changes of K over %d nodes and %d edges: the script checked nothing",
						yields, pendings, kChanges, th.Nodes, edges)
				}
				return
			}
			w.Reacquired(c)
		case Yielded:
			if since := th.Nodes - atYield; since < YieldEvery || since > YieldEvery+uts.FrontierScan || lane.LiveNodes() != th.Nodes {
				t.Fatalf("edge %d: a yield %d nodes after the last, %d of %d flushed", edges, since, lane.LiveNodes(), th.Nodes)
			}
			atYield = th.Nodes
			yields++
		}
		if thieves && edges%3 == 0 && word.Load() < 0 {
			asked = th.Nodes
			word.Store(2)
		}
	}
}

// TestWallClockCadencesCountNodes: a visit may take many nodes, and the
// cadences of a wall-clock worker are defined in nodes — every worker yields,
// flushes and checks for an abandoned run every YieldEvery (WallPE.Explore), a
// UPC worker looks at its request word before every visit and releases at 2k
// (WallPE.Working, the Working loop of distmem, sharedmem and the cluster),
// mpi-ws polls its queue every PollInterval (the paper's tuning parameter).
// The UPC legs script a family around Working, see workingLeg. Then a lone
// mpi-ws rank runs a whole tree over a counting transport: never more than
// the interval between two Recv calls, never more than YieldEvery plus one
// frontier unflushed.
func TestWallClockCadencesCountNodes(t *testing.T) {
	sp := &uts.BenchSmall
	for _, k := range []int{1, 16} {
		workingLeg(t, sp, k, nil, false, false)
		workingLeg(t, sp, k, nil, true, false)
		workingLeg(t, sp, k, nil, true, true)
	}
	// A controller whose every window closes at the next yield, started
	// from a k no stack of this tree reaches twice: it adapts by itself.
	set := policy.NewSet(&policy.Config{Window: 1}, policy.Base{Chunk: 64}, 1)
	workingLeg(t, sp, 3, set.Controller(0), false, false)

	for _, poll := range []int{1, 8, 100} {
		comm, err := msg.NewComm(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var th stats.Thread
		count := &pollCounter{Comm: comm}
		w := &mpiWorker{WallPE: WallPE{PE: NewPE(sp, &th, obs.New(1, 0).Lane(0), nil)}, comm: count}
		count.w = w
		w.rank = MsgRank{H: w, PE: &w.PE, Rng: NewProbeOrder(1, 0), N: 1, Chunk: 16, Poll: poll}
		w.Local.Push(uts.Root(sp))
		w.Start()
		w.Steps(w.rank.Start())
		w.Stop()
		if want := uts.SearchSequential(sp); th.Nodes != want.Nodes || th.Leaves != want.Leaves {
			t.Fatalf("poll %d: %d nodes / %d leaves, sequential %d / %d", poll, th.Nodes, th.Leaves, want.Nodes, want.Leaves)
		}
		if count.maxPoll > int64(poll) || int64(count.recvs) < th.Nodes/int64(poll) {
			t.Errorf("poll interval %d: %d nodes between two polls at most, %d polls over %d nodes", poll, count.maxPoll, count.recvs, th.Nodes)
		}
		if count.maxLag > YieldEvery+uts.FrontierScan || count.maxLag < min(int64(poll), YieldEvery)/2 {
			t.Errorf("poll interval %d: %d nodes unflushed at most, want at most YieldEvery %d + one frontier %d (and a yield cadence at all)",
				poll, count.maxLag, YieldEvery, uts.FrontierScan)
		}
	}
}
