package cluster

import (
	"errors"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// faultCfg is the timing profile the failure tests run under: deadlines
// short enough that detecting a dead peer takes milliseconds, not the
// production 5s defaults.
func faultCfg(sp *uts.Spec, chunk int, plan *FaultPlan) Config {
	return Config{
		Spec: sp, Chunk: chunk, Fault: plan,
		RPCTimeout:   250 * time.Millisecond,
		RPCRetries:   1,
		StatsTimeout: 3 * time.Second,
		DialTimeout:  5 * time.Second,
	}
}

// stealTree is the tree of every test whose scenario needs a steal to
// happen: sized by node count, not by hope. Two ranks take ~15 ms over
// bench-medium's 481599 nodes on a SHA-NI host (four times that on the
// portable kernel), against ~0.2 ms from the end of bootstrap to a thief's
// first CAS; bench-small (63575 nodes, ~4 ms) is too close to that for a
// steal to be certain.
var stealTree = &uts.BenchMedium

const stealTreeNodes, stealTreeLeaves = 481599, 241049

// launchFaulty runs an in-process cluster where ranks are allowed — even
// expected — to fail. It returns rank 0's result (nil when rank 0 itself
// failed), every rank's error and, per rule of base.Fault, how many times
// it fired over all ranks; it fails the test if the cluster does not wind
// down within deadline: bounded completion under faults is the property
// every test here is ultimately asserting.
func launchFaulty(t *testing.T, n int, base Config, deadline time.Duration) (*stats.Run, map[int]error, []int) {
	t.Helper()
	ready := make(chan string, 1)
	type rankDone struct {
		rank int
		run  *stats.Run
		err  error
	}
	results := make(chan rankDone, n)
	nodes := make([]*node, n)
	launch := func(r int, coord string, coordReady chan<- string) {
		cfg := base
		cfg.Rank, cfg.Ranks, cfg.Coord, cfg.CoordReady = r, n, coord, coordReady
		nodes[r] = testNode(t, cfg)
		go func() {
			run, err := nodes[r].run()
			results <- rankDone{r, run, err}
		}()
	}

	launch(0, "127.0.0.1:0", ready)
	select {
	case coord := <-ready:
		for r := 1; r < n; r++ {
			launch(r, coord, nil)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never came up")
	}

	var run *stats.Run
	errs := make(map[int]error, n)
	timer := time.After(deadline)
	for got := 0; got < n; got++ {
		select {
		case d := <-results:
			errs[d.rank] = d.err
			if d.rank == 0 {
				run = d.run
			}
		case <-timer:
			t.Fatalf("cluster did not wind down within %v: %d of %d ranks finished (hang)", deadline, got, n)
		}
	}
	if base.Fault == nil {
		return run, errs, nil
	}
	fired := make([]int, len(base.Fault.Rules))
	for _, nd := range nodes {
		if nd.faults == nil {
			continue
		}
		nd.faults.mu.Lock()
		for _, st := range nd.faults.rules {
			for i, r := range base.Fault.Rules {
				if st.FaultRule == r {
					fired[i] += st.fired
				}
			}
		}
		nd.faults.mu.Unlock()
	}
	return run, errs, fired
}

// requireFired stops a test whose fault never happened (or happened some
// other number of times than intended) before it reads a verdict off a run
// that was not the scenario: want[i] is how often rule i must have fired,
// anyTimes for an uncapped rule that must have fired at all.
func requireFired(t *testing.T, fired []int, want ...int) {
	t.Helper()
	for i, w := range want {
		if fired[i] == 0 {
			t.Fatalf("fault never fired: rule %d was armed and found nothing to fire on", i)
		}
		if w != anyTimes && fired[i] != w {
			t.Fatalf("fault rule %d fired %d times, want %d", i, fired[i], w)
		}
	}
}

const anyTimes = -1

// TestFaultKillMidStealFourRanks is the headline degradation scenario: a
// 4-rank run where rank 2 is killed in the middle of a steal (right as it
// issues the CAS claiming a victim's request word). The survivors must
// detect the death, shrink the termination barrier, and rank 0 must return
// partial stats naming rank 2 — all within a bounded deadline.
//
// Because rank 2 dies before its first steal ever completes, it never
// holds any work, so the survivors still explore the whole tree: the
// counts match the fault-free run exactly.
func TestFaultKillMidStealFourRanks(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 2, Peer: -1, Side: ClientSide, Kind: int(kindCASRequest), Op: FaultKill},
	}}
	run, errs, fired := launchFaulty(t, 4, faultCfg(stealTree, 8, plan), 60*time.Second)
	requireFired(t, fired, 1)

	if !errors.Is(errs[2], errKilled) {
		t.Errorf("rank 2 exited with %v, want errKilled", errs[2])
	}
	for _, r := range []int{0, 1, 3} {
		if errs[r] != nil {
			t.Errorf("surviving rank %d failed: %v", r, errs[r])
		}
	}
	if run == nil {
		t.Fatal("rank 0 produced no result")
	}
	if len(run.FailedRanks) != 1 || run.FailedRanks[0] != 2 {
		t.Errorf("FailedRanks = %v, want [2]", run.FailedRanks)
	}
	if len(run.SuspectedRanks) != 1 || run.SuspectedRanks[0] != 2 {
		t.Errorf("SuspectedRanks = %v, want [2]: the coordinator saw the death verdict", run.SuspectedRanks)
	}
	if run.Nodes() != stealTreeNodes || run.Leaves() != stealTreeLeaves {
		t.Errorf("counts = (%d, %d), want the full tree (%d, %d): the victim died before holding work",
			run.Nodes(), run.Leaves(), stealTreeNodes, stealTreeLeaves)
	}
}

// requireHealthyExactRun asserts the strongest outcome a fault test can
// demand: every rank exited cleanly, the full tree was counted exactly
// once, and the run carries no degradation annotations — no missing
// stats and no death verdicts, true or false.
func requireHealthyExactRun(t *testing.T, run *stats.Run, errs map[int]error, nodes, leaves int64) {
	t.Helper()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d failed: %v", r, err)
		}
	}
	if run == nil {
		t.Fatal("rank 0 produced no result")
	}
	if run.Nodes() != nodes || run.Leaves() != leaves {
		t.Errorf("counts = (%d, %d), want exactly (%d, %d)", run.Nodes(), run.Leaves(), nodes, leaves)
	}
	if len(run.FailedRanks) != 0 {
		t.Errorf("FailedRanks = %v, want none", run.FailedRanks)
	}
	if len(run.SuspectedRanks) != 0 {
		t.Errorf("SuspectedRanks = %v, want none: no false death verdicts", run.SuspectedRanks)
	}
}

// TestFaultSeverMidSteal severs the connection right as rank 0's progress
// engine would hand stolen chunks to rank 1. The handoff entry in service
// is settled as not delivered (the response never left the process), so
// it stays on the ledger and the reclaim sweep returns it to rank 0's
// pool — rank 0 cannot reach the barrier in between; the thief
// books a failed steal without a death verdict, because rank 0 still
// answers its confirmation probe over a fresh connection. One severed
// connection therefore costs one steal — not a peer, not a subtree: the
// run completes with exact counts and no degradation annotations.
func TestFaultSeverMidSteal(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 0, Peer: -1, Side: ServerSide, Kind: int(kindGetChunks), Op: FaultSever, Times: 1},
	}}
	run, errs, fired := launchFaulty(t, 2, faultCfg(stealTree, 4, plan), 30*time.Second)
	requireFired(t, fired, 1)
	requireHealthyExactRun(t, run, errs, stealTreeNodes, stealTreeLeaves)
}

// TestFaultSeverEverySteal severs every chunk fetch rank 0 serves, so each
// steal of the run strands its grant and the sweep brings it home, again
// and again, down to the last chunks of the tree — where a victim that
// finds its pool empty looks at the ledger on its way into the barrier.
// An entry that is off the ledger while its reply is being (not) sent would
// let it through, and the run would print a clean, short count. Rank 1
// never receives a node; rank 0 explores the whole tree.
func TestFaultSeverEverySteal(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 0, Peer: -1, Side: ServerSide, Kind: int(kindGetChunks), Op: FaultSever},
	}}
	run, errs, fired := launchFaulty(t, 2, faultCfg(stealTree, 4, plan), 30*time.Second)
	requireFired(t, fired, anyTimes)
	requireHealthyExactRun(t, run, errs, stealTreeNodes, stealTreeLeaves)
	if steals := run.Sum(func(th *stats.Thread) int64 { return th.Steals }); steals != 0 {
		t.Errorf("%d steals landed although every fetch was severed", steals)
	}
}

// TestFaultDropPutResponse makes the victim's steal grant vanish in
// flight: rank 0 reserves work in its handoff table, writes the response
// toward the thief, and the bytes never arrive. The victim's PutResponse
// times out, its confirmation probe finds the thief alive (no death
// verdict), and the reserved chunks come back out of the handoff table
// into the pool; the thief's own response wait expires, its probe finds
// the victim alive, and it simply retries later. Both ranks finish, the
// tree is counted exactly once, and nothing is marked failed or suspect.
func TestFaultDropPutResponse(t *testing.T) {
	t.Parallel() // mostly a wait (main_test.go)
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 0, Peer: -1, Side: ClientSide, Kind: int(kindPutResponse), Op: FaultDrop, Times: 1},
	}}
	run, errs, fired := launchFaulty(t, 2, faultCfg(stealTree, 4, plan), 30*time.Second)
	requireFired(t, fired, 1)
	requireHealthyExactRun(t, run, errs, stealTreeNodes, stealTreeLeaves)
}

// TestFaultLostGetChunksReclaimed is the review's headline lost-work
// scenario: the thief's chunk fetch vanishes in flight after the
// victim's PutResponse succeeded, so a granted reservation sits in the
// victim's handoff table with a thief that has already given up. The
// victim's age-based reclaim sweep must take the entry back into its
// pool — without it, the subtree is never explored, yet every rank
// reports stats and the run prints a clean summary with a silently
// wrong node count.
func TestFaultLostGetChunksReclaimed(t *testing.T) {
	t.Parallel() // mostly a wait (main_test.go)
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 1, Peer: -1, Side: ClientSide, Kind: int(kindGetChunks), Op: FaultDrop, Times: 1},
	}}
	run, errs, fired := launchFaulty(t, 2, faultCfg(stealTree, 4, plan), 30*time.Second)
	requireFired(t, fired, 1)
	requireHealthyExactRun(t, run, errs, stealTreeNodes, stealTreeLeaves)
}

// TestFaultKillBeforeBarrier kills rank 3 as it tries to enter the
// termination barrier. The barrier must complete over the surviving
// membership instead of waiting forever for a rank that will never arrive.
func TestFaultKillBeforeBarrier(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 3, Peer: -1, Side: ClientSide, Kind: int(kindBarrierEnter), Op: FaultKill},
	}}
	run, errs, fired := launchFaulty(t, 4, faultCfg(&uts.BenchTiny, 4, plan), 60*time.Second)
	requireFired(t, fired, 1)

	if !errors.Is(errs[3], errKilled) {
		t.Errorf("rank 3 exited with %v, want errKilled", errs[3])
	}
	for _, r := range []int{0, 1, 2} {
		if errs[r] != nil {
			t.Errorf("surviving rank %d failed: %v", r, errs[r])
		}
	}
	if run == nil {
		t.Fatal("rank 0 produced no result")
	}
	if len(run.FailedRanks) != 1 || run.FailedRanks[0] != 3 {
		t.Errorf("FailedRanks = %v, want [3]", run.FailedRanks)
	}
	if len(run.SuspectedRanks) != 1 || run.SuspectedRanks[0] != 3 {
		t.Errorf("SuspectedRanks = %v, want [3]", run.SuspectedRanks)
	}
}

// TestFaultKillMidBootstrap kills a rank before its hello reaches the
// coordinator: bootstrap must fail on every rank within the dial-timeout
// window — a bounded, descriptive error, not a hang.
func TestFaultKillMidBootstrap(t *testing.T) {
	t.Parallel() // mostly a wait (main_test.go)
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 2, Peer: -1, Side: ClientSide, Kind: int(kindHello), Op: FaultKill},
	}}
	cfg := faultCfg(&uts.BenchTiny, 4, plan)
	cfg.DialTimeout = 2 * time.Second
	run, errs, fired := launchFaulty(t, 3, cfg, 30*time.Second)
	requireFired(t, fired, 1)

	if run != nil {
		t.Error("rank 0 produced a result from a cluster that never finished bootstrapping")
	}
	if errs[0] == nil {
		t.Error("coordinator bootstrap succeeded with a rank missing")
	}
	if !errors.Is(errs[2], errKilled) {
		t.Errorf("rank 2 exited with %v, want errKilled", errs[2])
	}
}

// TestFaultServiceWithdrawsOnDeadThief drives the victim-side steal
// service directly against a thief that accepts the connection and never
// answers: the PutResponse must time out, the reserved chunks must come
// back out of the handoff table into the pool, and the request word must
// clear — with the worker reporting no error, because a dead thief is the
// thief's problem.
func TestFaultServiceWithdrawsOnDeadThief(t *testing.T) {
	t.Parallel() // mostly a wait (main_test.go)
	n := testNode(t, Config{
		Rank: 0, Ranks: 2, Chunk: 4,
		RPCTimeout: 100 * time.Millisecond, RPCRetries: -1,
	})
	n.addrs = []string{"", silentPeer(t)} // the thief accepts and stays silent
	w := &clusterWorker{n: n, me: 0}

	work := make(stack.Chunk, 4)
	for i := 0; i < 3; i++ {
		w.pool.Put(append(stack.Chunk(nil), work...))
	}
	before := w.pool.Len()
	n.workAvail.Store(int32(before))
	n.reqWord.Store(1) // rank 1 claims a steal, then never listens

	if err := w.service(); err != nil {
		t.Fatalf("service returned %v; a dead thief must not fail the victim", err)
	}
	if got := w.pool.Len(); got != before {
		t.Errorf("pool has %d chunks after the take-back, want %d (reserved work leaked)", got, before)
	}
	if pending := n.handoff.Pending(); pending != 0 {
		t.Errorf("%d handoff entries left behind", pending)
	}
	if n.reqWord.Load() != -1 {
		t.Error("request word still claimed after the failed response")
	}
	if !n.isDead(1) {
		t.Error("unresponsive thief was not marked dead")
	}
}

// reclaimNode builds a node + worker pair with one reserved handoff
// entry granted to thief, returning both and the entry's handle.
func reclaimNode(t *testing.T, thief int32) (*node, *clusterWorker, uint64) {
	t.Helper()
	n := testNode(t, Config{Rank: 0, Ranks: 3, Chunk: 4})
	w := &clusterWorker{n: n, me: 0}
	h := n.handoff.reserve([]stack.Chunk{make(stack.Chunk, 4)}, thief)
	return n, w, h
}

// fetch plays a thief's GetChunks for handle h through the progress
// engine's handler and returns the chunks the reply carries.
func fetch(t *testing.T, n *node, h uint64) []stack.Chunk {
	t.Helper()
	req := request{Kind: kindGetChunks, Handle: h}
	var resp response
	if _, ok := n.handleRequest(&req, &resp); !ok {
		t.Fatal("chunk fetch dropped the connection")
	}
	return resp.Chunk
}

// eventually polls cond, for as long as a loaded host can reasonably need.
func eventually(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
	}
}

// TestHandoffReclaimDeadThief: a reservation whose thief this rank has
// declared dead comes back into the pool on the next sweep; a fresh
// entry with a live thief does not.
func TestHandoffReclaimDeadThief(t *testing.T) {
	n, w, _ := reclaimNode(t, 2)
	if w.reclaim() {
		t.Fatal("reclaim took back a fresh entry whose thief is alive")
	}
	n.markDead(2)
	if !w.reclaim() {
		t.Fatal("reclaim skipped an entry whose thief is dead")
	}
	if got := w.pool.Len(); got != 1 {
		t.Errorf("pool has %d chunks after reclaim, want 1", got)
	}
	if n.handoff.Pending() != 0 {
		t.Error("handoff table still non-empty after reclaim")
	}
	if wa := n.workAvail.Load(); wa != 1 {
		t.Errorf("workAvail = %d after reclaim, want 1 (reclaimed work must be stealable)", wa)
	}
}

// TestWallClockCadencesClusterYield: the rank's own share of the yield edge
// of core.WallPE.Working — sweep the handoff table, then look at the kill
// flag, once per yield interval. A reservation stranded at a dead thief comes
// home during Work and is explored with the rest; a killed rank leaves Work
// within one interval, the sweep done first.
func TestWallClockCadencesClusterYield(t *testing.T) {
	for _, killed := range []bool{false, true} {
		n, w, _ := reclaimNode(t, 2) // four nodes, leaves all, reserved for rank 2
		n.markDead(2)
		n.killed.Store(killed)
		w.WallPE = core.WallPE{PE: core.NewPE(n.cfg.Spec, &n.t, nil, nil)}
		w.Local.Push(uts.Root(n.cfg.Spec))
		w.Work()
		if n.handoff.Pending() != 0 {
			t.Errorf("killed %v: the reservation was never swept", killed)
		}
		if !killed {
			if want := uts.SearchSequential(n.cfg.Spec).Nodes + 4; w.err != nil || n.t.Nodes != want || w.pool.Len() != 0 {
				t.Errorf("Work ended with %d nodes (want %d), %d chunks pooled, error %v", n.t.Nodes, want, w.pool.Len(), w.err)
			}
			continue
		}
		if !errors.Is(w.err, errKilled) || n.t.Nodes > core.YieldEvery+uts.FrontierScan {
			t.Errorf("a killed rank left Work after %d nodes with error %v; want one yield interval at most and errKilled", n.t.Nodes, w.err)
		}
	}
}

// TestHandoffReclaimStaleAge: an entry unfetched past the stale bound is
// taken back even though its thief is still considered alive — the
// false-positive-death backstop — and a thief fetching after the
// reclaim gets an empty response (a failed steal), never the work twice.
func TestHandoffReclaimStaleAge(t *testing.T) {
	n, w, h := reclaimNode(t, 1)
	// The backoff floors leave the shortest stale bound at ~9 ms.
	n.cfg.RPCTimeout = time.Nanosecond
	eventually(t, w.reclaim, "reclaim skipped an entry older than the stale bound")
	if got := w.pool.Len(); got != 1 {
		t.Errorf("pool has %d chunks after reclaim, want 1", got)
	}
	if len(fetch(t, n, h)) != 0 {
		t.Error("late fetch of a reclaimed handle returned chunks: work delivered twice")
	}
}

// TestHandoffServeLeavesEntryPending is the window this ledger closes: an
// entry the progress engine is sending stays counted until settled, so a
// worker asking "anything pending?" on its way into the barrier cannot be
// told no while the chunks are in nobody's pool and on no wire yet.
func TestHandoffServeLeavesEntryPending(t *testing.T) {
	n, _, h := reclaimNode(t, 1)
	if got := len(fetch(t, n, h)); got != 1 {
		t.Fatalf("handoff serve returned %d chunks, want 1", got)
	}
	if got := n.handoff.Pending(); got != 1 {
		t.Fatalf("Pending() = %d with a served reply not yet settled, want 1", got)
	}
	n.handoff.settle(h, true)
	n.handoff.settle(h, false) // nothing in service: must not strand a phantom
	if got := n.handoff.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after the only entry was delivered, want 0", got)
	}
}

// TestHandoffUndeliveredServeStranded: an entry whose served GetChunks
// response never reached the thief is out of the worker's reach while in
// service — no sweep takes it, and a worker on its way into the barrier
// waits for it — and comes home the moment it is settled as not delivered.
func TestHandoffUndeliveredServeStranded(t *testing.T) {
	n, w, h := reclaimNode(t, 1)
	if got := len(fetch(t, n, h)); got != 1 {
		t.Fatalf("handoff serve returned %d chunks, want 1", got)
	}
	n.markDead(1)
	if w.reclaim() {
		t.Fatal("reclaim took back an entry the engine is serving: double delivery")
	}
	settled := make(chan bool, 1)
	go func() { settled <- w.Settle(true) }()
	select {
	case <-settled:
		t.Fatal("Settle(true) let the worker into the barrier with an entry in service")
	case <-time.After(20 * time.Millisecond):
	}
	n.handoff.settle(h, false)
	select {
	case regained := <-settled:
		if !regained || w.pool.Len() != 1 {
			t.Errorf("Settle(true) = %v with %d chunks pooled, want the stranded chunk back", regained, w.pool.Len())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Settle(true) never saw the stranded entry")
	}
}

// TestRankLeavingWithReservedWorkIsLabelled drives a rank to termination
// with an entry left in its ledger — the shape any future loss would have
// — and wants the error that names it, not a clean exit. Rank 0 is a bare
// progress engine with no work; rank 1 is a real worker, and the entry is
// slipped in once it provably sits in the barrier, past its last Settle.
func TestRankLeavingWithReservedWorkIsLabelled(t *testing.T) {
	n0 := testNode(t, Config{Rank: 0, Ranks: 2, Chunk: 4})
	n1 := testNode(t, Config{Rank: 1, Ranks: 2, Chunk: 4})
	n0.workAvail.Store(-1)
	n1.addrs = []string{serveOn(t, n0), ""}
	defer n1.close()

	done := make(chan error, 1)
	go func() { done <- n1.runWorker() }()
	eventually(t, func() bool {
		n0.barMu.Lock()
		defer n0.barMu.Unlock()
		return n0.barIn[1]
	}, "rank 1 never entered the barrier")
	n1.handoff.reserve([]stack.Chunk{make(stack.Chunk, 4)}, 0)
	n0.barEnter(0) // everyone is inside: termination is announced

	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "1 handoff entries reserved") {
			t.Fatalf("rank 1 left with reserved work and reported %v, want the labelled error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rank 1 did not terminate")
	}
}

// TestWithDefaultsClampsTimeouts: non-positive timeout configs select
// the defaults rather than producing zero backoff (rand.Int63n panics on
// n <= 0), pre-expired response deadlines, or unbounded RPCs.
func TestWithDefaultsClampsTimeouts(t *testing.T) {
	cfg, err := Config{
		Rank: 0, Ranks: 1, Spec: &uts.BenchTiny,
		RPCTimeout: -time.Second, DialTimeout: -time.Second, StatsTimeout: -time.Second,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RPCTimeout != 5*time.Second {
		t.Errorf("RPCTimeout = %v, want the 5s default", cfg.RPCTimeout)
	}
	if cfg.DialTimeout != 10*time.Second {
		t.Errorf("DialTimeout = %v, want the 10s default", cfg.DialTimeout)
	}
	if cfg.StatsTimeout != 30*time.Second {
		t.Errorf("StatsTimeout = %v, want the 30s default", cfg.StatsTimeout)
	}
}

// TestRespWaitCoversRetryBudget: the thief's response wait must exceed
// the worst case a live victim can spend inside one fully retried
// call() (redial + RPC deadline per attempt plus backoff) — otherwise
// one genuinely dead rank cascades into survivors declaring each other
// dead while blocked retrying toward it.
func TestRespWaitCoversRetryBudget(t *testing.T) {
	n := testNode(t, Config{Rank: 0, Ranks: 2})
	budget := time.Duration(1+n.cfg.RPCRetries) * 2 * n.cfg.RPCTimeout
	if got := n.respWait(); got <= budget {
		t.Errorf("respWait = %v, want > %v (the full retry budget)", got, budget)
	}
}

// TestRetryBudgetIsTheKinds: the request's kind sets its retry budget. With
// every reply dropped, a GetAvail (a read) is tried 1+RPCRetries times and a
// CASRequest (a claim) once, read off the client lane's retry events.
func TestRetryBudgetIsTheKinds(t *testing.T) {
	t.Parallel() // mostly a wait (main_test.go)
	drop := &FaultPlan{Rules: []FaultRule{{Rank: 1, Peer: -1, Side: ServerSide, Kind: KindAny, Op: FaultDrop}}}
	srv := testNode(t, Config{Rank: 1, Ranks: 2, Fault: drop})
	tr := obs.New(2, 0)
	cli := testNode(t, Config{Rank: 0, Ranks: 2, Tracer: tr, RPCTimeout: 50 * time.Millisecond, RPCRetries: 3})
	cli.addrs = []string{"", serveOn(t, srv)}
	defer cli.peers.closeAll()

	retries := func() int {
		k := 0
		for _, ev := range tr.Lane(0).Snapshot(nil) {
			if ev.Kind == obs.KindRPCRetry {
				k++
			}
		}
		return k
	}
	for _, tc := range []struct {
		kind reqKind
		want int
	}{{kindGetAvail, 1 + cli.cfg.RPCRetries}, {kindCASRequest, 1}} {
		before := retries()
		if resp, err := cli.attempt(1, &request{Kind: tc.kind, From: 0, Thief: 0}); err == nil {
			t.Fatalf("kind %d answered (%+v) with every reply dropped", tc.kind, resp)
		}
		if tries := 1 + retries() - before; tries != tc.want {
			t.Errorf("kind %d tried %d times, want %d", tc.kind, tries, tc.want)
		}
	}
}

// TestStatsDuplicateReportRejected locks in the coordinator-side dedup: a
// rank's counters count once no matter how often the retry loop delivers
// them, and out-of-range senders are ignored. The pre-fix code tracked
// arrivals with a bare WaitGroup counter, so a duplicate report panicked
// the coordinator via a negative counter.
func TestStatsDuplicateReportRejected(t *testing.T) {
	n := testNode(t, Config{Rank: 0, Ranks: 3})
	th := stats.Thread{ID: 1, Nodes: 42}
	deliver := func(from int) {
		req := request{Kind: kindStats, From: from, Stats: &th}
		var resp response
		if _, ok := n.handleRequest(&req, &resp); !ok {
			t.Fatalf("stats delivery from rank %d rejected the connection", from)
		}
	}
	deliver(1)
	deliver(1) // retry of the same report
	deliver(0) // out of range: the coordinator never reports to itself
	deliver(7) // out of range: beyond the membership

	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	if len(n.collected) != 1 {
		t.Fatalf("collected %d thread reports, want 1", len(n.collected))
	}
	if n.collected[0].Nodes != 42 {
		t.Errorf("collected wrong report: %+v", n.collected[0])
	}
}

// TestBarrierMembershipShrinks exercises rank 0's barrier bookkeeping
// directly: duplicate enters are idempotent, and a death announcement
// both removes the rank from the required membership and re-checks for
// completion — the mechanism that lets termination fire with a dead rank
// still "missing".
func TestBarrierMembershipShrinks(t *testing.T) {
	n := testNode(t, Config{Rank: 0, Ranks: 3})
	if n.barEnter(0) {
		t.Fatal("barrier announced with one of three ranks inside")
	}
	if n.barEnter(0) {
		t.Fatal("duplicate enter double-counted")
	}
	if n.barEnter(1) {
		t.Fatal("barrier announced with two of three ranks inside")
	}
	n.noteDead(2)
	if !n.announced.Load() {
		t.Fatal("barrier did not announce after the missing rank died")
	}
	// A second death report for the same rank must not corrupt the count.
	n.noteDead(2)
	n.barMu.Lock()
	defer n.barMu.Unlock()
	if n.numDead != 1 || n.barCount != 2 {
		t.Errorf("numDead=%d barCount=%d after duplicate death report, want 1 and 2", n.numDead, n.barCount)
	}
}

// TestBarrierBacksOutDyingRank covers the other ordering: a rank enters
// the barrier and then dies. It must be backed out, not counted toward
// termination on behalf of ranks still working.
func TestBarrierBacksOutDyingRank(t *testing.T) {
	n := testNode(t, Config{Rank: 0, Ranks: 3})
	n.barEnter(1)
	n.noteDead(1)
	if n.announced.Load() {
		t.Fatal("dead rank's stale barrier entry counted toward termination")
	}
	if n.barEnter(0) {
		t.Fatal("barrier announced with a surviving rank still outside")
	}
	if !n.barEnter(2) || !n.announced.Load() {
		t.Fatal("barrier did not announce once the survivors were all inside")
	}
}

// TestGatherStatsTimeout bounds the end-of-run gather: a rank that neither
// reports nor is declared dead must only stall rank 0 for StatsTimeout,
// after which it is named in the failure list along with any dead ranks.
func TestGatherStatsTimeout(t *testing.T) {
	t.Parallel() // mostly a wait (main_test.go)
	n := testNode(t, Config{Rank: 0, Ranks: 4, StatsTimeout: 200 * time.Millisecond})
	th := stats.Thread{ID: 1}
	var resp response
	req := request{Kind: kindStats, From: 1, Stats: &th}
	n.handleRequest(&req, &resp)
	n.noteDead(2) // rank 2 died; rank 3 is silently wedged

	start := time.Now()
	failed := n.gatherStats()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gather took %v, want ~StatsTimeout", elapsed)
	}
	sort.Ints(failed)
	if len(failed) != 2 || failed[0] != 2 || failed[1] != 3 {
		t.Errorf("failed ranks = %v, want [2 3]", failed)
	}
}

// TestGatherStatsSettlesEarly is the complement: once every rank has
// reported or died the gather returns immediately, long before the
// timeout backstop.
func TestGatherStatsSettlesEarly(t *testing.T) {
	n := testNode(t, Config{Rank: 0, Ranks: 3, StatsTimeout: time.Hour})
	th := stats.Thread{ID: 1}
	var resp response
	req := request{Kind: kindStats, From: 1, Stats: &th}
	n.handleRequest(&req, &resp)
	n.noteDead(2)

	done := make(chan []int, 1)
	go func() { done <- n.gatherStats() }()
	select {
	case failed := <-done:
		if len(failed) != 1 || failed[0] != 2 {
			t.Errorf("failed ranks = %v, want [2]", failed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gather waited for the timeout despite a settled membership")
	}
}

func TestParseFaultSpec(t *testing.T) {
	plan, err := ParseFaultSpec("rank=2,side=server,kind=cas,after=1,op=kill; kind=getchunks,op=drop,p=0.25,times=3 ;rank=1,peer=0,op=delay,delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(plan.Rules))
	}
	want0 := FaultRule{Rank: 2, Peer: -1, Side: ServerSide, Kind: int(kindCASRequest), After: 1, Op: FaultKill}
	if plan.Rules[0] != want0 {
		t.Errorf("rule 0 = %+v, want %+v", plan.Rules[0], want0)
	}
	r1 := plan.Rules[1]
	if r1.Rank != -1 || r1.Kind != int(kindGetChunks) || r1.Op != FaultDrop || r1.P != 0.25 || r1.Times != 3 {
		t.Errorf("rule 1 = %+v", r1)
	}
	r2 := plan.Rules[2]
	if r2.Rank != 1 || r2.Peer != 0 || r2.Op != FaultDelay || r2.Delay != 5*time.Millisecond || r2.Kind != KindAny {
		t.Errorf("rule 2 = %+v", r2)
	}

	for _, bad := range []string{
		"",                        // no rules at all
		"rank=2",                  // missing op
		"op=explode",              // unknown op
		"kind=nope,op=drop",       // unknown kind
		"side=upsidedown,op=drop", // unknown side
		"rank=x,op=drop",          // unparsable int
		"bareword,op=drop",        // not key=value
		"hue=3,op=drop",           // unknown field
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestFaultRuleGating covers the After / Times / side / peer filters that
// the scenario tests rely on to aim a fault at one precise RPC.
func TestFaultRuleGating(t *testing.T) {
	inj := newFaultInjector(&FaultPlan{Rules: []FaultRule{
		{Rank: -1, Peer: 3, Side: ServerSide, Kind: int(kindCASRequest), Op: FaultSever, After: 2, Times: 1},
	}}, 0)
	fire := func(side FaultSide, peer int, kind reqKind) bool {
		_, _, hooked := inj.act(side, peer, kind)
		return hooked
	}
	if fire(ClientSide, 3, kindCASRequest) {
		t.Error("server-side rule fired on the client hook")
	}
	if fire(ServerSide, 1, kindCASRequest) {
		t.Error("peer filter ignored")
	}
	if fire(ServerSide, 3, kindGetAvail) {
		t.Error("kind filter ignored")
	}
	if fire(ServerSide, 3, kindCASRequest) || fire(ServerSide, 3, kindCASRequest) {
		t.Error("rule fired during its After window")
	}
	if !fire(ServerSide, 3, kindCASRequest) {
		t.Error("rule did not fire after its After window")
	}
	if fire(ServerSide, 3, kindCASRequest) {
		t.Error("rule fired beyond its Times cap")
	}

	if newFaultInjector(nil, 0) != nil {
		t.Error("nil plan compiled to a non-nil injector")
	}
	if newFaultInjector(&FaultPlan{Rules: []FaultRule{{Rank: 5, Op: FaultKill}}}, 0) != nil {
		t.Error("rules for another rank armed on this one")
	}
	var nilInj *faultInjector
	if _, _, hooked := nilInj.act(ClientSide, 0, kindGetAvail); hooked {
		t.Error("nil injector fired")
	}
}

func TestAdvertiseAddr(t *testing.T) {
	ln, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	la, err := parseAddr(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	port := strconv.Itoa(int(la.port))

	for _, tc := range []struct {
		advertise, want string
	}{
		{"", ln.Addr()},
		{"10.0.0.2", "10.0.0.2:" + port},
		{"10.0.0.2:7800", "10.0.0.2:7800"},
		{"10.0.0.2:0", "10.0.0.2:" + port},
		{"10.0.0.2:", "10.0.0.2:" + port},
	} {
		got, err := advertiseAddr(tc.advertise, ln)
		if err != nil {
			t.Errorf("advertiseAddr(%q) error: %v", tc.advertise, err)
			continue
		}
		if got != tc.want {
			t.Errorf("advertiseAddr(%q) = %q, want %q", tc.advertise, got, tc.want)
		}
	}
}

// TestBindAdvertiseCluster runs a small cluster with explicit Bind and
// Advertise settings — the multi-host plumbing, exercised on loopback —
// and checks the result is identical to the default-bound run.
func TestBindAdvertiseCluster(t *testing.T) {
	base := Config{
		Spec: &uts.BenchTiny, Chunk: 4,
		Bind: "0.0.0.0:0", Advertise: "127.0.0.1",
	}
	run, errs, _ := launchFaulty(t, 2, base, 60*time.Second)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed: %v", r, err)
		}
	}
	if run == nil {
		t.Fatal("rank 0 produced no result")
	}
	if run.Nodes() != 3337 || run.Leaves() != 1698 {
		t.Errorf("counts = (%d, %d), want (3337, 1698)", run.Nodes(), run.Leaves())
	}
	if len(run.FailedRanks) != 0 {
		t.Errorf("healthy run reported FailedRanks = %v", run.FailedRanks)
	}
}
