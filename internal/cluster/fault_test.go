package cluster

import (
	"errors"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

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

// launchFaulty runs an in-process cluster where ranks are allowed — even
// expected — to fail. It returns rank 0's result (nil when rank 0 itself
// failed) and every rank's error, and fails the test if the cluster does
// not wind down within deadline: bounded completion under faults is the
// property every test here is ultimately asserting.
func launchFaulty(t *testing.T, n int, base Config, deadline time.Duration) (*stats.Run, map[int]error) {
	t.Helper()
	old := runtime.GOMAXPROCS(n + 1)
	defer runtime.GOMAXPROCS(old)
	ready := make(chan string, 1)
	type rankDone struct {
		rank int
		run  *stats.Run
		err  error
	}
	results := make(chan rankDone, n)

	cfg0 := base
	cfg0.Rank, cfg0.Ranks, cfg0.Coord, cfg0.CoordReady = 0, n, "127.0.0.1:0", ready
	go func() {
		run, err := Run(cfg0)
		results <- rankDone{0, run, err}
	}()
	select {
	case coord := <-ready:
		for r := 1; r < n; r++ {
			go func(r int) {
				cfg := base
				cfg.Rank, cfg.Ranks, cfg.Coord = r, n, coord
				run, err := Run(cfg)
				results <- rankDone{r, run, err}
			}(r)
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
	return run, errs
}

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
	run, errs := launchFaulty(t, 4, faultCfg(&uts.BenchSmall, 8, plan), 60*time.Second)

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
	if run.Nodes() != 63575 || run.Leaves() != 31887 {
		t.Errorf("counts = (%d, %d), want the full tree (63575, 31887): the victim died before holding work",
			run.Nodes(), run.Leaves())
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
// engine would hand stolen chunks to rank 1. The consumed handoff entry
// is redeposited on the victim side (the response never left the
// process) and the reclaim sweep returns it to rank 0's pool; the thief
// books a failed steal without a death verdict, because rank 0 still
// answers its confirmation probe over a fresh connection. One severed
// connection therefore costs one steal — not a peer, not a subtree: the
// run completes with exact counts and no degradation annotations.
func TestFaultSeverMidSteal(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 0, Peer: -1, Side: ServerSide, Kind: int(kindGetChunks), Op: FaultSever, Times: 1},
	}}
	// BenchSmall keeps rank 0 busy long enough that rank 1 reliably steals
	// (BenchTiny can drain before the thief's first steal lands, leaving
	// the fault rule nothing to fire on).
	run, errs := launchFaulty(t, 2, faultCfg(&uts.BenchSmall, 4, plan), 30*time.Second)
	requireHealthyExactRun(t, run, errs, 63575, 31887)
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
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 0, Peer: -1, Side: ClientSide, Kind: int(kindPutResponse), Op: FaultDrop, Times: 1},
	}}
	run, errs := launchFaulty(t, 2, faultCfg(&uts.BenchSmall, 4, plan), 30*time.Second)
	requireHealthyExactRun(t, run, errs, 63575, 31887)
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
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 1, Peer: -1, Side: ClientSide, Kind: int(kindGetChunks), Op: FaultDrop, Times: 1},
	}}
	run, errs := launchFaulty(t, 2, faultCfg(&uts.BenchSmall, 4, plan), 30*time.Second)
	requireHealthyExactRun(t, run, errs, 63575, 31887)
}

// TestFaultKillBeforeBarrier kills rank 3 as it tries to enter the
// termination barrier. The barrier must complete over the surviving
// membership instead of waiting forever for a rank that will never arrive.
func TestFaultKillBeforeBarrier(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 3, Peer: -1, Side: ClientSide, Kind: int(kindBarrierEnter), Op: FaultKill},
	}}
	run, errs := launchFaulty(t, 4, faultCfg(&uts.BenchTiny, 4, plan), 60*time.Second)

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
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 2, Peer: -1, Side: ClientSide, Kind: int(kindHello), Op: FaultKill},
	}}
	cfg := faultCfg(&uts.BenchTiny, 4, plan)
	cfg.DialTimeout = 2 * time.Second
	run, errs := launchFaulty(t, 3, cfg, 30*time.Second)

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
	// A listener that accepts and stays silent stands in for the thief.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	cfg, err := Config{
		Rank: 0, Ranks: 2, Spec: &uts.BenchTiny, Chunk: 4,
		RPCTimeout: 100 * time.Millisecond, RPCRetries: -1,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	n := newNode(cfg)
	n.addrs = []string{"", ln.Addr().String()}
	w := &clusterWorker{n: n, k: cfg.Chunk, me: 0}

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
		t.Errorf("pool has %d chunks after withdraw, want %d (reserved work leaked)", got, before)
	}
	n.handoffMu.Lock()
	pending := len(n.handoff)
	n.handoffMu.Unlock()
	if pending != 0 {
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
	cfg, err := Config{Rank: 0, Ranks: 3, Spec: &uts.BenchTiny, Chunk: 4}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	n := newNode(cfg)
	w := &clusterWorker{n: n, k: cfg.Chunk, me: 0}
	h := n.deposit(append(n.getChunkBuf(), make(stack.Chunk, 4)), thief)
	return n, w, h
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
	if n.handoffN.Load() != 0 {
		t.Error("handoff table still non-empty after reclaim")
	}
	if wa := n.workAvail.Load(); wa != 1 {
		t.Errorf("workAvail = %d after reclaim, want 1 (reclaimed work must be stealable)", wa)
	}
}

// TestHandoffReclaimStaleAge: an entry unfetched past the stale bound is
// taken back even though its thief is still considered alive — the
// false-positive-death backstop — and a thief fetching after the
// reclaim gets an empty response (a failed steal), never the work twice.
func TestHandoffReclaimStaleAge(t *testing.T) {
	n, w, h := reclaimNode(t, 1)
	n.handoffMu.Lock()
	for k, e := range n.handoff {
		e.at = time.Now().Add(-n.staleAfter() - time.Second)
		n.handoff[k] = e
	}
	n.handoffMu.Unlock()
	if !w.reclaim() {
		t.Fatal("reclaim skipped an entry older than the stale bound")
	}
	if got := w.pool.Len(); got != 1 {
		t.Errorf("pool has %d chunks after reclaim, want 1", got)
	}
	var req request
	var resp response
	req.Kind, req.Handle = kindGetChunks, h
	if _, ok := n.handleRequest(&req, &resp); !ok {
		t.Fatal("late fetch of a reclaimed handle dropped the connection")
	}
	if len(resp.Chunk) != 0 {
		t.Error("late fetch of a reclaimed handle returned chunks: work delivered twice")
	}
}

// TestHandoffRedepositStranded: chunks redeposited by the progress
// engine (a served GetChunks response that never reached the thief) are
// immediately stranded and come back on the very next sweep.
func TestHandoffRedepositStranded(t *testing.T) {
	n, w, h := reclaimNode(t, 1)
	var req request
	var resp response
	req.Kind, req.Handle = kindGetChunks, h
	recycle, ok := n.handleRequest(&req, &resp)
	if !ok || len(recycle) != 1 {
		t.Fatalf("handoff serve failed: ok=%v chunks=%d", ok, len(recycle))
	}
	n.redeposit(1, recycle)
	if !w.reclaim() {
		t.Fatal("redeposited chunks were not immediately reclaimable")
	}
	if got := w.pool.Len(); got != 1 {
		t.Errorf("pool has %d chunks after reclaim, want 1", got)
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
	cfg, err := Config{Rank: 0, Ranks: 2, Spec: &uts.BenchTiny}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	n := newNode(cfg)
	budget := time.Duration(1+cfg.RPCRetries) * 2 * cfg.RPCTimeout
	if got := n.respWait(); got <= budget {
		t.Errorf("respWait = %v, want > %v (the full retry budget)", got, budget)
	}
}

// TestStatsDuplicateReportRejected locks in the coordinator-side dedup: a
// rank's counters count once no matter how often the retry loop delivers
// them, and out-of-range senders are ignored. The pre-fix code tracked
// arrivals with a bare WaitGroup counter, so a duplicate report panicked
// the coordinator via a negative counter.
func TestStatsDuplicateReportRejected(t *testing.T) {
	n := newNode(Config{Rank: 0, Ranks: 3, Spec: &uts.BenchTiny})
	th := stats.Thread{ID: 1, Nodes: 42}
	var resp response
	deliver := func(from int) {
		req := request{Kind: kindStats, From: from, Stats: &th}
		resp.reset()
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
	n := newNode(Config{Rank: 0, Ranks: 3, Spec: &uts.BenchTiny})
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
	n := newNode(Config{Rank: 0, Ranks: 3, Spec: &uts.BenchTiny})
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
	n := newNode(Config{Rank: 0, Ranks: 4, Spec: &uts.BenchTiny, StatsTimeout: 200 * time.Millisecond})
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
	n := newNode(Config{Rank: 0, Ranks: 3, Spec: &uts.BenchTiny, StatsTimeout: time.Hour})
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, port, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		advertise, want string
	}{
		{"", ln.Addr().String()},
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
	run, errs := launchFaulty(t, 2, base, 60*time.Second)
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
