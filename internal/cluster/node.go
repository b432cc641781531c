package cluster

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/uts"
)

// Config configures one process of a distributed run.
type Config struct {
	// Rank is this process's ID in [0, Ranks); rank 0 is the coordinator.
	Rank int
	// Ranks is the total number of processes.
	Ranks int
	// Coord is the coordinator's listen address. Rank 0 listens on it
	// ("ip:port", port may be 0 when CoordReady is used); other ranks
	// dial it. Coord, Bind and Advertise are IP literals ("10.0.0.1:7777",
	// "[::1]:0"; an empty host is the wildcard): the transport resolves no
	// names, cmd/uts-dist does before it builds a Config.
	Coord string
	// CoordReady, if non-nil, receives rank 0's actual listen address once
	// it is accepting connections. Used by in-process launches and tests
	// that bind port 0.
	CoordReady chan<- string
	// Bind is the address non-coordinator ranks listen on for one-sided
	// traffic; default "127.0.0.1:0" (loopback, kernel-assigned port).
	// Multi-host runs bind a routable interface: "0.0.0.0:0", ":7800", …
	Bind string
	// Advertise is the address registered with the coordinator as this
	// rank's dial target; default the listener's own address. When Bind
	// is a wildcard the kernel-reported address ("0.0.0.0:4123") is not
	// dialable from other hosts, so set Advertise to this host's routable
	// IP — "10.0.0.2" or "10.0.0.2:7800"; a missing or zero port is
	// filled in from the actual listener. Applies to rank 0 as well (its
	// advertised address is what peers redial after a broken connection).
	Advertise string
	// Spec is the tree to search; every rank must be given the same spec.
	Spec *uts.Spec
	// Chunk is the steal granularity k; default 16.
	Chunk int
	// Seed randomizes probe orders and, with Rank, the jitter of the retry
	// and redial backoff.
	Seed int64
	// DialTimeout bounds bootstrap connection attempts; default 10s.
	DialTimeout time.Duration
	// RPCTimeout bounds every peer RPC (SetDeadline on the connection);
	// default 5s. A deadline miss poisons the stream, so the
	// connection is closed and redialed.
	RPCTimeout time.Duration
	// RPCRetries is how many times an idempotent RPC (GetAvail,
	// BarrierDone, the deduplicated Stats delivery) is retried with
	// exponential backoff and jitter before the peer is declared dead;
	// default 2 (three attempts total). Negative means no retries.
	// Non-idempotent kinds always get a single attempt, and so does the
	// PeerDown report: one best-effort try from inside markDead.
	RPCRetries int
	// StatsTimeout bounds rank 0's end-of-run stats gather; default 30s.
	// Ranks still missing when it expires are reported in
	// stats.Run.FailedRanks instead of hanging the coordinator.
	StatsTimeout time.Duration
	// Adapt, when non-nil, runs this rank's worker under a closed-loop
	// policy controller (internal/policy) that adapts the steal
	// granularity k from windowed steal feedback, bounded around Chunk.
	// Every rank adapts independently off its own local evidence — there
	// is no cross-rank coordination traffic. A zero Config adapts with
	// defaults (window 10ms of wall time — steal round-trips here are
	// TCP RPCs, orders slower than the shared-memory schedulers'). Nil
	// keeps the fixed-knob path, byte-identical to a build without the
	// policy package.
	Adapt *policy.Config
	// Fault, when non-nil, arms the fault-injection harness (see
	// FaultPlan): deterministic drop/delay/sever/black-hole/kill rules
	// for tests and `uts-dist -fault` runs. Nil costs nothing.
	Fault *FaultPlan
	// Tracer, when non-nil, records this rank's steal-protocol events
	// into lane Rank (build it with obs.New(Ranks, ringSize) so lane
	// numbering matches rank numbering). Traces are per-process: each
	// rank writes its own file; there is no cross-rank event merge.
	Tracer *obs.Tracer
	// Metrics, when non-nil, is the registry this rank's live telemetry
	// goes into: after bootstrap Run registers the rank's uts_*/go_*
	// families there and starts a sampler over the tracer (arming one if
	// Tracer is nil), and on rank 0 it adds the cluster-wide rollup —
	// per-rank and aggregated scheduler metrics plus fault-tolerance
	// gauges, polled over the kindMetrics RPC with dead ranks skipped —
	// as an OnScrape appender. A registry serves one Run. Run serves
	// nothing: exposing the registry (cmd/uts-dist's /metrics) is the
	// caller's, so the transport does not link net/http. A run with
	// metrics on is bit-identical to one with metrics off: the plane only
	// reads. Nil is off and costs nothing.
	Metrics *telemetry.Registry
	// MetricsLinger keeps Run (and this rank's progress engine, which
	// answers rank 0's rollup polls) alive that long after the search
	// completes when Metrics is set, so a scraper of the registry can
	// observe the finished state; default 0.
	MetricsLinger time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Ranks < 1 {
		return c, fmt.Errorf("cluster: need at least one rank, got %d", c.Ranks)
	}
	if c.Rank < 0 || c.Rank >= c.Ranks {
		return c, fmt.Errorf("cluster: rank %d out of range [0,%d)", c.Rank, c.Ranks)
	}
	if c.Spec == nil {
		return c, fmt.Errorf("cluster: no tree spec")
	}
	if err := c.Spec.Validate(); err != nil {
		return c, err
	}
	if c.Chunk == 0 {
		c.Chunk = 16
	}
	if c.Chunk < 1 {
		return c, fmt.Errorf("cluster: chunk must be >= 1, got %d", c.Chunk)
	}
	// Non-positive timeouts select the defaults: a negative RPCTimeout
	// would otherwise yield zero backoff (rand.Int63n panics on n <= 0)
	// and deadlines already expired when set. Everything past this point
	// reads the timeouts as positive.
	if c.DialTimeout <= 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 5 * time.Second
	}
	if c.RPCRetries == 0 {
		c.RPCRetries = 2
	}
	if c.RPCRetries < 0 {
		c.RPCRetries = 0
	}
	if c.StatsTimeout <= 0 {
		c.StatsTimeout = 30 * time.Second
	}
	if c.Bind == "" {
		c.Bind = "127.0.0.1:0"
	}
	return c, nil
}

// errPeerDead wraps every RPC failure that ended with the peer declared
// dead. Callers classify on it (errors.Is) and degrade — skip the rank,
// fail the steal, complete over the survivors — instead of aborting.
var errPeerDead = errors.New("peer unresponsive (marked dead)")

// errKilled is returned throughout a rank the fault injector killed: the
// in-process stand-in for the process having exited.
var errKilled = errors.New("cluster: rank killed by fault injection")

// errRPCFailed wraps a non-idempotent RPC that failed while the peer
// demonstrably stayed alive (the confirmation probe answered): the
// exchange is lost, but the peer keeps its membership. Callers degrade
// the one operation — a failed steal, a reservation taken back — without
// the false death verdict a single transient stall used to produce.
var errRPCFailed = errors.New("rpc failed (peer alive)")

// node is one process's runtime state.
type node struct {
	cfg   Config
	ln    listener
	addrs []string // rank → address

	// tr is how this rank listens and dials: sockets, unless a test
	// installs another transport before run.
	tr transport
	// rng draws the retry and redial backoff jitter, seeded from Seed and
	// Rank. Used from the worker/Run goroutine only.
	rng *rand.Rand

	// Shared words served one-sidedly by the progress engine.
	workAvail atomic.Int32
	reqWord   atomic.Int32

	// Incoming response slot (written by kindPutResponse). respMu orders
	// concurrent writers: a stale response from a timed-out steal can
	// race the current victim's response, so the slot is no longer
	// single-writer.
	respMu     sync.Mutex
	respAmount int32
	respHandle uint64
	respFrom   int
	respReady  atomic.Bool

	// Reserved work: chunks granted to a thief that has yet to fetch them.
	handoff handoff

	// Failure detection. dead[r] is this rank's local verdict that r is
	// unreachable (RPCs exhausted their retries); it removes r from
	// probe cycles. Rank 0 additionally tracks the reported membership
	// under barMu (deadSeen/numDead) so the termination barrier and the
	// stats gather complete over the survivors.
	dead []atomic.Bool

	// Fault injection (nil when Config.Fault is nil or has no rules for
	// this rank) and the killed state it can put the rank into. shut is
	// the normal-teardown analogue: once Run returns — cleanly or not —
	// the progress engine stops answering, mimicking process death so
	// in-process peers cannot mistake a finished rank for a live one.
	faults   *faultInjector
	killed   atomic.Bool
	shut     atomic.Bool
	killOnce sync.Once

	// Barrier state (rank 0 only), manipulated by the progress engine
	// under barMu. barIn tracks which ranks are inside so a duplicate
	// enter cannot double-count and a dying rank can be backed out;
	// deadSeen/numDead shrink the membership the barrier waits for.
	barMu     sync.Mutex
	barCount  int
	barIn     []bool
	deadSeen  []bool
	numDead   int
	announced atomic.Bool

	// Stats collection (rank 0 only). statsFrom tracks which ranks have
	// reported so duplicates are rejected rather than corrupting the
	// gather; statsCh (capacity 1) wakes the end-of-run gather loop.
	statsMu   sync.Mutex
	statsFrom []bool
	collected []stats.Thread
	statsCh   chan struct{}

	// Outgoing connections of the worker/Run goroutine (peers.go).
	peers *peerSet

	// lane is this rank's tracer lane (nil when untraced). Recorded into
	// only from the worker/Run goroutine — obs lanes are single-writer.
	lane *obs.Lane

	// Telemetry plane (nil when Config.Metrics is nil): the live sampler
	// over the tracer and — rank 0 only — the cluster rollup poller.
	sampler atomic.Pointer[obs.Sampler] // read by the progress engine while startMetrics runs
	roll    *rollup

	// pset holds this rank's adaptive controller (one entry — a process
	// is one PE) when Config.Adapt is set; nil otherwise.
	pset *policy.Set

	t stats.Thread
}

// newNode validates cfg, fills in its defaults and builds a node with
// every membership/bookkeeping slice sized for cfg.Ranks; used by Run and
// by tests that drive the progress engine directly.
func newNode(cfg Config) (*node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := &node{
		cfg:       cfg,
		addrs:     make([]string, cfg.Ranks),
		dead:      make([]atomic.Bool, cfg.Ranks),
		barIn:     make([]bool, cfg.Ranks),
		deadSeen:  make([]bool, cfg.Ranks),
		statsFrom: make([]bool, cfg.Ranks),
		statsCh:   make(chan struct{}, 1),
		faults:    newFaultInjector(cfg.Fault, cfg.Rank),
		tr:        sockets,
		rng:       rand.New(rand.NewSource(cfg.Seed*1000003 - int64(cfg.Rank) - 1)),
	}
	n.peers = newPeerSet(n)
	n.reqWord.Store(-1)
	n.t.ID = cfg.Rank
	n.lane = cfg.Tracer.Lane(cfg.Rank)
	if cfg.Adapt != nil {
		acfg := *cfg.Adapt
		if acfg.Window <= 0 {
			acfg.Window = 10 * time.Millisecond
		}
		// One controller: this process is a single PE. Victims always
		// grant half their pool here, so the steal-half knob stays at its
		// base; only k (release granularity + 2k threshold) adapts.
		n.pset = policy.NewSet(&acfg, policy.Base{Chunk: cfg.Chunk}, 1)
	}
	return n, nil
}

// idempotentKind reports whether a request may be retried safely: pure
// reads (GetAvail, BarrierDone, the Metrics row), the
// coordinator-deduplicated stats delivery, and failure reports. May be,
// not is: PeerDown and Metrics go out once, from reportDead and the rollup.
func idempotentKind(k reqKind) bool {
	switch k {
	case kindGetAvail, kindBarrierDone, kindStats, kindPeerDown, kindMetrics:
		return true
	}
	return false
}

// call performs one RPC to rank r under the configured deadline.
// Idempotent kinds are retried (attempt says when, and after what pause).
// When every attempt fails, the verdict depends on the kind: an
// exhausted idempotent retry loop is itself the evidence, but a
// non-idempotent kind had only one attempt, so a fully retried
// idempotent probe confirms first — a peer that answers it is alive,
// and the error wraps errRPCFailed (exchange lost, membership kept)
// instead of errPeerDead. Only a confirmed-unreachable r is marked
// dead. Must be called from the worker/Run goroutine (it records into
// the rank's single-writer tracer lane).
func (n *node) call(r int, req *request) (*response, error) {
	if n.killed.Load() {
		return nil, errKilled
	}
	if n.isDead(r) {
		return nil, fmt.Errorf("cluster: rank %d: %w", r, errPeerDead)
	}
	resp, lastErr := n.attempt(r, req)
	if resp != nil {
		return resp, nil
	}
	if errors.Is(lastErr, errKilled) {
		return nil, errKilled
	}
	if !idempotentKind(req.Kind) {
		probe := request{Kind: kindGetAvail, From: n.cfg.Rank}
		if pr, _ := n.attempt(r, &probe); pr != nil {
			return nil, fmt.Errorf("cluster: rank %d: rpc kind %d to rank %d %w: %v",
				n.cfg.Rank, req.Kind, r, errRPCFailed, lastErr)
		}
		if n.killed.Load() {
			return nil, errKilled
		}
	}
	n.markDead(r)
	return nil, fmt.Errorf("cluster: rank %d: rank %d %w: %v", n.cfg.Rank, r, errPeerDead, lastErr)
}

// budget is how many times a request of kind k is tried: 1+RPCRetries for
// an idempotent kind, once for any other — retrying a mutation could apply
// it twice.
func (n *node) budget(k reqKind) int {
	if idempotentKind(k) {
		return 1 + n.cfg.RPCRetries
	}
	return 1
}

// backoff is the pause before the first retry; each later one doubles it.
func (n *node) backoff() time.Duration {
	return max(n.cfg.RPCTimeout/16, time.Millisecond)
}

// attempt runs the bounded retry loop for one RPC: one exchange through
// the doorway per attempt (RPC deadline, redial after a failure), up to the
// kind's budget. A timeout is waited out with exponential backoff and
// jitter; an exchange the peer closed (EOF, reset) is redialled at once,
// and a refused dial ends the attempts — past bootstrap the rank's listener
// is gone, and so is the rank. Returns the first successful response, or
// (nil, lastErr) once the attempts are spent.
func (n *node) attempt(r int, req *request) (*response, error) {
	backoff := n.backoff()
	var lastErr error
	for a, attempts := 0, n.budget(req.Kind); a < attempts; a++ {
		if a > 0 {
			n.lane.Rec(obs.KindRPCRetry, int32(r), int64(a))
			if !peerClosed(lastErr) {
				time.Sleep(n.jitter(backoff))
				backoff *= 2
			}
		}
		resp, err := n.peers.exchange(r, req, n.cfg.RPCTimeout)
		if err == nil {
			return resp, nil
		}
		if lastErr = err; n.killed.Load() {
			return nil, errKilled
		}
		if errors.Is(err, syscall.ECONNREFUSED) {
			break
		}
	}
	return nil, lastErr
}

// peerClosed reports an exchange that failed because the peer ended the
// stream, not because it was slow.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// jitter is a pause drawn from [backoff/2, 3·backoff/2).
func (n *node) jitter(backoff time.Duration) time.Duration {
	return backoff/2 + time.Duration(n.rng.Int63n(int64(backoff)))
}

// respWait bounds a thief's wait for a victim's steal response: the
// worst case a live victim can go without running service() — one fully
// retried call() toward a genuinely dead peer (a redial plus an RPC
// deadline per attempt, plus the backoff sleeps between attempts) —
// with one extra RPCTimeout of slack for the response transfer itself.
// Waiting any less risks declaring a merely busy victim dead: it may be
// stuck in its own retry loop toward a dead third rank, unable to
// answer steals meanwhile.
func (n *node) respWait() time.Duration {
	rpcT, attempts := n.cfg.RPCTimeout, 1+n.cfg.RPCRetries
	d := time.Duration(attempts) * 2 * rpcT
	backoff := n.backoff()
	for a := 1; a < attempts; a++ {
		d += backoff + backoff/2 // sleep is backoff/2 + jitter < backoff
		backoff *= 2
	}
	return d + rpcT
}

// staleAfter is how long a handoff entry may sit unfetched before the
// reclaim sweep takes it back: the thief's full response wait again,
// doubled, which covers its chunk fetch and any service() it performs
// between receiving the response and issuing the fetch. Past this the
// thief has provably given up (or died). Reclaiming early is safe for
// the count — a late fetch finds the entry gone and books a failed
// steal, never a double delivery — it merely wastes a granted transfer.
func (n *node) staleAfter() time.Duration {
	return 2 * n.respWait()
}

// isDead reports this rank's local verdict on r.
func (n *node) isDead(r int) bool {
	return r >= 0 && r < len(n.dead) && n.dead[r].Load()
}

// markDead records the local decision that rank r is unreachable. On
// rank 0 it feeds the barrier and stats membership directly; elsewhere
// the failure is reported (best-effort, bounded) to the coordinator so
// termination and the stats gather complete without r.
func (n *node) markDead(r int) {
	if r < 0 || r >= n.cfg.Ranks || r == n.cfg.Rank {
		return
	}
	if n.dead[r].Swap(true) {
		return
	}
	n.lane.Rec(obs.KindPeerDead, int32(r), 0)
	if n.cfg.Rank == 0 {
		n.noteDead(r)
	} else if r != 0 {
		n.reportDead(r)
	}
}

// noteDead is rank 0's membership bookkeeping for dead rank r (> 0):
// remove it from the barrier accounting and wake the stats gather. Called
// from both the local worker (via markDead) and the progress engine
// (kindPeerDown reports); deadSeen dedups the two paths.
func (n *node) noteDead(r int) {
	if r <= 0 || r >= n.cfg.Ranks {
		return
	}
	n.dead[r].Store(true)
	// Verdicts that arrive after termination has been announced are
	// shutdown races, not membership events: a finished rank closes its
	// listener while slower peers are still mid-probe in their terminate
	// loop, and the failed probe would otherwise brand a rank that
	// completed the run intact. The dead[] store above still settles the
	// stats gather, and a rank that genuinely dies post-termination shows
	// up in FailedRanks (its counters never arrive) — so skipping the
	// deadSeen record here never hides a real failure.
	if n.announced.Load() {
		n.pokeStats()
		return
	}
	n.barMu.Lock()
	if !n.deadSeen[r] {
		n.deadSeen[r] = true
		n.numDead++
		if n.barIn[r] {
			n.barIn[r] = false
			n.barCount--
		}
		n.barRecheckLocked()
	}
	n.barMu.Unlock()
	n.pokeStats()
}

// reportDead tells the coordinator about r with one bounded, best-effort
// RPC; a failure here is ignored (the coordinator will learn about r
// from another survivor, or the stats gather's timeout backstop fires).
func (n *node) reportDead(r int) {
	n.peers.exchange(0, &request{Kind: kindPeerDown, From: n.cfg.Rank, Dead: int32(r)}, n.cfg.RPCTimeout)
}

// Run executes this process's part of a distributed search. On rank 0 it
// returns the aggregated result once every surviving rank has reported
// (partial results annotated with FailedRanks when peers died); on other
// ranks it returns (nil, nil) after a clean shutdown.
func Run(cfg Config) (*stats.Run, error) {
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	return n.run()
}

// run is Run on a built node (tests keep the node to inspect afterwards).
func (n *node) run() (*stats.Run, error) {
	cfg := &n.cfg
	if err := n.bootstrap(); err != nil {
		n.close() // a partial bootstrap may have opened the listener
		return nil, err
	}
	defer n.close()

	// The telemetry plane comes up after bootstrap (the rollup needs the
	// address map) and lingers past the run before teardown, so every
	// rank's progress engine is still answering kindMetrics while an
	// external scraper reads the finished state.
	n.startMetrics()
	defer n.stopMetrics()

	start := time.Now()
	if err := n.runWorker(); err != nil {
		return nil, err
	}

	if cfg.Rank != 0 {
		// Report counters to the coordinator and exit. Safe to retry:
		// the coordinator dedups by sender rank.
		if cfg.Ranks > 1 {
			if _, err := n.call(0, &request{Kind: kindStats, From: cfg.Rank, Stats: &n.t}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}

	// Rank 0: gather stats over the surviving membership, bounded by
	// StatsTimeout — dead or wedged ranks degrade the report to partial
	// results named in FailedRanks, never a permanent hang. The tracer
	// summary covers rank 0's own lane only (remote ranks write their
	// own trace files).
	failed := n.gatherStats()
	run := &stats.Run{
		Elapsed:        time.Since(start),
		FailedRanks:    failed,
		SuspectedRanks: n.suspectedRanks(),
	}
	run.Threads = append(run.Threads, n.t)
	n.statsMu.Lock()
	run.Threads = append(run.Threads, n.collected...)
	n.statsMu.Unlock()
	run.Obs = n.cfg.Tracer.Summary() // n.cfg: startMetrics may have armed the tracer
	// Each rank adapts off local evidence only, so the report covers rank
	// 0's own controller (remote knobs stay at their ranks, observable
	// via each rank's uts_policy_* gauges).
	run.Policy = n.pset.Summary()
	return run, nil
}

// gatherStats waits until every rank has either reported its counters or
// been declared dead, bounded by StatsTimeout. It returns the sorted
// ranks that never reported.
func (n *node) gatherStats() []int {
	cfg := &n.cfg
	if cfg.Ranks == 1 {
		return nil
	}
	timer := time.NewTimer(cfg.StatsTimeout)
	defer timer.Stop()
wait:
	for !n.statsSettled() {
		select {
		case <-n.statsCh:
		case <-timer.C:
			break wait
		}
	}
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	var failed []int
	for r := 1; r < cfg.Ranks; r++ {
		if !n.statsFrom[r] {
			failed = append(failed, r)
		}
	}
	return failed
}

// suspectedRanks returns, in rank order, every rank the coordinator saw
// declared dead — by its own verdicts or a survivor's PeerDown report —
// whether or not that rank's stats later arrived. A suspected rank that
// still reported means the barrier membership shrank on a false
// positive: the run must be visibly annotated as degraded even though
// FailedRanks is empty, not pass as healthy.
func (n *node) suspectedRanks() []int {
	n.barMu.Lock()
	defer n.barMu.Unlock()
	var out []int
	for r, d := range n.deadSeen {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// statsSettled reports whether every rank has reported or died.
func (n *node) statsSettled() bool {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	for r := 1; r < n.cfg.Ranks; r++ {
		if !n.statsFrom[r] && !n.dead[r].Load() {
			return false
		}
	}
	return true
}

// pokeStats wakes the stats gather loop (lossy: the loop re-checks).
func (n *node) pokeStats() {
	select {
	case n.statsCh <- struct{}{}:
	default:
	}
}

// advertiseAddr resolves the address this rank registers with the
// coordinator: the listener's own address by default, otherwise the
// configured Advertise IP with a missing or zero port filled in from the
// actual listener (so "-bind 0.0.0.0:0 -advertise 10.0.0.2" works).
func advertiseAddr(advertise string, ln listener) (string, error) {
	actual := ln.Addr()
	if advertise == "" {
		return actual, nil
	}
	la, err := parseAddr(actual)
	if err != nil {
		return "", fmt.Errorf("cluster: listener address %q: %w", actual, err)
	}
	a, err := parseAddr(advertise)
	if err != nil {
		// A bare IP with no port: take the listener's.
		ip, ierr := netip.ParseAddr(strings.Trim(advertise, "[]"))
		if ierr != nil || ip.Zone() != "" {
			return "", fmt.Errorf("cluster: advertise address %q is not an IP literal, with or without a port", advertise)
		}
		a = tcpAddr{ip: ip}
	}
	if a.port == 0 {
		a.port = la.port
	}
	return a.String(), nil
}

// bootstrap brings up the listener, exchanges the address map through the
// coordinator, and waits until every rank is reachable.
func (n *node) bootstrap() error {
	cfg := &n.cfg
	if cfg.Ranks == 1 {
		return nil
	}
	if cfg.Rank == 0 {
		ln, err := n.tr.listen(cfg.Coord)
		if err != nil {
			return fmt.Errorf("cluster: coordinator listen: %w", err)
		}
		n.ln = ln
		addr0, err := advertiseAddr(cfg.Advertise, ln)
		if err != nil {
			return err
		}
		if cfg.CoordReady != nil {
			cfg.CoordReady <- ln.Addr()
		}
		return n.coordinate(addr0)
	}

	ln, err := n.tr.listen(cfg.Bind)
	if err != nil {
		return fmt.Errorf("cluster: rank %d listen on %q: %w", cfg.Rank, cfg.Bind, err)
	}
	n.ln = ln
	go n.serve()

	adv, err := advertiseAddr(cfg.Advertise, ln)
	if err != nil {
		return err
	}
	conn, err := n.dialRetry(cfg.Coord, cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("cluster: rank %d dial coordinator: %w", cfg.Rank, err)
	}
	// The coordinator connection joins the set: the hello is an exchange
	// like any other, and rank-0 RPCs reuse the connection afterwards.
	if _, err := n.peers.adopt(0, conn); err != nil {
		return err
	}
	resp, err := n.peers.exchange(0, &request{Kind: kindHello, From: cfg.Rank, Addr: adv}, cfg.DialTimeout)
	if err == nil && len(resp.Addrs) != cfg.Ranks {
		err = fmt.Errorf("address map of %d ranks, want %d", len(resp.Addrs), cfg.Ranks)
	}
	if err != nil {
		return fmt.Errorf("cluster: rank %d hello: %w", cfg.Rank, err)
	}
	n.addrs = resp.Addrs
	return nil
}

// coordinate is rank 0's side of the bootstrap: accept one Hello per rank
// within the DialTimeout window, then answer all of them with the
// completed address map and keep serving the connections. A rank that
// dies mid-bootstrap surfaces as a bounded accept timeout naming how many
// ranks registered, not a hang.
func (n *node) coordinate(addr0 string) error {
	cfg := &n.cfg
	n.addrs[0] = addr0

	deadline := time.Now().Add(cfg.DialTimeout)
	n.ln.SetDeadline(deadline)

	waiting := make([]*peerConn, 0, cfg.Ranks-1)
	for len(waiting) < cfg.Ranks-1 {
		conn, err := n.ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: bootstrap: %d of %d ranks registered within %v: %w",
				len(waiting)+1, cfg.Ranks, cfg.DialTimeout, err)
		}
		conn.SetReadDeadline(deadline)
		pc := newPeerConn(conn)
		var req request
		if err := pc.recv(&req); err != nil {
			conn.Close()
			return fmt.Errorf("cluster: bad hello: %w", err)
		}
		conn.SetReadDeadline(time.Time{})
		if req.Kind != kindHello || req.From <= 0 || req.From >= cfg.Ranks || n.addrs[req.From] != "" {
			conn.Close()
			return fmt.Errorf("cluster: invalid hello from rank %d", req.From)
		}
		n.addrs[req.From] = req.Addr
		waiting = append(waiting, pc)
	}
	n.ln.SetDeadline(time.Time{})
	for _, pc := range waiting {
		pc.conn.SetWriteDeadline(time.Now().Add(cfg.RPCTimeout))
		if err := pc.send(&response{Kind: kindHello, Addrs: n.addrs}); err != nil {
			return fmt.Errorf("cluster: address broadcast: %w", err)
		}
		pc.conn.SetWriteDeadline(time.Time{})
		// The hello connection becomes a served peer connection.
		go n.serveConn(pc)
	}
	go n.serve() // later direct dials from workers to rank 0's one-sided words
	return nil
}

// serve accepts inbound one-sided connections for the progress engine.
func (n *node) serve() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		if n.killed.Load() || n.shut.Load() {
			conn.Close()
			return
		}
		go n.serveConn(newPeerConn(conn))
	}
}

// serveConn is the progress engine: it services one-sided operations on
// this process's shared words without involving the worker thread.
func (n *node) serveConn(pc *peerConn) {
	defer pc.conn.Close()
	var req request
	var resp response
	for {
		req = request{}
		if err := pc.recv(&req); err != nil {
			return
		}
		if n.killed.Load() || n.shut.Load() {
			return
		}
		resp = response{Kind: req.Kind}
		serving, ok := n.handleRequest(&req, &resp)
		if !ok {
			return // protocol error: drop the connection
		}
		delivered, open := n.reply(pc, &req, &resp)
		if serving {
			// A handoff entry is in service, and is settled here and nowhere
			// else: delivered, it leaves the ledger; if not, it stays,
			// stranded, for the worker.
			n.handoff.settle(req.Handle, delivered)
		}
		if !open {
			return
		}
	}
}

// reply sends resp unless an injected fault withholds it: delivered if it
// was written to the socket in full, open if the connection serves on. It
// carries a write deadline so a peer that stops draining its socket cannot
// wedge the engine goroutine forever.
func (n *node) reply(pc *peerConn, req *request, resp *response) (delivered, open bool) {
	if op, d, hooked := n.faults.act(ServerSide, req.From, req.Kind); hooked {
		switch op {
		case FaultDelay:
			time.Sleep(d)
		case FaultDrop:
			return false, true
		case FaultSever:
			return false, false
		case FaultBlackHole:
			pc.mute = true
		case FaultKill:
			n.die()
			return false, false
		}
	}
	if pc.mute {
		return false, true
	}
	pc.conn.SetWriteDeadline(time.Now().Add(n.cfg.RPCTimeout))
	if err := pc.send(resp); err != nil {
		return false, false
	}
	return true, true
}

// handleRequest services one progress-engine request, writing the reply
// into resp. It reports whether that put a handoff entry in service (one
// settle is owed) and whether the connection should stay open.
func (n *node) handleRequest(req *request, resp *response) (serving, ok bool) {
	switch req.Kind {
	case kindGetAvail:
		resp.Avail = n.workAvail.Load()
	case kindCASRequest:
		// The word is a rank the worker will answer: any other value would
		// be called out of range, or sit there for good keeping thieves out.
		if t := int(req.Thief); t < 0 || t >= n.cfg.Ranks || t == n.cfg.Rank {
			return false, false
		}
		resp.OK = n.reqWord.CompareAndSwap(-1, req.Thief)
	case kindPutResponse:
		n.respMu.Lock()
		n.respAmount = req.Amount
		n.respHandle = req.Handle
		n.respFrom = req.From
		n.respReady.Store(true)
		n.respMu.Unlock()
	case kindGetChunks:
		// No entry to serve is an empty response, not an error: the worker
		// may have taken it back, and the thief books a failed steal.
		resp.Chunk, serving = n.handoff.serve(req.Handle)
	case kindBarrierEnter:
		resp.Last = n.barEnter(req.From)
	case kindBarrierLeave:
		resp.OK = n.barLeave(req.From)
	case kindBarrierDone:
		resp.Done = n.announced.Load()
	case kindStats:
		if req.Stats != nil && req.From > 0 && req.From < n.cfg.Ranks {
			n.statsMu.Lock()
			if !n.statsFrom[req.From] {
				n.statsFrom[req.From] = true
				n.collected = append(n.collected, *req.Stats)
			}
			n.statsMu.Unlock()
			n.pokeStats()
		}
	case kindPeerDown:
		if r := int(req.Dead); n.cfg.Rank == 0 && r > 0 && r < n.cfg.Ranks {
			n.noteDead(r)
		}
	case kindMetrics:
		resp.Metrics = n.rollupRow()
	default:
		return false, false
	}
	return serving, true
}

// barEnter registers rank from inside the barrier and reports whether
// termination is (now) announced. Duplicate enters are idempotent.
func (n *node) barEnter(from int) bool {
	n.barMu.Lock()
	defer n.barMu.Unlock()
	if from >= 0 && from < len(n.barIn) && !n.barIn[from] {
		n.barIn[from] = true
		n.barCount++
		n.barRecheckLocked()
	}
	return n.announced.Load()
}

// barLeave backs rank from out of the barrier; it reports false when
// termination already raced in (the caller must finish instead).
func (n *node) barLeave(from int) bool {
	n.barMu.Lock()
	defer n.barMu.Unlock()
	if n.announced.Load() {
		return false
	}
	if from >= 0 && from < len(n.barIn) && n.barIn[from] {
		n.barIn[from] = false
		n.barCount--
	}
	return true
}

// barRecheckLocked announces termination once every live rank is inside
// the barrier; called under barMu whenever barCount or the membership
// changes.
func (n *node) barRecheckLocked() {
	if n.barCount > 0 && n.barCount >= n.cfg.Ranks-n.numDead {
		n.announced.Store(true)
	}
}

// die makes this rank behave like a killed process: the teardown below,
// and the worker exits with errKilled at its next poll. Fault-injection
// only.
func (n *node) die() {
	n.killOnce.Do(func() {
		n.killed.Store(true)
		n.teardown()
	})
}

// close is the normal end: the progress engine stops answering.
func (n *node) close() {
	n.shut.Store(true)
	n.teardown()
}

// teardown closes the listener and breaks every outgoing connection — what
// a real process exit implies.
func (n *node) teardown() {
	if n.ln != nil {
		n.ln.Close()
	}
	n.peers.closeAll()
}
