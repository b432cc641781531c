package cluster

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/uts"
)

// launch runs an in-process cluster of n ranks over real TCP loopback and
// returns rank 0's aggregated result. Each rank has an OS thread of its
// own (testProcs).
func launch(t *testing.T, n int, sp *uts.Spec, chunk int, seed int64) *stats.Run {
	t.Helper()
	ready := make(chan string, 1)
	results := make(chan *stats.Run, 1)
	errs := make(chan error, n)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run, err := Run(Config{
			Rank: 0, Ranks: n, Coord: "127.0.0.1:0", CoordReady: ready,
			Spec: sp, Chunk: chunk, Seed: seed,
		})
		if err != nil {
			errs <- err
			return
		}
		results <- run
	}()

	var coord string
	if n > 1 {
		select {
		case coord = <-ready:
		case err := <-errs:
			t.Fatalf("coordinator failed to start: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("coordinator never came up")
		}
		for r := 1; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if _, err := Run(Config{
					Rank: r, Ranks: n, Coord: coord,
					Spec: sp, Chunk: chunk, Seed: seed,
				}); err != nil {
					errs <- err
				}
			}(r)
		}
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster run timed out (deadlock?)")
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	select {
	case run := <-results:
		return run
	default:
		t.Fatal("rank 0 produced no result")
		return nil
	}
}

// testNode builds a node as Run does — validated, defaults filled in —
// for tests that drive the progress engine or the worker directly.
func testNode(t *testing.T, cfg Config) *node {
	t.Helper()
	if cfg.Spec == nil {
		cfg.Spec = &uts.BenchTiny
	}
	n, err := newNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// serveOn brings up n's progress engine on a loopback listener, down again
// when the test ends, and returns the address.
func serveOn(t *testing.T, n *node) string {
	t.Helper()
	ln, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.ln = ln
	go n.serve()
	t.Cleanup(n.close)
	return ln.Addr()
}

// silentPeer is a peer that accepts connections and never answers — a
// wedged process — until the test ends. Returns its address.
func silentPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	return ln.Addr().String()
}

// dialPeer opens a client connection to addr, closed when the test ends.
func dialPeer(t *testing.T, addr string) *peerConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return newPeerConn(conn)
}

func TestSingleRank(t *testing.T) {
	run := launch(t, 1, &uts.BenchTiny, 8, 0)
	if run.Nodes() != 3337 {
		t.Errorf("nodes = %d, want 3337", run.Nodes())
	}
}

func TestTwoRanks(t *testing.T) {
	run := launch(t, 2, &uts.BenchTiny, 4, 0)
	if run.Nodes() != 3337 || run.Leaves() != 1698 {
		t.Errorf("counts = (%d, %d), want (3337, 1698)", run.Nodes(), run.Leaves())
	}
	if len(run.Threads) != 2 {
		t.Errorf("collected stats from %d ranks", len(run.Threads))
	}
}

func TestFourRanksSteals(t *testing.T) {
	t.Parallel() // mostly a wait (main_test.go)
	run := launch(t, 4, stealTree, 8, 1)
	if run.Nodes() != stealTreeNodes {
		t.Errorf("nodes = %d, want %d", run.Nodes(), stealTreeNodes)
	}
	if run.Sum(func(th *stats.Thread) int64 { return th.Steals }) == 0 {
		t.Error("no steals happened across a 4-process run of an unbalanced tree")
	}
	// Work must actually distribute. OS scheduling can legitimately starve
	// one rank on a loaded single-core machine, so require participation
	// rather than perfection: at least two ranks explored nodes.
	participating := 0
	for i := range run.Threads {
		if run.Threads[i].Nodes > 0 {
			participating++
		}
	}
	if participating < 2 {
		t.Errorf("only %d of 4 ranks explored any nodes", participating)
	}
}

func TestEightRanksRepeated(t *testing.T) {
	t.Parallel() // mostly a wait (main_test.go)
	if testing.Short() {
		t.Skip("multi-process stress")
	}
	for seed := int64(0); seed < 3; seed++ {
		run := launch(t, 8, &uts.BenchTiny, 2, seed)
		if run.Nodes() != 3337 {
			t.Fatalf("seed %d: nodes = %d, want 3337", seed, run.Nodes())
		}
	}
}

func TestGeometricTreeCluster(t *testing.T) {
	run := launch(t, 3, &uts.GeoLinear, 8, 0)
	if run.Nodes() != 1132 {
		t.Errorf("nodes = %d, want 1132", run.Nodes())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Ranks: 0}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := Run(Config{Rank: 3, Ranks: 2, Spec: &uts.BenchTiny}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := Run(Config{Rank: 0, Ranks: 1}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := Run(Config{Rank: 0, Ranks: 1, Spec: &uts.BenchTiny, Chunk: -1}); err == nil {
		t.Error("negative chunk accepted")
	}
	bad := uts.Spec{Kind: uts.Binomial, B0: 2, M: 2, Q: 0.9}
	if _, err := Run(Config{Rank: 0, Ranks: 1, Spec: &bad}); err == nil {
		t.Error("supercritical spec accepted")
	}
}

func TestDialRetryTimesOut(t *testing.T) {
	t.Parallel() // mostly a wait (main_test.go)
	start := time.Now()
	_, err := testNode(t, Config{Ranks: 1}).dialRetry("127.0.0.1:1", 100*time.Millisecond) // port 1: nothing listens
	if err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("dialRetry ignored its timeout")
	}
}

// TestCoordinatorRejectsBadHello drives the bootstrap error paths with a
// hand-rolled client: a hello claiming an invalid rank must abort the
// coordinator with an error rather than hang the cluster.
func TestCoordinatorRejectsBadHello(t *testing.T) {
	ready := make(chan string, 1)
	errs := make(chan error, 1)
	go func() {
		_, err := Run(Config{
			Rank: 0, Ranks: 3, Coord: "127.0.0.1:0", CoordReady: ready,
			Spec: &uts.BenchTiny,
		})
		errs <- err
	}()
	coord := <-ready
	conn, err := net.Dial("tcp", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := newPeerConn(conn).send(&request{Kind: kindHello, From: 99, Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("coordinator accepted a hello from rank 99 of 3")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not reject the bad hello")
	}
}

// TestProgressEngineDropsUnknownRPC verifies the served-connection
// protocol-error path: an unknown request kind closes the connection.
func TestProgressEngineDropsUnknownRPC(t *testing.T) {
	n := testNode(t, Config{Rank: 1, Ranks: 2})
	pc := dialPeer(t, serveOn(t, n))

	// A valid one-sided read works.
	n.workAvail.Store(7)
	resp, err := pc.callOnce(&request{Kind: kindGetAvail}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Avail != 7 {
		t.Errorf("GetAvail = %d, want 7", resp.Avail)
	}

	// An unknown kind drops the connection.
	if _, err := pc.callOnce(&request{Kind: reqKind(200)}, 5*time.Second); err == nil {
		t.Error("connection survived an unknown RPC kind")
	}
}

// TestOneSidedCAS exercises the request-word claim semantics through the
// progress engine: first claim wins, second fails until the owner resets.
func TestOneSidedCAS(t *testing.T) {
	n := testNode(t, Config{Rank: 1, Ranks: 4})
	pc := dialPeer(t, serveOn(t, n))

	r1, err := pc.callOnce(&request{Kind: kindCASRequest, Thief: 2}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.OK {
		t.Fatal("first CAS failed on an empty request word")
	}
	r2, err := pc.callOnce(&request{Kind: kindCASRequest, Thief: 3}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r2.OK {
		t.Fatal("second CAS succeeded while the word was claimed")
	}
	n.reqWord.Store(-1) // owner resets after servicing
	r3, err := pc.callOnce(&request{Kind: kindCASRequest, Thief: 3}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.OK {
		t.Fatal("CAS failed after the owner reset the word")
	}
}

// TestCASRequestRejectsBadThief: the request word only ever holds a rank
// the worker can answer. A claim in the name of a rank outside [0, Ranks)
// — which the worker would index its peers with — or of this rank itself is
// a protocol error: the connection goes, the word stays free.
func TestCASRequestRejectsBadThief(t *testing.T) {
	n := testNode(t, Config{Rank: 1, Ranks: 2})
	for _, thief := range []int32{99, 2, -5, -1, 1} {
		var resp response
		if _, ok := n.handleRequest(&request{Kind: kindCASRequest, Thief: thief}, &resp); ok || resp.OK {
			t.Errorf("CAS for thief %d accepted (ok=%v, OK=%v)", thief, ok, resp.OK)
		}
		if w := n.reqWord.Load(); w != -1 {
			t.Fatalf("request word = %d after a CAS for thief %d, want it untouched", w, thief)
		}
	}
	var resp response
	if _, ok := n.handleRequest(&request{Kind: kindCASRequest, Thief: 0}, &resp); !ok || !resp.OK || n.reqWord.Load() != 0 {
		t.Errorf("CAS for the one valid thief: ok=%v OK=%v word=%d", ok, resp.OK, n.reqWord.Load())
	}
}

// TestBadThiefOnTheWire sends the same claims to a rank whose worker is
// live (rank 1, idle in the barrier; rank 0 is a bare progress engine).
// Unchecked, thief 99 had the worker index its connections out of range —
// a panic on the worker goroutine — and thief −5 claimed the word with a
// value the worker never clears, shutting every later thief out.
func TestBadThiefOnTheWire(t *testing.T) {
	n0 := testNode(t, Config{Rank: 0, Ranks: 2, Chunk: 4})
	n1 := testNode(t, Config{Rank: 1, Ranks: 2, Chunk: 4})
	n0.workAvail.Store(-1)
	n1.addrs = []string{serveOn(t, n0), serveOn(t, n1)}
	done := make(chan error, 1)
	go func() { done <- n1.runWorker() }()

	for _, thief := range []int32{99, -5} {
		req := request{Kind: kindCASRequest, From: 0, Thief: thief}
		if resp, err := dialPeer(t, n1.addrs[1]).callOnce(&req, 5*time.Second); err == nil {
			t.Errorf("CAS for thief %d answered (OK=%v), want the connection dropped", thief, resp.OK)
		}
	}
	// The word is free and the worker serving: rank 0's claim gets its denial.
	req := request{Kind: kindCASRequest, From: 0, Thief: 0}
	if resp, err := dialPeer(t, n1.addrs[1]).callOnce(&req, 5*time.Second); err != nil || !resp.OK {
		t.Fatalf("valid CAS after the bad ones: %+v, %v", resp, err)
	}
	eventually(t, n0.respReady.Load, "rank 1's worker never answered rank 0's claim")

	n0.barEnter(0) // everyone is inside: termination is announced
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rank 1 did not terminate")
	}
}

// TestPeerSetCloseUnderExchange: closeAll is the one call another goroutine
// may make on a set. It must unblock an exchange waiting out its deadline
// on a peer that accepts and never answers — what die and close rely on —
// and leave a set that dials nothing again.
func TestPeerSetCloseUnderExchange(t *testing.T) {
	n := testNode(t, Config{Rank: 0, Ranks: 2, RPCTimeout: time.Minute})
	n.addrs[1] = silentPeer(t)
	failed := make(chan error, 1)
	go func() {
		_, err := n.peers.exchange(1, &request{Kind: kindGetAvail}, n.cfg.RPCTimeout)
		failed <- err
	}()
	eventually(t, func() bool {
		n.peers.mu.Lock()
		defer n.peers.mu.Unlock()
		return n.peers.conns[1] != nil
	}, "the exchange never got its connection")
	n.peers.closeAll()
	select {
	case err := <-failed:
		if err == nil {
			t.Fatal("exchange with a silent peer succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("closeAll did not unblock the exchange")
	}
	if _, err := n.peers.exchange(1, &request{Kind: kindGetAvail}, n.cfg.RPCTimeout); !errors.Is(err, errSetClosed) {
		t.Errorf("exchange on a closed set: %v, want errSetClosed", err)
	}
	for r, pc := range n.peers.conns {
		if pc != nil {
			t.Errorf("closed set kept a connection to rank %d", r)
		}
	}
}
