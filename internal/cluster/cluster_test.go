package cluster

import (
	"encoding/gob"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/uts"
)

// launch runs an in-process cluster of n ranks over real TCP loopback and
// returns rank 0's aggregated result.
//
// The intended deployment is one OS process per rank, where the operating
// system timeshares ranks preemptively. Hosting all ranks in one test
// process on a single-core machine would let one worker goroutine
// monopolize the sole P between ~10ms async preemptions, so the harness
// raises GOMAXPROCS to give each rank an OS thread.
func launch(t *testing.T, n int, sp *uts.Spec, chunk int, seed int64) *stats.Run {
	t.Helper()
	old := runtime.GOMAXPROCS(n + 1)
	defer runtime.GOMAXPROCS(old)
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
	if run.Nodes() != 9332 {
		t.Errorf("nodes = %d, want 9332", run.Nodes())
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
	start := time.Now()
	_, err := dialRetry("127.0.0.1:1", 100*time.Millisecond) // port 1: nothing listens
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
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(&request{Kind: kindHello, From: 99, Addr: "127.0.0.1:1"}); err != nil {
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
	n := newNode(Config{Rank: 1, Ranks: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.ln = ln
	go n.serve()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)

	// A valid one-sided read works.
	n.workAvail.Store(7)
	if err := enc.Encode(&request{Kind: kindGetAvail}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Avail != 7 {
		t.Errorf("GetAvail = %d, want 7", resp.Avail)
	}

	// An unknown kind drops the connection.
	if err := enc.Encode(&request{Kind: reqKind(200)}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := dec.Decode(&resp); err == nil {
		t.Error("connection survived an unknown RPC kind")
	}
}

// TestOneSidedCAS exercises the request-word claim semantics through the
// progress engine: first claim wins, second fails until the owner resets.
func TestOneSidedCAS(t *testing.T) {
	n := newNode(Config{Rank: 1, Ranks: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.ln = ln
	go n.serve()

	pc := func() *peerConn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return &peerConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	}()
	defer pc.conn.Close()

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
