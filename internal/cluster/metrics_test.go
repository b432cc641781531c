package cluster

import (
	"fmt"
	"net"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/uts"
)

// expositionLine matches one valid line of the Prometheus text format
// (version 0.0.4): a HELP/TYPE comment or a sample with optional labels.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN))$`)

// scrapeMetrics renders one exposition of reg and validates every line's
// syntax. It is empty until the rank has registered its families.
func scrapeMetrics(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	reg.WriteText(&b)
	body := b.String()
	if body == "" {
		return body
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	return body
}

// sampleValue finds the value of an exact sample line ("name" or
// "name{labels}"), or NaN-like -1 when absent.
func sampleValue(body, series string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// TestMetricsRollup brings up a 3-rank in-process cluster with a registry
// on every rank and reads rank 0's during the linger window: the
// exposition must be syntactically valid and the rollup must show every
// rank up, the per-rank families populated, and the cluster-wide node sum
// equal to the tree's exact size.
func TestMetricsRollup(t *testing.T) {
	const n = 3
	old := runtime.GOMAXPROCS(n + 1)
	defer runtime.GOMAXPROCS(old)
	sp := &uts.BenchTiny
	const linger = 4 * time.Second

	ready := make(chan string, 1)
	regs := make([]*telemetry.Registry, n)
	for r := range regs {
		regs[r] = telemetry.NewRegistry()
	}
	errs := make(chan error, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := Run(Config{
			Rank: 0, Ranks: n, Coord: "127.0.0.1:0", CoordReady: ready,
			Spec: sp, Chunk: 4, Seed: 0,
			Metrics: regs[0], MetricsLinger: linger,
		}); err != nil {
			errs <- err
		}
	}()
	var coord string
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
				Spec: sp, Chunk: 4, Seed: 0,
				Metrics: regs[r], MetricsLinger: linger,
			}); err != nil {
				errs <- err
			}
		}(r)
	}
	// The families appear once rank 0 is past bootstrap, the samplers fold
	// once a second and the rollup caches for a second, so poll until the
	// cluster-wide totals converge on the finished run.
	wantNodes := float64(3337)
	deadline := time.Now().Add(10*time.Second + linger)
	var body string
	for {
		body = scrapeMetrics(t, regs[0])
		nodes, _ := sampleValue(body, "uts_cluster_nodes_total")
		up, _ := sampleValue(body, "uts_cluster_ranks_up")
		if nodes == wantNodes && up == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollup never converged (nodes=%v up=%v); last scrape:\n%s", nodes, up, body)
		}
		time.Sleep(300 * time.Millisecond)
	}

	for r := 0; r < n; r++ {
		if v, ok := sampleValue(body, fmt.Sprintf("uts_rank_up{rank=%q}", strconv.Itoa(r))); !ok || v != 1 {
			t.Errorf("uts_rank_up{rank=%d} = %v (present=%v), want 1", r, v, ok)
		}
	}
	perRank := strings.Count(body, "uts_rank_nodes_total{rank=")
	if perRank < 2 {
		t.Errorf("per-rank nodes series from %d ranks, want >= 2", perRank)
	}
	for _, series := range []string{
		"uts_dead_peers", "uts_suspected_ranks", "uts_handoff_pending",
		"uts_cluster_steals_total", "uts_cluster_rpc_retries_total",
		"uts_cluster_dead_peers", "go_goroutines",
	} {
		if _, ok := sampleValue(body, series); !ok {
			t.Errorf("series %s missing from the rollup exposition", series)
		}
	}
	if v, ok := sampleValue(body, "uts_dead_peers"); !ok || v != 0 {
		t.Errorf("uts_dead_peers = %v, want 0 on a healthy cluster", v)
	}
	if !strings.Contains(body, `uts_steal_latency_seconds{quantile="0.95"}`) {
		t.Error("local steal-latency summary missing from rank 0's exposition")
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster run timed out")
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestRollupPollDownRank: past bootstrap a refused connection means the
// rank is gone, so a scrape makes one bounded attempt toward it — not a
// retrying dial for a whole RPCTimeout (5 s here) per such rank with the
// rollup's lock held — and reports that rank, and only it, down. Telemetry
// observes the failure detector; it passes no verdict.
func TestRollupPollDownRank(t *testing.T) {
	n0 := testNode(t, Config{Rank: 0, Ranks: 3})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // rank 2 has exited; nobody marked it dead
	n0.addrs = []string{"", serveOn(t, testNode(t, Config{Rank: 1, Ranks: 3})), ln.Addr().String()}
	ru := &rollup{peers: newPeerSet(n0)}
	defer ru.peers.closeAll()

	start := time.Now()
	rows := ru.poll(n0)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("poll took %v with one rank down, want one refused dial", elapsed)
	}
	if len(rows[0]) != len(rollupFamilies) || len(rows[1]) != len(rollupFamilies) {
		t.Errorf("live ranks reported down: %v", rows)
	}
	if rows[2] != nil {
		t.Errorf("exited rank reported up: %v", rows[2])
	}
	if n0.isDead(2) {
		t.Error("a scrape passed a death verdict")
	}
}

// TestRollupRowLength: a row arrives off the wire, so one that is not one
// value a family — a peer built with another table — reads as that rank
// down on this scrape, not as values under the wrong names. It passes no
// death verdict either.
func TestRollupRowLength(t *testing.T) {
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
			go func() {
				defer conn.Close()
				pc := newPeerConn(conn)
				var req request
				for pc.recv(&req) == nil {
					if pc.send(&response{Kind: req.Kind, Metrics: make([]float64, len(rollupFamilies)+1)}) != nil {
						return
					}
				}
			}()
		}
	}()
	n0 := testNode(t, Config{Rank: 0, Ranks: 2})
	n0.addrs = []string{"", ln.Addr().String()}
	n0.roll = &rollup{peers: newPeerSet(n0)}
	defer n0.roll.peers.closeAll()

	var b strings.Builder
	n0.writeRollup(&b)
	body := b.String()
	for series, want := range map[string]float64{
		`uts_rank_up{rank="0"}`: 1, `uts_rank_up{rank="1"}`: 0, "uts_cluster_ranks_up": 1,
	} {
		if v, ok := sampleValue(body, series); !ok || v != want {
			t.Errorf("%s = %v (present=%v), want %v", series, v, ok, want)
		}
	}
	if strings.Contains(body, `uts_rank_nodes_total{rank="1"}`) {
		t.Error("a row of the wrong length was reported")
	}
	if n0.isDead(1) {
		t.Error("a scrape passed a death verdict")
	}
}
