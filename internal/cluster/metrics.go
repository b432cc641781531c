package cluster

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// rollupRow is this rank's row of rank 0's rollup: every family's value,
// in table order. Everything in it is read from the sampler's last fold or
// from lock-free/mutex-protected node state, so serving it never touches
// the worker thread — it is as one-sided as a GetAvail. Safe from any
// goroutine (the progress engine serves it concurrently with the worker).
func (n *node) rollupRow() []float64 {
	st := n.sampler.Load().Stats() // nil-safe: zero stats when telemetry is off (or not up yet)
	row := make([]float64, len(rollupFamilies))
	for i, f := range rollupFamilies {
		row[i] = f.value(n, &st)
	}
	return row
}

// deadCount is how many peers this rank has locally declared dead.
func (n *node) deadCount() int64 {
	var c int64
	for r := range n.dead {
		if n.dead[r].Load() {
			c++
		}
	}
	return c
}

// startMetrics brings up this rank's telemetry plane in Config.Metrics: a
// sampler over the tracer (created here when the run is otherwise
// untraced — sampling requires lanes to read), the uts_*/go_* families,
// and — on rank 0 — the cluster rollup appender. Called after bootstrap
// (the rollup needs the address map); no-op when Config.Metrics is nil.
func (n *node) startMetrics() {
	cfg := &n.cfg
	reg := cfg.Metrics
	if reg == nil {
		return
	}
	if cfg.Tracer == nil {
		// Observation-only: the tracer's record path is lock-free and
		// zero-alloc, so turning it on for telemetry leaves the schedule
		// and counters byte-identical (the differential gates prove it).
		cfg.Tracer = obs.New(cfg.Ranks, 0)
		n.lane = cfg.Tracer.Lane(cfg.Rank)
	}
	sampler := obs.NewSampler(cfg.Tracer)
	n.sampler.Store(sampler)

	reg.GaugeFunc("uts_rank", "This process's rank.", nil,
		func() float64 { return float64(cfg.Rank) })
	reg.GaugeFunc("uts_cluster_ranks", "Configured cluster size.", nil,
		func() float64 { return float64(cfg.Ranks) })
	reg.GaugeFunc("uts_dead_peers", "Peers this rank has declared dead.", nil,
		func() float64 { return float64(n.deadCount()) })
	reg.GaugeFunc("uts_suspected_ranks", "Ranks the coordinator suspects dead (0 on non-coordinators).", nil,
		func() float64 {
			if cfg.Rank != 0 {
				return 0
			}
			return float64(len(n.suspectedRanks()))
		})
	reg.GaugeFunc("uts_handoff_pending", "Handoff-table entries reserved but not yet fetched.", nil,
		func() float64 { return float64(n.handoff.Pending()) })
	telemetry.RegisterSampler(reg, sampler)
	telemetry.RegisterPolicy(reg, n.pset)
	telemetry.RegisterRuntime(reg)

	if cfg.Rank == 0 {
		n.roll = &rollup{peers: newPeerSet(n)}
		reg.OnScrape(n.writeRollup)
	}
	sampler.Start(time.Second)
}

// stopMetrics lingers (so a scraper of the registry can observe the
// finished run), then stops the sampler and closes the rollup's
// connections. The progress engine keeps serving kindMetrics during the
// linger — n.close has not run yet — so rank 0's rollup stays complete
// while every rank lingers the same window. The registry stays readable
// after Run returns: the families read the last fold, and rank 0's rollup
// reports every other rank down.
func (n *node) stopMetrics() {
	if n.cfg.Metrics == nil {
		return
	}
	if n.cfg.MetricsLinger > 0 {
		time.Sleep(n.cfg.MetricsLinger)
	}
	n.sampler.Load().Stop()
	if n.roll != nil {
		n.roll.peers.closeAll()
	}
}

// rollup is rank 0's cluster-wide metrics poller. It keeps its own
// connection set — never the worker's — because a set serves one caller at
// a time and the rollup runs on whatever goroutines read the registry (an
// HTTP handler's, in uts-dist; mu makes them one).
// Polls are single attempt with no retry and no death verdict: telemetry
// must observe the failure detector, not feed it, so an unreachable rank
// merely reports as down on this scrape.
type rollup struct {
	mu    sync.Mutex
	peers *peerSet
	last  time.Time
	cache [][]float64
}

// minPollGap bounds how often a scrape storm can re-poll the cluster.
const minPollGap = time.Second

// poll returns a per-rank row slice (nil entries = down), cached for
// minPollGap between scrapes.
func (ru *rollup) poll(n *node) [][]float64 {
	ru.mu.Lock()
	defer ru.mu.Unlock()
	if ru.cache != nil && time.Since(ru.last) < minPollGap {
		return ru.cache
	}
	rows := make([][]float64, n.cfg.Ranks)
	for r := 0; r < n.cfg.Ranks; r++ {
		switch {
		case r == n.cfg.Rank:
			rows[r] = n.rollupRow()
		case n.isDead(r):
			// Skipped like probe cycles: no traffic toward a declared-dead
			// rank, it just reports down.
		default:
			rows[r] = ru.pollRank(n, r)
		}
	}
	ru.cache = rows
	ru.last = time.Now()
	return rows
}

// pollRank fetches one rank's row; nil when the exchange failed or the row
// does not hold one value per family (it came off the wire).
func (ru *rollup) pollRank(n *node, r int) []float64 {
	resp, err := ru.peers.exchange(r, &request{Kind: kindMetrics, From: n.cfg.Rank}, n.cfg.RPCTimeout)
	if err != nil || len(resp.Metrics) != len(rollupFamilies) {
		return nil
	}
	return resp.Metrics
}

// rollupFamily describes one exposition family of the rollup: how a rank
// reads its value plus how the cluster-level aggregate combines ranks
// (sum for tallies, nothing for rates — those don't aggregate across
// asynchronous windows). A family is one entry here: the row a rank
// serves over kindMetrics is these values in this order.
type rollupFamily struct {
	name, help, typ string
	value           func(*node, *obs.LiveStats) float64
	sum             bool
}

var rollupFamilies = []rollupFamily{
	{"uts_rank_nodes_total", "Tree nodes expanded, per rank.", "counter",
		func(_ *node, st *obs.LiveStats) float64 { return float64(st.Nodes) }, true},
	{"uts_rank_events_total", "Protocol events recorded, per rank.", "counter",
		func(_ *node, st *obs.LiveStats) float64 { return float64(st.Events) }, true},
	{"uts_rank_steals_total", "Successful steals, per rank.", "counter",
		func(_ *node, st *obs.LiveStats) float64 { return float64(st.Steals) }, true},
	{"uts_rank_steal_failures_total", "Failed steal attempts, per rank.", "counter",
		func(_ *node, st *obs.LiveStats) float64 { return float64(st.FailedSteals) }, true},
	{"uts_rank_rpc_retries_total", "RPC retry events, per rank.", "counter",
		func(_ *node, st *obs.LiveStats) float64 { return float64(st.Kinds[obs.KindRPCRetry]) }, true},
	{"uts_rank_dead_peers", "Peers each rank has declared dead.", "gauge",
		func(n *node, _ *obs.LiveStats) float64 { return float64(n.deadCount()) }, true},
	{"uts_rank_handoff_pending", "Pending handoff reservations, per rank.", "gauge",
		func(n *node, _ *obs.LiveStats) float64 { return float64(n.handoff.Pending()) }, true},
	{"uts_rank_nodes_per_second", "Windowed node expansion rate, per rank.", "gauge",
		func(_ *node, st *obs.LiveStats) float64 { return st.NodesPerSec }, false},
	{"uts_rank_steal_latency_p95_seconds", "Windowed steal-latency p95, per rank.", "gauge",
		func(_ *node, st *obs.LiveStats) float64 { return float64(st.StealLatency.Quantile(0.95)) / 1e9 }, false},
}

// writeRollup appends the cluster-wide rollup to rank 0's exposition: an
// up gauge and the per-rank families (rank label), then the cluster
// aggregates over the reachable ranks.
func (n *node) writeRollup(w io.Writer) {
	rows := n.roll.poll(n)

	fmt.Fprintf(w, "# HELP uts_rank_up Whether the rank answered the last rollup poll.\n# TYPE uts_rank_up gauge\n")
	up := 0
	for r, row := range rows {
		v := 0
		if row != nil {
			v = 1
			up++
		}
		fmt.Fprintf(w, "uts_rank_up{rank=\"%d\"} %d\n", r, v)
	}

	for i, f := range rollupFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for r, row := range rows {
			if row == nil {
				continue
			}
			fmt.Fprintf(w, "%s{rank=\"%d\"} %s\n", f.name, r, telemetry.FormatValue(row[i]))
		}
	}

	fmt.Fprintf(w, "# HELP uts_cluster_ranks_up Ranks that answered the last rollup poll.\n# TYPE uts_cluster_ranks_up gauge\nuts_cluster_ranks_up %d\n", up)
	for i, f := range rollupFamilies {
		if !f.sum {
			continue
		}
		var total float64
		for _, row := range rows {
			if row != nil {
				total += row[i]
			}
		}
		name := "uts_cluster" + f.name[len("uts_rank"):]
		fmt.Fprintf(w, "# HELP %s Cluster-wide sum over reachable ranks.\n# TYPE %s %s\n%s %s\n", name, name, f.typ, name, telemetry.FormatValue(total))
	}
}
