package cluster

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// MetricsSnapshot is one rank's live telemetry view, served by the
// progress engine over the kindMetrics RPC. Everything in it is read
// from the sampler's last fold or from lock-free/mutex-protected node
// state, so serving it never touches the worker thread — it is as
// one-sided as a GetAvail. On the wire it is every field in turn, 8 bytes
// each (putMetrics): a field added here needs its entry there.
type MetricsSnapshot struct {
	Rank          int
	UptimeSeconds float64

	// Scheduler progress (cumulative).
	Nodes, Events, Missed                              int64
	Steals, FailedSteals, Probes, Releases, Reacquires int64

	// Windowed rates and steal-latency quantiles (ns) from the sampler's
	// last window; StealCount is the cumulative round-trip count.
	NodesPerSec, EventsPerSec, StealsPerSec float64
	StealP50Ns, StealP95Ns, StealP99Ns      int64
	StealCount                              int64

	// Fault-tolerance state: peers this rank has declared dead, ranks the
	// coordinator suspects (rank 0 only), RPC retry events recorded, and
	// handoff-table entries awaiting a thief's fetch.
	DeadPeers, SuspectedRanks, RPCRetries, HandoffPending int64
}

// metricsSnapshot builds this rank's snapshot. Safe from any goroutine
// (the progress engine serves it concurrently with the worker).
func (n *node) metricsSnapshot() *MetricsSnapshot {
	st := n.sampler.Load().Stats() // nil-safe: zero stats when telemetry is off (or not up yet)
	m := &MetricsSnapshot{
		Rank:          n.cfg.Rank,
		UptimeSeconds: st.Elapsed.Seconds(),
		Nodes:         st.Nodes,
		Events:        st.Events,
		Missed:        st.Missed,
		Steals:        st.Steals,
		FailedSteals:  st.FailedSteals,
		Probes:        st.Probes,
		Releases:      st.Releases,
		Reacquires:    st.Reacquires,
		NodesPerSec:   st.NodesPerSec,
		EventsPerSec:  st.EventsPerSec,
		StealsPerSec:  st.StealsPerSec,
		StealP50Ns:    st.StealLatency.Quantile(0.50),
		StealP95Ns:    st.StealLatency.Quantile(0.95),
		StealP99Ns:    st.StealLatency.Quantile(0.99),
		StealCount:    st.StealLatencyCum.Count(),

		RPCRetries:     st.Kinds[obs.KindRPCRetry],
		DeadPeers:      n.deadCount(),
		HandoffPending: int64(n.handoff.Pending()),
	}
	if n.cfg.Rank == 0 {
		m.SuspectedRanks = int64(len(n.suspectedRanks()))
	}
	return m
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
	cache []*MetricsSnapshot
}

// minPollGap bounds how often a scrape storm can re-poll the cluster.
const minPollGap = time.Second

// poll returns a per-rank snapshot slice (nil entries = unreachable),
// cached for minPollGap between scrapes.
func (ru *rollup) poll(n *node) []*MetricsSnapshot {
	ru.mu.Lock()
	defer ru.mu.Unlock()
	if ru.cache != nil && time.Since(ru.last) < minPollGap {
		return ru.cache
	}
	snaps := make([]*MetricsSnapshot, n.cfg.Ranks)
	for r := 0; r < n.cfg.Ranks; r++ {
		switch {
		case r == n.cfg.Rank:
			snaps[r] = n.metricsSnapshot()
		case n.isDead(r):
			// Skipped like probe cycles: no traffic toward a declared-dead
			// rank, it just reports down.
		default:
			snaps[r] = ru.pollRank(n, r)
		}
	}
	ru.cache = snaps
	ru.last = time.Now()
	return snaps
}

// pollRank fetches one rank's snapshot; nil when the exchange failed.
func (ru *rollup) pollRank(n *node, r int) *MetricsSnapshot {
	resp, err := ru.peers.exchange(r, &request{Kind: kindMetrics, From: n.cfg.Rank}, n.cfg.RPCTimeout)
	if err != nil {
		return nil
	}
	return resp.Metrics
}

// rollupFamily describes one exposition family of the rollup: its
// per-rank value plus how the cluster-level aggregate combines ranks
// (sum for tallies, nothing for rates — those don't aggregate across
// asynchronous windows).
type rollupFamily struct {
	name, help, typ string
	value           func(*MetricsSnapshot) float64
	sum             bool
}

var rollupFamilies = []rollupFamily{
	{"uts_rank_nodes_total", "Tree nodes expanded, per rank.", "counter",
		func(m *MetricsSnapshot) float64 { return float64(m.Nodes) }, true},
	{"uts_rank_events_total", "Protocol events recorded, per rank.", "counter",
		func(m *MetricsSnapshot) float64 { return float64(m.Events) }, true},
	{"uts_rank_steals_total", "Successful steals, per rank.", "counter",
		func(m *MetricsSnapshot) float64 { return float64(m.Steals) }, true},
	{"uts_rank_steal_failures_total", "Failed steal attempts, per rank.", "counter",
		func(m *MetricsSnapshot) float64 { return float64(m.FailedSteals) }, true},
	{"uts_rank_rpc_retries_total", "RPC retry events, per rank.", "counter",
		func(m *MetricsSnapshot) float64 { return float64(m.RPCRetries) }, true},
	{"uts_rank_dead_peers", "Peers each rank has declared dead.", "gauge",
		func(m *MetricsSnapshot) float64 { return float64(m.DeadPeers) }, true},
	{"uts_rank_handoff_pending", "Pending handoff reservations, per rank.", "gauge",
		func(m *MetricsSnapshot) float64 { return float64(m.HandoffPending) }, true},
	{"uts_rank_nodes_per_second", "Windowed node expansion rate, per rank.", "gauge",
		func(m *MetricsSnapshot) float64 { return m.NodesPerSec }, false},
	{"uts_rank_steal_latency_p95_seconds", "Windowed steal-latency p95, per rank.", "gauge",
		func(m *MetricsSnapshot) float64 { return float64(m.StealP95Ns) / 1e9 }, false},
}

// writeRollup appends the cluster-wide rollup to rank 0's exposition: an
// up gauge and the per-rank families (rank label), then the cluster
// aggregates over the reachable ranks.
func (n *node) writeRollup(w io.Writer) {
	snaps := n.roll.poll(n)

	fmt.Fprintf(w, "# HELP uts_rank_up Whether the rank answered the last rollup poll.\n# TYPE uts_rank_up gauge\n")
	up := 0
	for r, m := range snaps {
		v := 0
		if m != nil {
			v = 1
			up++
		}
		fmt.Fprintf(w, "uts_rank_up{rank=\"%d\"} %d\n", r, v)
	}

	for _, f := range rollupFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for r, m := range snaps {
			if m == nil {
				continue
			}
			fmt.Fprintf(w, "%s{rank=\"%d\"} %s\n", f.name, r, telemetry.FormatValue(f.value(m)))
		}
	}

	fmt.Fprintf(w, "# HELP uts_cluster_ranks_up Ranks that answered the last rollup poll.\n# TYPE uts_cluster_ranks_up gauge\nuts_cluster_ranks_up %d\n", up)
	for _, f := range rollupFamilies {
		if !f.sum {
			continue
		}
		var total float64
		for _, m := range snaps {
			if m != nil {
				total += f.value(m)
			}
		}
		name := "uts_cluster" + f.name[len("uts_rank"):]
		fmt.Fprintf(w, "# HELP %s Cluster-wide sum over reachable ranks.\n# TYPE %s %s\n%s %s\n", name, name, f.typ, name, telemetry.FormatValue(total))
	}
}
