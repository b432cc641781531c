package telemetry

import (
	"repro/internal/obs"
	"repro/internal/policy"
)

// RegisterSampler projects a live obs.Sampler into reg as the uts_*
// metric families. Every function pulls from Sampler.Stats() — the last
// periodic fold — so scrapes never trigger a fold themselves and the
// sampler's windowing cadence stays owned by its own goroutine. Values
// follow Prometheus conventions: durations in seconds, monotone tallies
// as counters, windowed rates and fractions as gauges, latency as a
// summary whose quantiles cover the last sample window while _sum/_count
// are cumulative.
//
// Nil-safe: with a nil sampler the families are still registered (so the
// exposition shape is stable) and read as zero.
func RegisterSampler(reg *Registry, s *obs.Sampler) {
	stat := func(f func(obs.LiveStats) float64) func() float64 {
		return func() float64 { return f(s.Stats()) }
	}
	reg.CounterFunc("uts_nodes_total", "Tree nodes expanded.", nil,
		stat(func(st obs.LiveStats) float64 { return float64(st.Nodes) }))
	reg.CounterFunc("uts_events_total", "Protocol events recorded across all PE lanes.", nil,
		stat(func(st obs.LiveStats) float64 { return float64(st.Events) }))
	reg.CounterFunc("uts_events_missed_total", "Events overwritten before the sampler read them.", nil,
		stat(func(st obs.LiveStats) float64 { return float64(st.Missed) }))
	reg.CounterFunc("uts_steals_total", "Successful steals (chunk transfers).", nil,
		stat(func(st obs.LiveStats) float64 { return float64(st.Steals) }))
	reg.CounterFunc("uts_steal_failures_total", "Steal attempts that came back empty.", nil,
		stat(func(st obs.LiveStats) float64 { return float64(st.FailedSteals) }))
	reg.CounterFunc("uts_probes_total", "Work-availability probes answered.", nil,
		stat(func(st obs.LiveStats) float64 { return float64(st.Probes) }))
	reg.CounterFunc("uts_releases_total", "Chunks released local to shared.", nil,
		stat(func(st obs.LiveStats) float64 { return float64(st.Releases) }))
	reg.CounterFunc("uts_reacquires_total", "Chunks reacquired shared to local.", nil,
		stat(func(st obs.LiveStats) float64 { return float64(st.Reacquires) }))

	for k := 0; k < obs.NumKinds; k++ {
		kind := obs.Kind(k)
		reg.CounterFunc("uts_events_kind_total", "Events recorded by kind.",
			[]Label{{"kind", kind.String()}},
			stat(func(st obs.LiveStats) float64 { return float64(st.Kinds[kind]) }))
	}

	reg.GaugeFunc("uts_events_per_second", "Event rate over the last sample window.", nil,
		stat(func(st obs.LiveStats) float64 { return st.EventsPerSec }))
	reg.GaugeFunc("uts_nodes_per_second", "Node expansion rate over the last sample window.", nil,
		stat(func(st obs.LiveStats) float64 { return st.NodesPerSec }))
	reg.GaugeFunc("uts_steals_per_second", "Steal rate over the last sample window.", nil,
		stat(func(st obs.LiveStats) float64 { return st.StealsPerSec }))
	reg.GaugeFunc("uts_virtual_time_seconds", "Newest virtual (DES) timestamp observed; 0 for real-time runs.", nil,
		stat(func(st obs.LiveStats) float64 { return st.Virt.Seconds() }))

	for i := 0; i < obs.NumStates; i++ {
		idx := i
		reg.GaugeFunc("uts_state_dwell_fraction", "Fraction of observed PE time in each Figure-1 state over the last window.",
			[]Label{{"state", obs.StateName(int64(i))}},
			stat(func(st obs.LiveStats) float64 { return st.DwellFrac[idx] }))
	}

	reg.SummaryFunc("uts_steal_latency_seconds", "Steal request-to-outcome round trip. Quantiles cover the last sample window; sum/count are cumulative.", nil,
		func() Summary {
			st := s.Stats()
			return Summary{
				Quantiles: []Quantile{
					{0.5, float64(st.StealLatency.Quantile(0.50)) / 1e9},
					{0.95, float64(st.StealLatency.Quantile(0.95)) / 1e9},
					{0.99, float64(st.StealLatency.Quantile(0.99)) / 1e9},
				},
				Sum:   float64(st.StealLatencyCum.Sum()) / 1e9,
				Count: st.StealLatencyCum.Count(),
			}
		})
	reg.SummaryFunc("uts_chunk_size_nodes", "Nodes obtained per successful steal (cumulative).", nil,
		func() Summary {
			st := s.Stats()
			return Summary{
				Quantiles: []Quantile{
					{0.5, float64(st.ChunkSize.Quantile(0.50))},
					{0.95, float64(st.ChunkSize.Quantile(0.95))},
					{0.99, float64(st.ChunkSize.Quantile(0.99))},
				},
				Sum:   float64(st.ChunkSize.Sum()),
				Count: st.ChunkSize.Count(),
			}
		})
}

// RegisterPolicy projects an adaptive controller set into reg as the
// uts_policy_* gauge families. Every value comes from Set.Snap() — the
// lock-free atomic knob mirrors — so scrapes never contend with the
// workers' adaptation windows. Gauges, not counters: the chunk spread
// and steal-half population move in both directions as the controllers
// track the workload.
//
// Nil-safe: with a nil set the families are still registered (stable
// exposition shape) and read as zero.
func RegisterPolicy(reg *Registry, ps *policy.Set) {
	snap := func(f func(policy.Snapshot) float64) func() float64 {
		return func() float64 { return f(ps.Snap()) }
	}
	reg.GaugeFunc("uts_policy_pes", "PEs under adaptive control (0 = controllers off).", nil,
		snap(func(sn policy.Snapshot) float64 { return float64(sn.PEs) }))
	reg.GaugeFunc("uts_policy_windows_total", "Adaptation windows closed across all PEs.", nil,
		snap(func(sn policy.Snapshot) float64 { return float64(sn.Windows) }))
	reg.GaugeFunc("uts_policy_chunk_min", "Smallest current chunk across PEs.", nil,
		snap(func(sn policy.Snapshot) float64 { return float64(sn.ChunkMin) }))
	reg.GaugeFunc("uts_policy_chunk_max", "Largest current chunk across PEs.", nil,
		snap(func(sn policy.Snapshot) float64 { return float64(sn.ChunkMax) }))
	reg.GaugeFunc("uts_policy_chunk_mean", "Mean current chunk across PEs.", nil,
		snap(func(sn policy.Snapshot) float64 { return sn.ChunkMean }))
	reg.GaugeFunc("uts_policy_poll_min", "Smallest current poll interval across PEs (mpi-ws).", nil,
		snap(func(sn policy.Snapshot) float64 { return float64(sn.PollMin) }))
	reg.GaugeFunc("uts_policy_poll_max", "Largest current poll interval across PEs (mpi-ws).", nil,
		snap(func(sn policy.Snapshot) float64 { return float64(sn.PollMax) }))
	reg.GaugeFunc("uts_policy_steal_half_on", "PEs currently stealing half instead of k.", nil,
		snap(func(sn policy.Snapshot) float64 { return float64(sn.StealHalfOn) }))
}
