package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/uts"
)

// metric is one reported number. Every metric carries its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options is one invocation: one workload, one mode.
type options struct {
	workload *workload
	seed     int64 // scheduler seed handed to the program (victim order)
	seconds  float64
	trace    bool
	sc       *scale
	outDir   string // where the traced run leaves <workload>.trace.json
}

// report is everything one invocation leaves behind; the last stdout line
// is its contract-shaped digest.
type report struct {
	Workload  string               `json:"workload"`
	Trace     int                  `json:"trace"`
	Seed      int64                `json:"seed"`
	Scale     string               `json:"scale"`
	Seconds   float64              `json:"seconds"`
	Tree      string               `json:"tree"`
	Tried     int                  `json:"tree_candidates_tried"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Noisy     bool                 `json:"noisy"` // host calibration drifted >10% across the run
	DriftPct  float64              `json:"host_calib_drift_pct"`
	Metrics   map[string]metric    `json:"metrics"`
	Absent    []string             `json:"absent,omitempty"`  // per-layer rows reported as 0: the workload does not run their substrate
	Samples   map[string][]float64 `json:"samples,omitempty"` // per-rep raw values
}

const noisyDriftPct = 10

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// runWorkload executes one invocation and returns its report. An error
// means no result could be produced at all (no tree, no successful rep);
// failed reps are reported inside the report instead.
func runWorkload(opt options) (*report, error) {
	b := &bench{opt: opt, metrics: map[string]metric{}, layout: uint64(opt.seed)}
	rep := &report{Workload: opt.workload.name, Seed: opt.seed,
		Scale: opt.sc.name, Seconds: opt.seconds, Samples: map[string][]float64{}}
	var err error
	if opt.trace {
		rep.Trace = 1
		err = b.runLayers(rep)
	} else {
		err = b.runEndToEnd(rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed, rep.Failures = b.attempted, len(b.failures), b.failures
	rep.Noisy = rep.DriftPct > noisyDriftPct || rep.DriftPct < -noisyDriftPct
	rep.Metrics = b.metrics
	return rep, nil
}

// timedSetUp runs setUp under a span — with one child span per tree
// candidate and one for the reference traversal — and returns the job with
// the seconds it took.
func (b *bench) timedSetUp(w *workload, g treeGen, parent int) (*job, float64, error) {
	sp := b.spans.begin(span{Name: "setup", Parent: parent, Rep: -1})
	defer b.spans.end(sp)
	child := b.spans.begin(span{Name: "tree-candidate", Parent: sp, Rep: 1})
	t0 := time.Now()
	j, err := setUp(w, g, b.opt.sc.pes, b.opt.seed, func(i int, nodes int64) {
		b.spans.end(child)
		next := span{Name: "tree-candidate", Parent: sp, Rep: i + 1}
		if nodes >= g.lo && nodes <= g.hi { // accepted: what follows is the reference traversal
			next = span{Name: "uts.SearchSequential (reference)", Parent: sp, Rep: -1}
		}
		child = b.spans.begin(next)
	})
	b.spans.end(child)
	return j, time.Since(t0).Seconds(), err
}

// runEndToEnd is the untraced run: set-up, one discarded warm-up rep, then
// timed reps for opt.seconds. End-to-end metrics come from here only. The
// two rates are read off the fastest rep: other tenants slow this kind of
// host by 20-40% for seconds to minutes at a time, which the median of a
// run follows and its fastest rep does not (README.md, "The bounds").
func (b *bench) runEndToEnd(rep *report) error {
	opt := b.opt
	calib0 := calibrate(2 * opt.sc.micro)
	j, first, err := b.timedSetUp(opt.workload, opt.sc.gen(opt.workload), -1)
	if err != nil {
		return err
	}
	rep.Tree, rep.Tried = j.spec.String(), j.tried
	setups := []float64{first}

	b.repsFor(j, "warmup", -1, 0, 1, variant{})
	timed := b.repsFor(j, "timed", -1, time.Duration(opt.seconds*float64(time.Second)), opt.sc.minReps, variant{})
	if len(timed) == 0 {
		return fmt.Errorf("%s: no timed rep succeeded: %v", opt.workload.name, b.failures)
	}

	// The remaining set-ups run after the reps: the first one may have
	// met a host still ramping up, and their median should not.
	for i := 1; i < opt.sc.setupReps; i++ {
		again, s, err := b.timedSetUp(opt.workload, opt.sc.gen(opt.workload), -1)
		if err != nil {
			return err
		}
		if *again.spec != *j.spec || again.ref.Nodes != j.ref.Nodes {
			return fmt.Errorf("set-up %d chose %s (%d nodes), set-up 0 chose %s (%d nodes)",
				i, again.spec, again.ref.Nodes, j.spec, j.ref.Nodes)
		}
		setups = append(setups, s)
	}
	rep.DriftPct = 100 * (calibrate(2*opt.sc.micro) - calib0) / calib0

	walls, cpus := column(timed, wallOf), column(timed, func(s *sample) float64 { return s.cpu })
	mnodes := float64(j.ref.Nodes) / 1e6
	b.set("setup_s", median(setups), "s")
	b.set("mnodes_per_s", mnodes/slices.Min(walls), "Mnodes/s")
	b.set("cpu_s_per_mnode", slices.Min(cpus)/mnodes, "s/Mnode")
	b.set("peak_rss_mb", peakRSSMiB(), "MiB")
	rep.Samples["setup_s"], rep.Samples["rep_wall_s"], rep.Samples["rep_cpu_s"] = setups, walls, cpus
	return nil
}

func column(ss []*sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func med(ss []*sample, f func(*sample) float64) float64 { return median(column(ss, f)) }

func wallOf(s *sample) float64 { return s.wall }

// medTotal is the median over reps of a per-thread counter summed over
// the threads.
func medTotal(ss []*sample, f func(*stats.Thread) int64) float64 {
	return med(ss, func(s *sample) float64 { return float64(s.run.Sum(f)) })
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runLayers is the traced run: the benchmark's own spans around every call
// into the program, the layer micro-measurements, and for the substrate the
// workload runs on a series of untraced reps followed by reps with the
// public Tracer on. Rows of the other two substrates are reported as 0 and
// listed in rep.Absent: every traced run prints every per-layer metric of
// BENCHMARK.json.
func (b *bench) runLayers(rep *report) error {
	opt := b.opt
	declared, err := loadManifest()
	if err != nil {
		return err
	}
	b.spans = newSpanLog(opt.workload.name)
	root := b.spans.begin(span{Name: "workload " + opt.workload.name, Parent: -1, Rep: -1})
	budget := time.Duration(opt.seconds * float64(time.Second))

	sp := b.spans.begin(span{Name: "host.calibrate", Parent: root, Rep: -1})
	calib0 := calibrate(2 * opt.sc.micro)
	b.spans.end(sp)

	j, _, err := b.timedSetUp(opt.workload, opt.sc.gen(opt.workload), root)
	if err != nil {
		return err
	}
	rep.Tree, rep.Tried = j.spec.String(), j.tried

	layers := b.spans.begin(span{Name: "layers", Parent: root, Rep: -1})
	b.microLayers(layers)
	b.utsLayer(j, layers)
	b.spans.end(layers)

	sec := b.spans.begin(span{Name: "section " + opt.workload.substrate, Parent: root, Rep: -1})
	var sum *obs.Summary
	switch opt.workload.substrate {
	case "core":
		sum = b.coreSection(j, sec, budget)
	case "des":
		sum = b.desSection(j, sec, budget)
	case "cluster":
		sum, err = b.clusterSection(j, sec, budget)
	}
	b.spans.end(sec)
	if err != nil {
		return err
	}

	sp = b.spans.begin(span{Name: "host.calibrate", Parent: root, Rep: -1})
	calib1 := calibrate(2 * opt.sc.micro)
	b.spans.end(sp)
	rep.DriftPct = 100 * (calib1 - calib0) / calib0
	b.set("host.calib_mhash_per_s", (calib0+calib1)/2, "Mhash/s")
	b.set("host.calib_drift_pct", rep.DriftPct, "%")

	for _, d := range declared.PerLayer {
		if _, measured := b.metrics[d.Name]; !measured {
			b.set(d.Name, 0, d.Unit)
			rep.Absent = append(rep.Absent, d.Name)
		}
	}
	b.spans.end(root)
	return b.spans.write(filepath.Join(opt.outDir, opt.workload.name+".trace.json"), summarize(sum))
}

const seqTraversals = 3

// seqRate is the plain single-threaded traversal rate on the job's tree,
// in nodes per second: the baseline every speedup divides by.
func (b *bench) seqRate(j *job, parent int) float64 {
	sp := b.spans.begin(span{Name: "uts.SearchSequential", Parent: parent, Rep: -1})
	defer b.spans.end(sp)
	rates := make([]float64, seqTraversals)
	for i := range rates {
		rates[i] = uts.SearchSequential(j.spec).Rate()
	}
	return median(rates)
}

func (b *bench) utsLayer(j *job, parent int) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rate := b.seqRate(j, parent)
	runtime.ReadMemStats(&m1)
	b.set("uts.seq_mnodes_per_s", rate/1e6, "Mnodes/s")
	b.set("uts.allocs_per_mnode", float64(m1.Mallocs-m0.Mallocs)/float64(seqTraversals*j.ref.Nodes)*1e6, "1/Mnode")
	b.set("uts.tree_nodes", float64(j.ref.Nodes), "count")
	b.set("uts.tree_leaves", float64(j.ref.Leaves), "count")
	b.set("uts.tree_max_depth", float64(j.ref.MaxDepth), "count")
}

// plainThenTraced runs the job untraced for half the budget and with a
// fresh public tracer per rep for the other half. It returns both series
// and the last traced rep's histogram summary (nil if none succeeded).
func (b *bench) plainThenTraced(j *job, parent int, budget time.Duration, newTracer func() *obs.Tracer) (plain, traced []*sample, sum *obs.Summary) {
	plain = b.repsFor(j, "untraced", parent, budget/2, b.opt.sc.layerReps, variant{})
	traced = b.repsFor(j, "traced", parent, budget/2, b.opt.sc.layerReps, variant{newTracer: newTracer})
	if len(traced) > 0 {
		sum = traced[len(traced)-1].run.Obs
	}
	return plain, traced, sum
}

// protocol reports the scheduler counters every substrate keeps in
// stats.Run (medians over the untraced reps; exact on des), the traced
// rep's steal latency, and the cost of tracing.
func (b *bench) protocol(prefix string, plain, traced []*sample, sum *obs.Summary) {
	steals := medTotal(plain, func(t *stats.Thread) int64 { return t.Steals })
	failed := medTotal(plain, func(t *stats.Thread) int64 { return t.FailedSteals })
	probes := medTotal(plain, func(t *stats.Thread) int64 { return t.Probes })
	b.set(prefix+".steals", steals, "count")
	b.set(prefix+".probes_per_steal", ratio(probes, steals), "ratio")
	b.set(prefix+".failed_steal_ratio", ratio(failed, failed+steals), "ratio")
	for _, st := range stats.States {
		b.set(prefix+".state_frac."+st.String(), med(plain, func(s *sample) float64 { return s.run.StateBreakdown()[st] }), "ratio")
	}
	var p50, p99 float64
	if sum != nil {
		p50, p99 = float64(sum.StealLatency.Quantile(0.50))/1e3, float64(sum.StealLatency.Quantile(0.99))/1e3
	}
	b.set(prefix+".steal_latency_p50_us", p50, "us")
	b.set(prefix+".steal_latency_p99_us", p99, "us")
	b.set(prefix+".trace_overhead_pct", 100*ratio(med(traced, wallOf)-med(plain, wallOf), med(plain, wallOf)), "%")
	// The end-to-end rates read the fastest rep; this row says how far the
	// typical rep is from it, so a change that slows most reps but not the
	// best one shows here.
	if walls := column(plain, wallOf); len(walls) > 0 {
		b.set("host.rep_median_over_fastest", median(walls)/slices.Min(walls), "ratio")
	}
}

// sweepAlgorithms is every scheduler of internal/core, in refinement order.
var sweepAlgorithms = []core.Algorithm{core.UPCSharedMem, core.UPCTerm, core.UPCTermRapdif,
	core.UPCTermRelaxed, core.UPCDistMem, core.UPCDistMemHier, core.MPIWS, core.Static}

func (b *bench) coreSection(j *job, parent int, budget time.Duration) *obs.Summary {
	seq := b.seqRate(j, parent)
	plain, traced, sum := b.plainThenTraced(j, parent, budget, func() *obs.Tracer { return obs.New(realThreads, 0) })
	b.protocol("core", plain, traced, sum)
	nodes := float64(j.ref.Nodes)
	releases := medTotal(plain, func(t *stats.Thread) int64 { return t.Releases })
	b.set("core.releases_per_knode", 1e3*releases/nodes, "1/knode")
	b.set("core.speedup_vs_seq", ratio(nodes, med(plain, wallOf))/seq, "ratio")

	// Every scheduler on the same tree at k=4: the flat-line check for a
	// refactor that is supposed to leave all of them alone.
	for _, alg := range sweepAlgorithms {
		reps := b.repsFor(j, "alg "+string(alg), parent, 0, b.opt.sc.layerReps, variant{alg: alg, chunk: 4})
		b.set("core.alg."+string(alg)+".mnodes_per_s", ratio(nodes/1e6, med(reps, wallOf)), "Mnodes/s")
	}
	return sum
}

func (b *bench) desSection(j *job, parent int, budget time.Duration) *obs.Summary {
	seq := b.seqRate(j, parent)
	// 1024-event rings: the histograms never wrap, and 256 default-sized
	// rings would cost ~100 MB.
	plain, traced, sum := b.plainThenTraced(j, parent, 3*budget/4, func() *obs.Tracer { return obs.NewVirtual(j.pes, 1024) })
	b.protocol("des", plain, traced, sum)
	if len(plain) == 0 {
		return sum
	}
	// Virtual-time facts: identical on every rep (rep checked), so the
	// first is as good as any.
	run, events, nodes := plain[0].run, float64(plain[0].events), float64(j.ref.Nodes)
	wall := med(plain, wallOf)
	b.set("des.events", events, "count")
	b.set("des.makespan_ms", float64(run.Elapsed)/1e6, "ms")
	b.set("des.steals_per_vsec", run.StealsPerSecond(), "1/s")
	b.set("des.sim_efficiency", run.Efficiency(), "ratio")
	b.set("des.events_per_s", events/wall, "1/s")
	// Computed, not measured: what is left of a rep once the time the
	// traversal alone would take is subtracted, per event.
	b.set("des.ns_per_event_net", 1e9*(wall-nodes/seq)/events, "ns")

	failuresBefore := len(b.failures)
	sharded := b.repsFor(j, "sharded2", parent, budget/4, 1, variant{shards: 2})
	b.set("des.sharded2_events_per_s", ratio(events, med(sharded, wallOf)), "1/s")
	identical := 0.0
	if len(sharded) > 0 && len(b.failures) == failuresBefore {
		identical = 1 // rep fails any rep whose counts, events or makespan differ from the batched reps
	}
	b.set("des.sharded2_identical", identical, "bool")

	adapt := b.repsFor(j, "adapt", parent, 0, 1, variant{adapt: &policy.Config{}})
	eff := 0.0
	if len(adapt) > 0 {
		eff = adapt[0].run.Efficiency()
	}
	b.set("policy.sim_efficiency_adapt", eff, "ratio")
	return sum
}

func (b *bench) clusterSection(j *job, parent int, budget time.Duration) (*obs.Summary, error) {
	plain, traced, sum := b.plainThenTraced(j, parent, 3*budget/4, func() *obs.Tracer { return obs.New(realThreads, 0) })
	b.protocol("cluster", plain, traced, sum)
	probes := medTotal(plain, func(t *stats.Thread) int64 { return t.Probes })
	b.set("cluster.probes", probes, "count")
	b.set("cluster.requests", medTotal(plain, func(t *stats.Thread) int64 { return t.Requests }), "count")

	// Computed from the loopback interface counters, so any other local
	// traffic during the rep is included; 0 when /proc/net/dev is
	// unreadable.
	wire := med(plain, func(s *sample) float64 { return float64(max(s.wire, 0)) })
	b.set("cluster.wire_kb_per_run", wire/1024, "KiB")
	b.set("cluster.wire_bytes_per_probe", ratio(wire, probes), "B")

	// The price of the transport: the same tree, chunk size and thread
	// count through core.Run.
	shared := &job{w: workloadByName("real_coarse"), spec: j.spec, ref: j.ref, seed: j.seed}
	direct := b.repsFor(shared, "same-tree core.Run", parent, budget/4, b.opt.sc.layerReps, variant{})
	b.set("cluster.vs_real_ratio", ratio(med(direct, wallOf), med(plain, wallOf)), "ratio")

	// A run that is nothing but bootstrap, barrier and stats gather.
	tiny, _, err := b.timedSetUp(j.w, b.opt.sc.fixed, parent)
	if err != nil {
		return nil, err
	}
	floor := b.repsFor(tiny, "fixed-overhead", parent, 0, b.opt.sc.fixedReps, variant{})
	b.set("cluster.fixed_overhead_ms", 1e3*med(floor, wallOf), "ms")
	return sum, nil
}
