package des

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/uts"
)

// Config configures a simulated run.
type Config struct {
	// Algorithm is any of the five parallel implementations of
	// internal/core (the Sequential pseudo-algorithm is not simulated).
	Algorithm core.Algorithm
	// PEs is the number of simulated processing elements.
	PEs int
	// Chunk is the steal granularity k in nodes; default 16.
	Chunk int
	// Model is the machine profile; nil means pgas.KittyHawk (a cluster —
	// simulating a zero-latency machine is better done with the real
	// goroutine implementation). Zero cost entries are clamped to 1ns so
	// that poll loops always advance virtual time.
	Model *pgas.Model
	// PollInterval is the number of nodes an mpi-ws rank explores between
	// message-queue polls; default 8.
	PollInterval int
	// Seed randomizes probe orders.
	Seed int64
	// NodeSize, when >= 2, groups PEs into cluster nodes of NodeSize
	// consecutive IDs; references between same-node PEs are charged to
	// Intra instead of Model. Only the distributed-memory protocols are
	// topology-aware (the paper's Section 6.2 direction).
	NodeSize int
	// Intra is the intra-node cost model used with NodeSize.
	Intra *pgas.Model
	// Tracer, when non-nil, records the steal-protocol event stream —
	// one lane per PE, stamped with virtual time (build it with
	// obs.NewVirtual(PEs, ringSize)). Recording costs no virtual time,
	// so traced runs are bit-identical to untraced ones.
	Tracer *obs.Tracer
	// Adapt, when non-nil, gives every simulated PE a closed-loop
	// controller (internal/policy) that adapts the chunk size, the
	// steal-half selection, and the mpi-ws poll interval from windowed
	// steal feedback. Windows are measured in virtual time, so adaptive
	// runs stay deterministic across engines. A zero
	// Adapt.Window derives a window from the machine model: 16 remote
	// references or 64 node expansions, whichever is longer. Nil keeps
	// every knob fixed and the simulation byte-identical to earlier
	// releases.
	Adapt *policy.Config
	// Shards selects nothing: at any value the run is the batched engine's
	// on the calling goroutine, bit-identical to the run with Shards 0. It
	// stays because callers set it — the benchmark's identity row runs each
	// sim_* workload at Shards 2 — and a negative value is still an error
	// (DESIGN.md §12).
	Shards int

	// reference runs the simulation on the legacy reference engine
	// (legacy.go) instead of the batched one. Only this package's tests
	// can set it: the reference pins the schedule, nobody runs on it.
	reference bool
	// ends, when it has room for PEs entries, receives every PE's own finish
	// instant; a Result carries only the latest, as Elapsed. Set by this
	// package's tests alone, like reference.
	ends []time.Duration
}

// EngineBatched is the engine every run uses, as Info.Engine reports it.
const EngineBatched = "batched"

// Info reports engine-level facts about a completed simulation.
type Info struct {
	// Engine is the engine that ran: EngineBatched.
	Engine string
	// Events is the number of simulated-time boundaries the run passed —
	// popped, committed inline or counted; it is identical across engines
	// for the same configuration, so events per wall second compares pure
	// engine overhead.
	Events uint64
	// Lookahead is the width of the windows a windowed (mpi-ws) run was
	// dispatched in: the minimum virtual latency separating any cross-PE
	// effect from its decision instant, derived from the clamped cost
	// model. 0 for a run dispatched event by event.
	Lookahead time.Duration
	// Pops is the number of events that came off the event heap, its parked
	// slot or a windowed run's calendar; Events − Pops − Counted committed
	// inline.
	Pops uint64
	// Counted is the number of boundaries that were counted without being
	// dispatched: the polls of a sleeping PE that nothing could answer — an
	// idle mpi-ws rank's, a searching UPC PE's probes of words no write
	// reached (core.StepSleep). 0 under the legacy engine, which steps
	// every poll. Both counts are exact and, on the batched engine, a
	// function of the configuration alone.
	Counted uint64
	// Wakes is what ended the counted sleeps of searching PEs and how many
	// queued wakes moved earlier; exact like the two above, zero where
	// every poll is stepped.
	Wakes Wakes
}

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = core.UPCDistMem
	}
	if c.PEs == 0 {
		c.PEs = 1
	}
	if c.Chunk == 0 {
		c.Chunk = 16
	}
	if c.Model == nil {
		c.Model = &pgas.KittyHawk
	}
	if c.PollInterval == 0 {
		c.PollInterval = 8
	}
	return c
}

// batch is the number of nodes a UPC-variant or static PE explores between
// protocol service points: request polling happens per node in the real
// implementation; the simulator batches it to bound event counts.
func (c Config) batch() int { return min(c.Chunk, 8) }

// costs holds the clamped per-operation virtual costs for a run.
type costs struct {
	localRef  time.Duration
	remoteRef time.Duration
	lockRTT   time.Duration
	nodeCost  time.Duration
	perKB     time.Duration
	respPoll  time.Duration // thief's poll interval while awaiting a response
	idlePoll  time.Duration // mpi-ws idle loop poll interval
	iprobe    time.Duration // mpi-ws per-poll message-queue check (MPI_Iprobe)
}

func newCosts(m *pgas.Model) costs {
	clamp := func(d, min time.Duration) time.Duration {
		if d < min {
			return min
		}
		return d
	}
	c := costs{
		localRef:  clamp(m.LocalRef, time.Nanosecond),
		remoteRef: clamp(m.RemoteRef, time.Nanosecond),
		nodeCost:  clamp(m.NodeCost, time.Nanosecond),
		perKB:     m.PerKB,
		lockRTT:   clamp(m.LockRTT, m.RemoteRef),
	}
	c.lockRTT = clamp(c.lockRTT, time.Nanosecond)
	c.respPoll = clamp(c.remoteRef/4, 100*time.Nanosecond)
	c.idlePoll = clamp(c.remoteRef/4, 250*time.Nanosecond)
	// An MPI message-queue poll costs real library time on every check,
	// even when no message is pending — the overhead the paper's one-sided
	// protocol avoids (a UPC victim polls a local word instead). Scaled to
	// the interconnect: ~1/8 of a remote reference, at least the local
	// reference cost.
	c.iprobe = clamp(c.remoteRef/8, c.localRef)
	return c
}

// bulk returns the one-sided transfer cost of n bytes.
func (c *costs) bulk(n int) time.Duration {
	return c.remoteRef + time.Duration(int64(c.perKB)*int64(n)/1024)
}

// Sample is one point of a diffusion trace.
type Sample struct {
	T time.Duration // virtual instant of the change
	// WorkSources is the number of PEs with stealable surplus from T on —
	// the quantity Section 3.3.2's rapid diffusion is designed to grow.
	WorkSources int
}

// Trace is the work-source count of a simulated run, recorded where it
// changed: one Sample per instant at which a PE became a work source or ceased
// to be one, in time order. The count is 0 before the first.
type Trace struct{ Changes []Sample }

// TimeToSources returns the first instant at which the number of work
// sources reached n ≥ 1, or -1 if it never did. This is the diffusion speed
// metric used by the D1 experiment.
func (tr *Trace) TimeToSources(n int) time.Duration {
	for _, s := range tr.Changes {
		if s.WorkSources >= n {
			return s.T
		}
	}
	return -1
}

// sourceLog is a traced run's record of the PEs becoming work sources or
// ceasing to be ones, in the order they ran — not time order in a windowed run.
type sourceLog []flip

// flip is a PE becoming a work source (d = +1) or ceasing to be one (−1).
type flip struct {
	t time.Duration
	d int
}

func (l *sourceLog) add(t time.Duration, source bool) {
	d := -1
	if source {
		d = 1
	}
	*l = append(*l, flip{t, d})
}

// trace sorts the log by instant and folds each instant into one Sample, the
// count after its last flip: the order of the flips within it cannot matter.
func (l sourceLog) trace() *Trace {
	slices.SortFunc(l, func(a, b flip) int { return cmp.Compare(a.t, b.t) })
	tr, n := &Trace{}, 0
	for i, f := range l {
		n += f.d
		if i+1 == len(l) || l[i+1].t != f.t {
			tr.Changes = append(tr.Changes, Sample{T: f.t, WorkSources: n})
		}
	}
	return tr
}

// Run simulates a complete traversal of sp on cfg.PEs virtual processors
// and returns the same Result shape as core.Run, with Elapsed set to the
// virtual makespan and SeqRate to the model's sequential rate (1/NodeCost),
// so Speedup and Efficiency read exactly as in the paper.
func Run(sp *uts.Spec, cfg Config) (*core.Result, error) {
	res, _, err := run(sp, cfg, nil)
	return res, err
}

// RunInfo is Run plus engine-level facts (which engine ran, how many
// events it executed) for benchmarks and regression gates.
func RunInfo(sp *uts.Spec, cfg Config) (*core.Result, Info, error) {
	return run(sp, cfg, nil)
}

// RunTraced is Run plus a diffusion trace. Recording costs no virtual time:
// the run is the untraced one, event for event.
func RunTraced(sp *uts.Spec, cfg Config) (*core.Result, *Trace, error) {
	var log sourceLog
	res, _, err := run(sp, cfg, &log)
	if err != nil {
		return nil, nil, err
	}
	return res, log.trace(), nil
}

// run is the simulation behind the three entry points; log, when non-nil,
// receives the diffusion record of RunTraced.
func run(sp *uts.Spec, cfg Config, log *sourceLog) (*core.Result, Info, error) {
	var info Info
	if err := sp.Validate(); err != nil {
		return nil, info, err
	}
	cfg = cfg.withDefaults()
	if cfg.PEs < 1 {
		return nil, info, fmt.Errorf("des: need at least one PE, got %d", cfg.PEs)
	}
	if cfg.PEs > MaxPEs {
		return nil, info, fmt.Errorf("des: %d simulated PEs, the event key orders at most %d", cfg.PEs, MaxPEs)
	}
	if cfg.Chunk < 1 {
		return nil, info, fmt.Errorf("des: need chunk >= 1, got %d", cfg.Chunk)
	}
	if cfg.PollInterval < 0 {
		return nil, info, fmt.Errorf("des: negative poll interval %d", cfg.PollInterval)
	}
	if cfg.NodeSize < 0 {
		return nil, info, fmt.Errorf("des: negative node size %d", cfg.NodeSize)
	}
	if cfg.Shards < 0 {
		return nil, info, fmt.Errorf("des: need shards >= 0, got %d", cfg.Shards)
	}
	cs := newCosts(cfg.Model)
	sim := New()
	info.Engine = EngineBatched
	if cfg.reference {
		sim = newLegacy()
		info.Engine = "legacy"
	}
	// mpi-ws on the batched engine is dispatched one lookahead-wide window at
	// a time: every cross-PE effect is a message, a message takes at least
	// the lookahead — the clamped remote reference of every model in play —
	// to land (bulk adds no negative bandwidth term), and nothing else looks
	// across PEs, so what the PEs do inside one window commutes (DESIGN.md §9,
	// "A window is a bag").
	if !cfg.reference && cfg.Algorithm == core.MPIWS && cs.perKB >= 0 {
		la := cs.remoteRef
		if cfg.NodeSize >= 2 && cfg.Intra != nil {
			la = min(la, newCosts(cfg.Intra).remoteRef)
		}
		sim.windowed(la)
		info.Lookahead = la
	}

	res := &core.Result{Spec: sp, Algorithm: cfg.Algorithm, Chunk: cfg.Chunk}
	res.Threads = make([]stats.Thread, cfg.PEs)
	for i := range res.Threads {
		res.Threads[i].ID = i
	}
	res.SeqRate = float64(time.Second) / float64(cs.nodeCost)

	// Adaptive runs: one controller per simulated PE, windows in virtual
	// time. The default window is derived from the machine model so that
	// a fast interconnect adapts on a finer grain than a slow one.
	var pset *policy.Set
	if cfg.Adapt != nil {
		acfg := *cfg.Adapt
		if acfg.Window <= 0 {
			// 8 remote references or 32 node expansions, whichever is
			// longer: short enough for several decisions per run even on
			// small trees, and safe because windows without steal evidence
			// extend instead of closing (the controller's evidence gate).
			acfg.Window = 8 * cs.remoteRef
			if w := 32 * cs.nodeCost; w > acfg.Window {
				acfg.Window = w
			}
		}
		pset = policy.NewSet(&acfg,
			core.PolicyBase(cfg.Algorithm, cfg.Chunk, cfg.PollInterval), cfg.PEs)
	}

	// Completion bookkeeping: every PE records its own end time.
	ends := cfg.ends
	if len(ends) < cfg.PEs {
		ends = make([]time.Duration, cfg.PEs)
	}
	finish := func(p *Proc) { ends[p.ID()] = p.Now() }

	if err := spawnPEs(sim, sp, cfg, cs, res, pset, &info.Wakes, log, finish); err != nil {
		return nil, info, err
	}
	if err := sim.Run(); err != nil {
		return nil, info, err
	}
	info.Events, info.Pops, info.Counted = sim.events, sim.pops, sim.counted
	info.Wakes.Moved = sim.moved
	res.Elapsed = slices.Max(ends[:cfg.PEs])
	res.Obs = cfg.Tracer.Summary()
	res.Policy = pset.Summary()
	return res, info, nil
}

// spawnPEs registers the PEs of cfg's algorithm with sim, each a stepped PE.
func spawnPEs(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, pset *policy.Set, wakes *Wakes, log *sourceLog, finish func(*Proc)) error {
	switch cfg.Algorithm {
	case core.Static:
		simStatic(sim, sp, cfg, cs, res, finish)
	case core.UPCSharedMem, core.UPCTerm, core.UPCTermRapdif, core.UPCTermRelaxed:
		simShared(sim, sp, cfg, cs, res, core.SharedVariants[cfg.Algorithm], pset, wakes, log, finish)
	case core.UPCDistMem, core.UPCDistMemHier:
		simDistMem(sim, sp, cfg, cs, res, pset, wakes, log, finish)
	case core.MPIWS:
		simMPIWS(sim, sp, cfg, cs, res, pset, log, finish)
	default:
		return fmt.Errorf("des: cannot simulate algorithm %q", cfg.Algorithm)
	}
	return nil
}
