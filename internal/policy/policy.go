// Package policy implements per-PE closed-loop controllers for the three
// steal-tuning knobs the paper fixes statically: the chunk size k
// (Section 4.2.1's manually-swept granularity), steal-half vs steal-k
// selection, and the mpi-ws poll interval. Controllers consume windowed
// feedback (the time spent inside steal attempts, failed-steal rate,
// delivered chunk sizes, poll hit rate) and adjust their PE's knobs between
// windows, so a deployment started from a bad static configuration walks
// itself onto the Figure-4 plateau instead of needing a uts-tune re-sweep.
// Which victims a PE probes first is not a knob: the simulator, the one
// substrate with nodes, decides it once per run.
//
// The package is deliberately clockless: every observation carries a
// caller-supplied timestamp in nanoseconds, which is wall time under the
// real schedulers and virtual time under the DES. That keeps the DES
// variant deterministic (make shape, "Deterministic packages") and makes
// adaptive sweeps meaningful at 100K+ simulated PEs.
//
// Off is nil: a nil *Controller is a run without adaptation. Its knob
// reads return the fixed value the caller passes and every Note*/Steal*
// call does nothing, so a scheduler calls its controller unguarded.
//
// Concurrency contract: a Controller is owned by its PE — all Note*/knob
// methods are owner-only, unsynchronized, and allocation-free on the hot
// path. The only cross-thread reads are the atomic knob mirrors used by
// the telemetry gauges, refreshed on window close (cold path).
package policy

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Config enables adaptation. The zero value means "adapt with defaults
// derived from the base configuration": callers that want fixed behavior
// pass a nil *Config instead.
type Config struct {
	// Window is the feedback interval between adaptation decisions, in
	// the caller's time base (wall for real runs, virtual for the DES).
	// <= 0 picks a default from the base configuration: the wiring in
	// internal/core uses 500µs of wall time, the DES derives a window
	// from the machine model's message costs.
	Window time.Duration
}

// Base is the static configuration the controllers start from and adapt
// around, resolved by the scheduler wiring after its own defaulting.
type Base struct {
	Chunk     int  // resolved Options.Chunk / Config.Chunk
	Poll      int  // resolved PollInterval (mpi-ws); 0 elsewhere
	StealHalf bool // base variant steals half (upc-term-rapdif) vs k
}

// Controller tuning constants. The decision rule is slow-start plus AIMD
// (DESIGN.md §15): multiplicative moves while the signal is extreme,
// additive fine-tuning near the plateau, with hysteresis from the
// evidence gate.
const (
	// minAttempts is the evidence gate: a window must contain at least
	// this many steal attempts (successful or failed) before the chunk
	// rule may act. Windows without evidence extend rather than reset.
	minAttempts = 4
	// staleWindows caps how long an evidence-starved window may extend
	// before its counters are discarded as stale.
	staleWindows = 8
	// failHi is the failed-steal fraction above which the chunk is
	// halved: probes keep finding victims below their release threshold,
	// the signature of work withheld by a too-large k.
	failHi = 0.5
	// shareHi / shareExtreme bound the fraction of the window this PE
	// spent inside steal attempts (its steal nanoseconds over the window
	// length). Above shareHi the chunk grows additively;
	// above shareExtreme it doubles (slow-start region, the far left of
	// Figure 4 where steal traffic swamps useful work). Share is the
	// right increase signal because it self-quenches: once chunks are
	// coarse enough that stealing is occasional, the share collapses and
	// the chunk stops climbing — no oscillation around the plateau.
	shareHi      = 0.15
	shareExtreme = 0.5
	// halfOn/halfOff are the failed-steal hysteresis for the steal-half
	// toggle: scarcity turns it on, calm turns it back to the base.
	halfOn  = 0.6
	halfOff = 0.2
	// pollLo/pollHi bound the drain hit rate: below pollLo the mpi-ws
	// poll interval doubles (polling too often), above pollHi it halves.
	pollLo = 0.02
	pollHi = 0.2
)

// Controller adapts one PE's knobs. All methods are owner-only; the
// zero-value Controller is not usable — obtain one from a Set. A nil
// Controller is the fixed-knob run (see the package doc).
type Controller struct {
	cfg  Config
	base Base

	// Bounds of the adapted knobs, derived from the base configuration:
	// the chunk size moves in [1, max(128, 8·base)] — deliberately wide,
	// a deliberately-bad start (k=1 on a machine whose plateau sits at
	// 16) must be able to reach the plateau — and the mpi-ws poll interval
	// in [max(1, base/4), 8·base].
	kMin, kMax       int
	pollMin, pollMax int

	// Knobs, read by the owning PE on its hot path.
	k    int
	half bool
	poll int

	// Window accounting (owner-only). The steal-evidence counters
	// (attempts..denied, nodes, obsStart) and the poll counters reset
	// independently: a window closed on poll evidence alone leaves the
	// still-thin steal evidence accumulating for a later window.
	winStart int64 // window-length timer
	obsStart int64 // start of the steal-evidence accumulation
	winOpen  bool
	extends  int
	attempts int64
	okSteals int64
	stolen   int64 // nodes delivered by successful steals
	nodes    int64 // nodes explored since obsStart
	depthMax int   // deepest sampled stack depth since obsStart
	polls    int64
	msgs     int64
	denied   int64 // steal requests denied while holding work

	inSteal bool
	stealT0 int64
	stealNS int64 // time inside steal attempts since obsStart

	// Cross-thread mirrors for telemetry, refreshed on window close.
	aChunk   atomic.Int64
	aPoll    atomic.Int64
	aHalf    atomic.Int64
	aWindows atomic.Int64

	windows  int64
	changes  int64
	kLo, kHi int
}

func (c *Controller) init(cfg Config, base Base) {
	c.cfg = cfg
	c.base = base
	c.kMin, c.kMax = 1, max(128, 8*base.Chunk)
	c.pollMin = max(1, base.Poll/4)
	c.pollMax = max(c.pollMin, 8*base.Poll)
	if c.cfg.Window <= 0 {
		c.cfg.Window = 500 * time.Microsecond
	}
	c.k = clamp(base.Chunk, c.kMin, c.kMax)
	c.half = base.StealHalf
	c.poll = clamp(base.Poll, c.pollMin, c.pollMax)
	c.kLo, c.kHi = c.k, c.k
	c.aChunk.Store(int64(c.k))
	c.aPoll.Store(int64(c.poll))
	c.aHalf.Store(boolInt(c.half))
}

// Chunk returns the adapted chunk size (owner-only read), fixed on a nil
// Controller.
func (c *Controller) Chunk(fixed int) int {
	if c == nil {
		return fixed
	}
	return c.k
}

// StealHalf returns the adapted steal-half/steal-k selection, fixed on a
// nil Controller.
func (c *Controller) StealHalf(fixed bool) bool {
	if c == nil {
		return fixed
	}
	return c.half
}

// Poll returns the adapted mpi-ws poll interval, fixed on a nil
// Controller.
func (c *Controller) Poll(fixed int) int {
	if c == nil {
		return fixed
	}
	return c.poll
}

// StealBegin marks the start of a steal attempt. One attempt may be in
// flight per PE (true of every scheduler here).
func (c *Controller) StealBegin(nowNS int64) {
	if c == nil {
		return
	}
	c.open(nowNS)
	c.inSteal = true
	c.stealT0 = nowNS
}

// StealEnd completes the attempt begun by StealBegin: ok reports whether
// work was obtained and nodes how many tree nodes came with it.
func (c *Controller) StealEnd(ok bool, nodes int, nowNS int64) {
	if c == nil || !c.inSteal {
		return
	}
	c.inSteal = false
	c.attempts++
	if ok {
		c.okSteals++
		c.stolen += int64(nodes)
	}
	c.stealNS += max(0, nowNS-c.stealT0)
}

// NoteNodes reports n nodes explored since the last call, the current
// local stack depth, and gives the controller a timestamp to close
// windows against. Call it from the scheduler's existing yield/batch
// boundary, not per node. The sampled depth feeds the release-starvation
// rule: an owner whose stack never reaches the 2k release threshold
// shares nothing, generates no steal evidence at all (one-sided probes
// are invisible to it), and would otherwise serialize the run forever.
func (c *Controller) NoteNodes(n, depth int, nowNS int64) {
	if c == nil {
		return
	}
	c.open(nowNS)
	c.nodes += int64(n)
	if depth > c.depthMax {
		c.depthMax = depth
	}
	if nowNS-c.winStart >= int64(c.cfg.Window) {
		c.closeWindow(nowNS)
	}
}

// NotePoll reports one incoming-message drain and how many messages it
// found (mpi-ws).
func (c *Controller) NotePoll(msgs int) {
	if c == nil {
		return
	}
	c.polls++
	c.msgs += int64(msgs)
}

// NoteDenied reports a steal request this PE denied while still holding
// work above the steal threshold's reach — the victim-side witness that
// its own k is withholding work from live demand.
func (c *Controller) NoteDenied() {
	if c == nil {
		return
	}
	c.denied++
}

func (c *Controller) open(nowNS int64) {
	if !c.winOpen {
		c.winOpen = true
		c.winStart = nowNS
		c.obsStart = nowNS
	}
}

// closeWindow evaluates the evidence gates and either adapts or extends.
func (c *Controller) closeWindow(nowNS int64) {
	stealEv := c.attempts >= minAttempts || c.denied >= minAttempts
	pollEv := c.polls >= minAttempts
	// Release starvation: this PE worked through the window, saw no steal
	// traffic in either role, and its stack never reached the release
	// threshold — so it cannot have shared anything, and nobody could tell
	// it demand exists. Halving k is the only signal-free escape from the
	// serialized regime (the k=128-on-a-small-tree pathology).
	if !stealEv && c.nodes > 0 && c.depthMax >= 4 && c.depthMax < 2*c.k {
		c.windows++
		prevK := c.k
		// Jump to the largest k that would have released given the depth
		// actually seen (threshold 2k at half the observed peak), rather
		// than creeping down by halves — every starved window extends the
		// serialized prefix, so the escape must be a single move.
		c.k = clamp(min(c.k/2, c.depthMax/4), c.kMin, c.kMax)
		if c.k < c.kLo {
			c.kLo = c.k
		}
		if c.k != prevK {
			c.changes++
		}
		c.aChunk.Store(int64(c.k))
		c.aWindows.Store(c.windows)
		c.resetSteal(nowNS)
		if pollEv {
			c.resetPoll()
		}
		c.extends = 0
		c.winStart = nowNS
		return
	}
	if !stealEv && !pollEv {
		// Not enough signal to act on. Extend the window (keep
		// accumulating) unless it has gone stale.
		c.extends++
		if c.extends < staleWindows {
			c.winStart = nowNS
			return
		}
		c.resetSteal(nowNS)
		c.resetPoll()
		c.extends = 0
		c.winStart = nowNS
		return
	}
	c.adapt(nowNS, stealEv, pollEv)
	if stealEv {
		c.resetSteal(nowNS)
	}
	if pollEv {
		c.resetPoll()
	}
	c.extends = 0
	c.winStart = nowNS
}

func (c *Controller) resetSteal(nowNS int64) {
	c.obsStart = nowNS
	c.attempts, c.okSteals, c.stolen = 0, 0, 0
	c.nodes, c.denied = 0, 0
	c.depthMax = 0
	c.stealNS = 0
}

func (c *Controller) resetPoll() {
	c.polls, c.msgs = 0, 0
}

// adapt applies the decision rules to one closed window. Cold path: runs
// once per window per PE.
func (c *Controller) adapt(nowNS int64, stealEv, pollEv bool) {
	c.windows++
	prevK, prevHalf, prevPoll := c.k, c.half, c.poll

	if stealEv {
		var failFrac float64
		if c.attempts > 0 {
			failFrac = float64(c.attempts-c.okSteals) / float64(c.attempts)
		}

		// Steal-overhead share: the fraction of this window the PE spent
		// inside steal attempts.
		var share float64
		if elapsed := nowNS - c.obsStart; elapsed > 0 {
			share = float64(c.stealNS) / float64(elapsed)
		}

		switch {
		case failFrac > failHi || c.denied >= minAttempts:
			// Work withheld: victims (or we, as a victim) sit below the
			// release threshold while demand goes unmet. Halve.
			c.k = clamp(c.k/2, c.kMin, c.kMax)
		case share > shareExtreme:
			// Steal traffic swamps useful work — far left of the Figure-4
			// plateau. Slow-start: double.
			c.k = clamp(c.k*2, c.kMin, c.kMax)
		case share > shareHi:
			// Overhead still material: additive increase.
			c.k = clamp(c.k+max(1, c.k/4), c.kMin, c.kMax)
		}

		// Steal-half under scarcity: when most attempts fail, a success
		// should take as much as it can carry; revert to the base
		// selection once the system calms down.
		if failFrac > halfOn {
			c.half = true
		} else if failFrac < halfOff {
			c.half = c.base.StealHalf
		}
	}

	if pollEv {
		hit := float64(c.msgs) / float64(c.polls)
		if hit < pollLo {
			c.poll = clamp(c.poll*2, c.pollMin, c.pollMax)
		} else if hit > pollHi {
			c.poll = clamp(c.poll/2, c.pollMin, c.pollMax)
		}
	}

	if c.k < c.kLo {
		c.kLo = c.k
	}
	if c.k > c.kHi {
		c.kHi = c.k
	}
	if c.k != prevK || c.half != prevHalf || c.poll != prevPoll {
		c.changes++
	}
	c.aChunk.Store(int64(c.k))
	c.aPoll.Store(int64(c.poll))
	c.aHalf.Store(boolInt(c.half))
	c.aWindows.Store(c.windows)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Set is the per-run collection of controllers, one per PE. A nil *Set
// is the disabled state: Controller(i) returns nil, the Controller that
// answers with the fixed knobs, keeping controller-off runs byte-identical
// to a build without this package.
type Set struct {
	cfg  Config
	base Base
	ctls []*Controller
}

// NewSet builds n controllers from cfg and base. A nil cfg returns a nil
// Set (adaptation disabled).
func NewSet(cfg *Config, base Base, n int) *Set {
	if cfg == nil || n <= 0 {
		return nil
	}
	s := &Set{cfg: *cfg, base: base, ctls: make([]*Controller, n)}
	for i := range s.ctls {
		c := &Controller{}
		c.init(*cfg, base)
		s.ctls[i] = c
	}
	return s
}

// Controller returns PE i's controller, or nil for a nil/out-of-range Set.
func (s *Set) Controller(i int) *Controller {
	if s == nil || i < 0 || i >= len(s.ctls) {
		return nil
	}
	return s.ctls[i]
}

// PEs returns the number of controllers (0 for a nil Set).
func (s *Set) PEs() int {
	if s == nil {
		return 0
	}
	return len(s.ctls)
}

// Snapshot is the cross-thread view of the set's current knobs, built
// from the atomic mirrors; safe to call from a telemetry scraper while
// the run is live.
type Snapshot struct {
	PEs         int
	Windows     int64 // adaptation windows closed, all PEs
	ChunkMin    int64
	ChunkMax    int64
	ChunkMean   float64
	PollMin     int64
	PollMax     int64
	StealHalfOn int64 // PEs currently stealing half
}

// Snap aggregates the atomic knob mirrors. Nil-safe.
func (s *Set) Snap() Snapshot {
	if s == nil || len(s.ctls) == 0 {
		return Snapshot{}
	}
	sn := Snapshot{PEs: len(s.ctls), ChunkMin: int64(1) << 62, PollMin: int64(1) << 62}
	var kSum int64
	for _, c := range s.ctls {
		k, p := c.aChunk.Load(), c.aPoll.Load()
		kSum += k
		if k < sn.ChunkMin {
			sn.ChunkMin = k
		}
		if k > sn.ChunkMax {
			sn.ChunkMax = k
		}
		if p < sn.PollMin {
			sn.PollMin = p
		}
		if p > sn.PollMax {
			sn.PollMax = p
		}
		sn.StealHalfOn += c.aHalf.Load()
		sn.Windows += c.aWindows.Load()
	}
	sn.ChunkMean = float64(kSum) / float64(len(s.ctls))
	return sn
}

// Summary condenses the run's adaptation for stats.Run. Owner-phase
// only: call after the workers have stopped. Nil-safe (returns nil).
func (s *Set) Summary() *Summary {
	if s == nil {
		return nil
	}
	sum := &Summary{
		PEs:        len(s.ctls),
		ChunkStart: s.ctls[0].base.Chunk,
	}
	lo, hi := int(^uint(0)>>1), 0
	var kSum int64
	for _, c := range s.ctls {
		sum.Windows += c.windows
		sum.Changes += c.changes
		if c.k < lo {
			lo = c.k
		}
		if c.k > hi {
			hi = c.k
		}
		kSum += int64(c.k)
		if c.half {
			sum.StealHalfOn++
		}
		if c.kLo < sum.ChunkLo || sum.ChunkLo == 0 {
			sum.ChunkLo = c.kLo
		}
		if c.kHi > sum.ChunkHi {
			sum.ChunkHi = c.kHi
		}
	}
	sum.ChunkFinalMin, sum.ChunkFinalMax = lo, hi
	sum.ChunkFinalMean = float64(kSum) / float64(len(s.ctls))
	sum.PollFinal = s.ctls[0].poll
	return sum
}

// Summary is the post-run report of what the controllers did, carried on
// stats.Run and rendered into its Summary() block.
type Summary struct {
	PEs     int
	Windows int64 // adaptation windows closed across all PEs
	Changes int64 // knob changes across all PEs

	ChunkStart     int // the base (static) chunk every PE started from
	ChunkLo        int // lowest chunk any PE visited
	ChunkHi        int // highest chunk any PE visited
	ChunkFinalMin  int
	ChunkFinalMax  int
	ChunkFinalMean float64

	StealHalfOn int // PEs that ended on steal-half
	PollFinal   int // PE 0's final poll interval (mpi-ws)
}

// String renders the one-line form used by stats.Run.Summary().
func (s *Summary) String() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf(
		"adaptive: chunk %d -> %.1f (final %d..%d, visited %d..%d), steal-half %d/%d, windows %d, changes %d",
		s.ChunkStart, s.ChunkFinalMean, s.ChunkFinalMin, s.ChunkFinalMax,
		s.ChunkLo, s.ChunkHi, s.StealHalfOn, s.PEs, s.Windows, s.Changes)
}
