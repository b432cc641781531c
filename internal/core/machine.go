package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// This file is the single definition of what every UPC algorithm of the
// paper shares: the Figure-1 loop, the probe-cycle work discovery of
// Section 3.1 and the streamlined termination wait of Section 3.3.1. The
// algorithms differ in how a chunk is made stealable and stolen, the
// substrates in which clock passes while a PE waits; both sit behind Host.
//
// Search and wait are resumable step functions, the form the simulator's
// dispatcher runs inline, because it is the strictest: it names every
// service point and every one-sided read with the instant it completes. A
// wall-clock PE runs the same functions back to back (WallPE.Steps), so
// goroutines, TCP ranks and simulated PEs take every discovery and
// termination decision in the same order by construction.

// Stepper yields one quantum of a stepped advance: the duration to consume
// and the flags governing the boundary the quantum ends at.
type Stepper func() (time.Duration, uint8)

const (
	// StepDone ends the stepped advance.
	StepDone uint8 = 1 << 0
	// StepNoPoll marks a boundary that is not a service point: a pending
	// steal request is not looked at there.
	StepNoPoll uint8 = 1 << 1
	// StepSleep, with a quantum d > 0, says that the steps after this one
	// are polls d apart and that what they see changes only through events
	// the host hears of: a delivery to this PE (the message-passing rank's
	// idle polls), a write of a word the poll will read or a claimed request
	// word (a searching PE's probes, Host.Doze). It is a permission, not a
	// request: an engine may count the polls nothing can answer instead of
	// running them, and resume the step at the first poll such an event can
	// reach, or ignore the flag and call the step at every poll. The step
	// cannot tell which happened except by asking how many polls were
	// counted for it.
	StepSleep uint8 = 1 << 2
)

// Host is what the machine needs of the PE it drives. A scheduler gets
// the clock third by embedding WallPE or the simulator's shell, most of
// the engine third the same way, and writes the protocol third.
type Host interface {
	// Clock: state accounting, trace events and the controller-feedback
	// timestamp, each on the host's timebase.
	SetState(s stats.State)
	Rec(k obs.Kind, other int32, value int64)
	Now() int64
	BeginSteal()
	EndSteal(ok bool, back stats.State)

	// Engine. Steps runs step until StepDone (false) or until a service
	// point — a boundary without StepNoPoll, never before the first
	// quantum — finds a steal request pending or the run stopped (true);
	// the caller services and resumes with the same step.
	Steps(step Stepper) bool
	// StageAvail stages a one-sided read of v's work-available word,
	// complete at the end of the quantum the calling step is about to
	// return, and returns that quantum's length, already booked to the
	// PE's state. The word is −1 for a PE with no work at all (or no longer
	// a worker), 0 for one working without surplus, else its stealable
	// chunks.
	StageAvail(v int) time.Duration
	// StageAnnounced stages a read of the termination-announcement flag:
	// with d == 0 a quantum of its own, whose booked length it returns,
	// else riding on the staged quantum of length d.
	StageAnnounced(d time.Duration) time.Duration
	// Staged is the i-th read, in staging order, of the last quantum.
	Staged(i int) int64
	// Doze is asked at a service point of a probe cycle, with nothing
	// pending, before the read of w's current victim is staged. A host
	// returns 0 and the probe is staged and stepped (StageAvail, Staged). One
	// that knows every write of the words the walk will read, and when each
	// of its own reads falls, may instead return the probe period d > 0: the
	// quantum goes back with StepSleep, and the step resumes — through
	// Probed — at the first read that cannot be counted: of a word that was
	// positive at some instant of the sleep, the last of the cycle (or of a
	// run of equally priced victims), or the one a steal request posted in
	// the meantime waits behind.
	Doze(w *ProbeWalk) time.Duration
	// Probed completes the probe whose quantum just ended and returns the
	// word it read. Without a sleep that is Staged(0) and false. After one
	// it first books every counted probe as if it had run — the PE's probe
	// count, state time and trace records at their own instants, w advanced
	// past each — reports whether any of them saw a worker (a word ≥ 0), and
	// leaves w on the victim of the read it woke for.
	Probed(w *ProbeWalk) (wa int64, sawWorker bool)

	// Protocol family. Work explores until the PE holds no work and its
	// work-available word says so; Service answers a pending steal
	// request; Steal tries to move work from v onto the local stack.
	Work()
	Service()
	Steal(v int) bool
	// Settle reports that work the PE had handed out came home unfetched.
	// It is asked before every probe cycle and, entering, before the
	// barrier, where it must not return while any is still out.
	Settle(entering bool) bool
	// Enter enters the termination barrier and reports whether the run is
	// over. A streamlined barrier then holds the PE until Leave, which
	// refuses (false) once termination is announced; any other waits
	// inside Enter and has let go when it reports false.
	Enter() bool
	Leave() bool
	// Stopped reports an abandoned run (cancellation, a fatal transport
	// error); the machine returns at its next check.
	Stopped() bool
}

// Machine is one PE's Figure-1 loop.
type Machine struct {
	H     Host
	PE    *PE // the host's shell
	Rng   *ProbeOrder
	Me, N int // this PE, all PEs

	// Stream selects streamlined termination (Section 3.3.1): search until
	// a whole cycle finds every other PE out of work, then wait in the
	// barrier inspecting one PE at a time. Without it (Section 3.1) one
	// cycle without a steal leads to a barrier that waits by itself.
	Stream bool
	// Hier and NodeSize select the victim tier (PE.VictimTier).
	Hier     bool
	NodeSize int

	ep episode
}

// episode is the state of one search or termination wait, kept in the
// Machine so that an episode allocates nothing: its steps are bound once a
// run, and the walk they share with Host.Doze/Probed is this one.
type episode struct {
	searchStep, waitStep Stepper

	walk      ProbeWalk
	ph        int
	victim    int
	sawWorker bool // the search: this cycle saw a PE at work
	over      bool // the search ended with no victim to try
	found     bool // ... because work came home by itself
	announced bool // the wait: termination was announced
}

// Run is the Figure-1 state machine. The PE starts in the Working state.
func (m *Machine) Run() {
	h := m.H
	m.ep.searchStep, m.ep.waitStep = m.searchQuantum, m.waitQuantum
	for {
		h.Work()
		h.SetState(stats.Searching)
		found := m.search()
		if !found {
			h.SetState(stats.Idle)
			found = h.Settle(true)
		}
		if h.Stopped() {
			return
		}
		if found {
			h.SetState(stats.Working)
			continue
		}
		m.PE.T.TermBarrierEntries++
		h.Rec(obs.KindTermEnter, -1, 0)
		if m.terminate() {
			h.Service() // answer any last raced-in request with a denial
			return
		}
		h.Rec(obs.KindTermExit, -1, 0)
		h.SetState(stats.Working)
	}
}

// Phases of the step functions. A probe is a quantum triple: a zero-length
// service point, the one-sided reference (no service point between issuing
// a read and having its answer), the evaluation at the completion instant.
// The termination wait polls the announcement flag between the first two.
const (
	phPoll = iota
	phAnn
	phProbe
	phEval
)

// search is work discovery: pseudo-random probe cycles over the other
// PEs, stealing wherever a probe finds surplus. It reports true with work
// on the local stack, false when termination detection is next.
func (m *Machine) search() bool {
	h, e := m.H, &m.ep
	if m.N == 1 {
		return false
	}
	e.over, e.found = false, false
	if !m.newWalk() {
		return e.found
	}
	e.ph, e.victim = phPoll, -1
	for {
		if !m.steps(e.searchStep) {
			return false
		}
		if e.over {
			return e.found
		}
		ok := m.steal(e.victim, stats.Searching)
		m.PE.NoteCtl(h.Now())
		if ok {
			return true
		}
		if !m.next() {
			return e.found
		}
		e.ph = phPoll
	}
}

// newWalk starts a probe cycle, unless work came home by itself first.
//
//uts:noalloc
func (m *Machine) newWalk() bool {
	e := &m.ep
	if m.H.Settle(false) {
		e.over, e.found = true, true
		return false
	}
	e.walk = m.Rng.WalkHier(m.Me, m.N, m.PE.VictimTier(m.Hier, m.NodeSize))
	e.sawWorker = false
	return true
}

// next moves to the next victim, through a fresh cycle if this one is
// spent and said that work is still out there. False: search over.
//
//uts:noalloc
func (m *Machine) next() bool {
	e := &m.ep
	e.walk.Advance()
	if !e.walk.Exhausted() {
		return true
	}
	if !m.Stream || !e.sawWorker {
		e.over = true
		return false
	}
	return m.newWalk()
}

// searchQuantum is the search's step.
//
//uts:noalloc
func (m *Machine) searchQuantum() (time.Duration, uint8) {
	h, e := m.H, &m.ep
	switch e.ph {
	case phPoll:
		e.ph = phProbe
		return 0, 0
	case phProbe:
		e.victim = e.walk.Victim()
		h.Rec(obs.KindProbeStart, int32(e.victim), 0)
		e.ph = phEval
		if d := h.Doze(&e.walk); d > 0 {
			return d, StepNoPoll | StepSleep
		}
		return h.StageAvail(e.victim), StepNoPoll
	default: // phEval
		wa, saw := h.Probed(&e.walk)
		e.victim = e.walk.Victim() // past the probes a sleeping host counted
		m.PE.T.Probes++
		h.Rec(obs.KindProbeResult, int32(e.victim), wa)
		if saw || wa >= 0 {
			e.sawWorker = true
		}
		if wa > 0 || !m.next() {
			return 0, StepDone
		}
		e.ph = phProbe
		return 0, 0 // service point before the next probe
	}
}

// steps runs step to its end, servicing steal requests at its service
// points; false if the run stopped first.
func (m *Machine) steps(step Stepper) bool {
	for m.H.Steps(step) {
		m.H.Service()
		if m.H.Stopped() {
			return false
		}
	}
	return true
}

// steal is one steal attempt at v, in the Stealing state and back.
func (m *Machine) steal(v int, back stats.State) bool {
	h := m.H
	h.BeginSteal()
	h.Rec(obs.KindStealRequest, int32(v), 0)
	ok := h.Steal(v)
	if !ok {
		m.PE.T.FailedSteals++
		h.Rec(obs.KindStealFail, int32(v), 0)
	}
	h.EndSteal(ok, back)
	return ok
}

// terminate reports true when the whole computation is over, false when
// the PE acquired work (or, without Stream, was sent back to look for it).
// Under Stream the PE waits inside the barrier servicing steal requests,
// polling the announcement flag and inspecting a single PE at a time so as
// not to overwhelm the remaining workers; it leaves before any steal, and
// not at all if the announcement is there when the probe's answer is.
func (m *Machine) terminate() bool {
	h, e := m.H, &m.ep
	if h.Enter() {
		return true
	}
	if !m.Stream {
		return false
	}
	e.ph, e.victim, e.announced = phPoll, -1, false
	for {
		if !m.steps(e.waitStep) || e.announced || !h.Leave() {
			return true
		}
		if m.steal(e.victim, stats.Idle) {
			return false
		}
		if h.Enter() {
			return true
		}
	}
}

// waitQuantum is the termination wait's step.
//
//uts:noalloc
func (m *Machine) waitQuantum() (time.Duration, uint8) {
	h, e := m.H, &m.ep
	switch e.ph {
	case phPoll:
		e.ph = phAnn
		return 0, 0
	case phAnn:
		e.ph = phProbe
		return h.StageAnnounced(0), StepNoPoll
	case phProbe:
		if h.Staged(0) != 0 {
			e.announced = true
			return 0, StepDone
		}
		e.victim = m.Rng.Victim(m.Me, m.N)
		h.Rec(obs.KindProbeStart, int32(e.victim), 0)
		e.ph = phEval
		return h.StageAnnounced(h.StageAvail(e.victim)), StepNoPoll
	default: // phEval
		m.PE.T.Probes++
		wa := h.Staged(0)
		h.Rec(obs.KindProbeResult, int32(e.victim), wa)
		e.ph = phPoll
		if wa > 0 {
			e.announced = h.Staged(1) != 0
			return 0, StepDone
		}
		return 0, 0
	}
}
