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
// The machine is a step function (Machine.Start), the form the simulator's
// dispatcher runs inline, because it is the strictest: it names every
// service point and every one-sided read with the instant it completes, and
// an operation of the host that takes time — a batch of node work, a steal,
// the barrier — hands its quanta back through the step (Host.Busy) instead
// of waiting them out. A wall-clock PE runs the same step in a loop
// (WallPE.Steps), each operation whole inside its call, so goroutines, TCP
// ranks and simulated PEs take every discovery and termination decision in
// the same order by construction.

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

	// Engine. Interrupted is asked at every service point — the end of a
	// quantum without StepNoPoll, never before the first — and reports
	// work for Service: a steal request pending (on the cluster, also a kill
	// to notice). The machine then calls Service. The host answers it from
	// its own words; no engine delivers it.
	Interrupted() bool
	// Busy is asked after every call of Work, Service, Steal, Enter and
	// Leave. A host whose operations take time its step must return (the
	// simulator's) may leave the operation unfinished: Busy then reports the
	// quantum it waits for, that quantum's flags, and true, and the machine
	// returns the quantum and calls the same operation again at its end. The
	// call after which Busy reports false was the operation's last, and what
	// it returned is the operation's result. A wall-clock host finishes every
	// operation inside its call.
	Busy() (time.Duration, uint8, bool)
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
	// Tier groups a probe cycle's victims by nodes of Tier consecutive PEs,
	// same-node victims first (ProbeOrder.WalkHier); <= 1 is a flat cycle.
	Tier int

	ep episode
}

// episode is where the machine stands between two calls of its step, kept
// in the Machine so that a run allocates nothing past Start: its place in
// Figure 1, and the state of the search or termination wait under way —
// the walk it shares with Host.Doze/Probed is this one.
type episode struct {
	at    uint8       // the machine's place in Figure 1 (at*)
	poll  bool        // the last quantum ended at a service point
	serve bool        // a Service asked for there is under way
	back  stats.State // the state the steal attempt under way returns to

	walk      ProbeWalk
	ph        int
	victim    int
	sawWorker bool // the search: this cycle saw a PE at work
	over      bool // the search ended with no victim to try
	found     bool // ... because work came home by itself
	announced bool // the wait: termination was announced
}

// The machine's places in Figure 1. Each that calls a host operation calls
// it again while the host is Busy with it.
const (
	atWork   = iota // the Working state: Work
	atSearch        // a probe cycle (searchQuantum)
	atSteal         // a steal attempt at the victim, from the search or the wait
	atEnter         // entering the termination barrier
	atWait          // the streamlined wait (waitQuantum)
	atLeave         // leaving the barrier to steal
	atLast          // the run is over: answer a last raced-in request
	atEnd           // the step is done
)

// Start returns the machine's step function: Figure 1 from the Working state
// to the end of the run, one quantum per call. A host operation runs inside
// the call until it is Busy; at a service point the next call first serves
// a pending request (Interrupted, Service).
func (m *Machine) Start() Stepper {
	m.ep = episode{}
	return m.step
}

func (m *Machine) step() (time.Duration, uint8) {
	h, e := m.H, &m.ep
	if e.poll {
		e.poll = false
		e.serve = h.Interrupted()
	}
	if e.serve {
		h.Service()
		if d, fl, busy := h.Busy(); busy {
			return d, fl
		}
		e.serve = false
	}
	for {
		switch e.at {
		case atWork:
			h.Work()
			if d, fl, busy := h.Busy(); busy {
				return m.quantum(d, fl)
			}
			h.SetState(stats.Searching)
			m.search()
		case atSearch:
			d, fl := m.searchQuantum()
			if fl&StepDone == 0 {
				return m.quantum(d, fl)
			}
			if e.over {
				m.searched(e.found)
			} else {
				m.steal(stats.Searching)
			}
		case atSteal:
			ok := h.Steal(e.victim)
			if d, fl, busy := h.Busy(); busy {
				return m.quantum(d, fl)
			}
			m.stole(ok)
		case atEnter:
			over := h.Enter()
			if d, fl, busy := h.Busy(); busy {
				return m.quantum(d, fl)
			}
			m.entered(over)
		case atWait:
			d, fl := m.waitQuantum()
			if fl&StepDone == 0 {
				return m.quantum(d, fl)
			}
			e.at = atLeave
			if e.announced {
				e.at = atLast
			}
		case atLeave:
			ok := h.Leave()
			if d, fl, busy := h.Busy(); busy {
				return m.quantum(d, fl)
			}
			if !ok {
				e.at = atLast
				continue
			}
			m.steal(stats.Idle)
		case atLast:
			h.Service() // answer any last raced-in request with a denial
			if d, fl, busy := h.Busy(); busy {
				return m.quantum(d, fl)
			}
			e.at = atEnd
		default: // atEnd
			return 0, StepDone
		}
	}
}

// quantum returns a quantum of the step, noting whether it ends at a service
// point.
func (m *Machine) quantum(d time.Duration, fl uint8) (time.Duration, uint8) {
	m.ep.poll = fl&StepNoPoll == 0
	return d, fl
}

// Phases of the probe steps. A probe is a quantum triple: a zero-length
// service point, the one-sided reference (no service point between issuing
// a read and having its answer), the evaluation at the completion instant.
// The termination wait polls the announcement flag between the first two.
const (
	phPoll = iota
	phAnn
	phProbe
	phEval
)

// search begins work discovery: pseudo-random probe cycles over the other
// PEs, stealing wherever a probe finds surplus, until work is on the local
// stack or termination detection is next (searched).
func (m *Machine) search() {
	e := &m.ep
	if m.N == 1 {
		m.searched(false)
		return
	}
	e.over, e.found = false, false
	if !m.newWalk() {
		m.searched(e.found)
		return
	}
	e.ph, e.victim, e.at = phPoll, -1, atSearch
}

// searched is the end of a search: back to work if it found some, else —
// once anything handed out has come home — into the termination barrier.
func (m *Machine) searched(found bool) {
	h, e := m.H, &m.ep
	if !found {
		h.SetState(stats.Idle)
		found = h.Settle(true)
	}
	if found {
		h.SetState(stats.Working)
		e.at = atWork
		return
	}
	m.PE.T.TermBarrierEntries++
	h.Rec(obs.KindTermEnter, -1, 0)
	e.at = atEnter
}

// newWalk starts a probe cycle, unless work came home by itself first.
func (m *Machine) newWalk() bool {
	e := &m.ep
	if m.H.Settle(false) {
		e.over, e.found = true, true
		return false
	}
	e.walk = m.Rng.WalkHier(m.Me, m.N, m.Tier)
	e.sawWorker = false
	return true
}

// next moves to the next victim, through a fresh cycle if this one is
// spent and said that work is still out there. False: search over.
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

// searchQuantum is the probe cycle's step: StepDone with a victim to steal
// from, or with the search over.
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

// steal begins one steal attempt at the victim, in the Stealing state; back
// is the state it returns to, Searching or (from the wait) Idle.
func (m *Machine) steal(back stats.State) {
	h, e := m.H, &m.ep
	h.BeginSteal()
	h.Rec(obs.KindStealRequest, int32(e.victim), 0)
	e.back, e.at = back, atSteal
}

// stole ends the steal attempt. From the search, work goes back to the
// Working state and a failure on to the next victim; from the wait, work
// leaves the barrier for good and a failure enters it again.
func (m *Machine) stole(ok bool) {
	h, e := m.H, &m.ep
	if !ok {
		m.PE.T.FailedSteals++
		h.Rec(obs.KindStealFail, int32(e.victim), 0)
	}
	h.EndSteal(ok, e.back)
	switch {
	case e.back == stats.Idle && ok:
		m.resume()
	case e.back == stats.Idle:
		e.at = atEnter
	default:
		m.PE.NoteCtl(h.Now())
		switch {
		case ok:
			m.searched(true)
		case !m.next():
			m.searched(e.found)
		default:
			e.ph, e.at = phPoll, atSearch
		}
	}
}

// entered follows Enter: the run is over, or — under Stream — the wait
// inside the barrier begins, or the PE is sent back to look for work.
// The streamlined wait services steal requests, polls the announcement flag
// and inspects a single PE at a time so as not to overwhelm the remaining
// workers; it leaves before any steal, and not at all if the announcement
// is there when the probe's answer is.
func (m *Machine) entered(over bool) {
	e := &m.ep
	switch {
	case over:
		e.at = atLast
	case !m.Stream:
		m.resume()
	default:
		e.ph, e.victim, e.announced, e.at = phPoll, -1, false, atWait
	}
}

// resume leaves the barrier with work, or to look for it.
func (m *Machine) resume() {
	m.H.Rec(obs.KindTermExit, -1, 0)
	m.H.SetState(stats.Working)
	m.ep.at = atWork
}

// waitQuantum is the termination wait's step: StepDone announced, or with a
// victim found working with surplus.
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
