// Package des is a deterministic discrete-event simulator that runs the
// paper's work-stealing protocols at cluster scale (hundreds to thousands
// of processing elements) on a single machine.
//
// Each simulated PE runs the protocols of the real goroutine
// implementations in internal/core — real UTS nodes are generated, real
// stacks are manipulated, real steal/termination decisions are taken — but
// time is virtual: exploring a node costs Model.NodeCost, a remote
// reference costs Model.RemoteRef, a lock acquisition queues behind the
// current holder, and so on. What the two substrates share by construction
// is the per-PE shell (core.PE, embedded here through simPE in pe.go) — the
// node kernel, the counters, the live-progress flush, the controller
// feedback points, the bookkeeping of every work-movement event (released,
// reacquired, granted, denied, landed) — and the protocol loops: for the
// UPC algorithms the Figure-1 loop with its work discovery and termination
// wait, core.Machine, driven here by the stepped advance and there by
// core.WallPE.Steps; for mpi-ws the whole rank — message handling, the
// idle/steal-request loop, the Dijkstra token ring — core.MsgRank, a step
// function too: one stepped advance from spawn to finish here, its sends
// staged against the quantum they cost (StageSend) and its idle polls a
// sleep the engine may count instead of run (StepSleep), over the inbox of
// mpi.go; a plain loop over msg.Comm there (core.WallPE.Drive). A searching
// UPC PE sleeps the same way through the probes of its cycle that read words
// no write has reached (upcPE.Doze, over the histories of doze.go).
// TestMachineDriversAgree and TestMsgRankDriversAgree hold each pair of
// drivers to one log. What is still mirrored by hand is the UPC
// work/release/steal bodies — what is charged, locked and stored around
// those events, core/{sharedmem,distmem}.go against des/{shared,dist}.go —
// and what a poll of mpi-ws's Work costs and when the next is due (the
// message it finds goes to MsgRank.Handle, in the step, on both); the
// differential suites (exact counts on both sides, golden fingerprints
// here) keep those honest.
//
// Because the event loop is sequential and tie-broken deterministically, a
// simulation is an exact function of (tree spec, algorithm, machine
// profile, seed): every figure regenerated from it is bit-reproducible.
//
// The simulator is process-oriented: each PE is a coroutine (coro.go) that
// the event loop resumes, one at a time, on the goroutine running it. A PE
// calls Proc.Advance to consume virtual time, Proc.Block/Proc.Wake for
// sleep/wakeup (used by lock queues), and otherwise manipulates shared
// simulation state freely — exactly one PE runs at any instant, so there
// are no data races by construction. A panic in a PE surfaces from Run.
//
// # Engines
//
// Two engines implement that contract. The batched engine (New, the one a
// run uses) is one dispatcher: a loop that pops an event and resumes its PE,
// the event queue a flat 4-ary indexed min-heap of value-typed entries. An
// Advance whose deadline precedes every queued event commits inline without
// touching the heap or leaving the PE, and protocol loops expressed as step
// functions (AdvanceStepped) run entirely inside the loop with zero
// coroutine switches. A run whose PEs reach each other only through messages
// that take at least a lookahead to land — mpi-ws — is dispatched one
// lookahead-wide window at a time, the window's events a bag (calendar):
// nothing done inside a window is seen across PEs before it ends, so their
// order inside it is free. The legacy engine (legacy.go) resumes the PE once
// per event and keeps a boxed container/heap queue; it is the bit-identical
// reference this package's tests hold the batched one to
// (TestEngineDifferential) and is reachable from nowhere else. Both execute
// the same events in the same order — Sim.Events counts identically — they
// differ only in how cheaply a boundary is reached, or, for the polls of a
// sleeping PE that nothing can answer — no message has arrived, no word it
// will read has changed, no request word was claimed — passed: the batched
// engine alone counts those at the wake without dispatching them
// (dispatcher.sleep).
package des

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/stack"
)

// dispatcher is the event loop of the batched engine: a clock and the queue
// of proc resumptions with its parked slot. The goroutine that calls Run runs
// the loop; a PE it resumes runs while it waits.
type dispatcher struct {
	heap     flatHeap
	pend     ev    // parked event awaiting the dispatcher, if hasPend
	hasPend  bool  // see park: fuses the park-then-dispatch heap traffic
	now      int64 // virtual time, ns
	nprocs   int
	finished int
	events   uint64
	pops     uint64 // events that came off the heap, the parked slot or the calendar
	handoffs uint64 // resumptions of a PE coroutine

	// The counted sleep's own counts (sleep, wake), behind what every
	// boundary reads.
	counted uint64 // boundaries of a sleep, counted at its wake instead of dispatched
	moved   uint64 // queued wakes a later event moved earlier (an overtaking message, a word turning positive, a claim)

	// cal holds the queued events of a windowed run (Sim.windowed), nil in
	// any other: the heap then holds only the sentinel at the window's end.
	cal *calendar
}

// Sim is one simulation instance. Its own dispatcher is the whole batched
// engine; the legacy reference borrows that dispatcher's clock and counters.
type Sim struct {
	dispatcher

	remote RemoteApply // remote-operation interpreter (remote.go)

	legacy bool
	lheap  evHeap // legacy engine's boxed queue (legacy.go)
}

// New creates an empty simulation using the batched engine.
func New() *Sim { return &Sim{} }

// newLegacy creates an empty simulation using the legacy reference engine:
// one coroutine resumption per event and a boxed container/heap event
// queue. It executes the exact same schedule as the batched engine
// and exists so this package's tests can compare against it.
func newLegacy() *Sim { return &Sim{legacy: true} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return time.Duration(s.now) }

// Events returns the number of simulated-time boundaries passed so far:
// every Advance and every stepped-advance quantum with nonzero duration
// counts once, whether it was reached through the event queue, committed
// inline, or — a poll of a sleeping PE that nothing could answer — counted at
// the wake without being dispatched. The count is engine-independent — the
// batched and legacy engines report the same number for the same run — so
// events/second measures pure engine overhead.
func (s *Sim) Events() uint64 { return s.events }

// Intr is a bitmask of typed interrupts posted to a PE. A thief posts
// IntrSteal after claiming a victim's request word; the victim's engine
// observes the mask at its next quantized polling boundary, exactly where
// the per-node polling of the real implementation would have seen the
// request word.
type Intr uint32

// IntrSteal signals a pending steal request on the PE's request word.
const IntrSteal Intr = 1 << 0

// Step flags returned by a Stepper alongside the quantum duration. The
// vocabulary is core's, where the one protocol machine written in it lives.
const (
	// StepDone ends the stepped advance; AdvanceStepped returns 0.
	StepDone = core.StepDone
	// StepNoPoll suppresses the interrupt check at this quantum's
	// boundary — used for boundaries where the original protocol had no
	// service point, keeping the batched schedule bit-identical.
	StepNoPoll = core.StepNoPoll
	// StepSleep permits the engine to count the polls that follow instead
	// of running them (see sleep). The batched dispatcher takes the
	// permission; the legacy reference steps every poll.
	StepSleep = core.StepSleep
)

const maxVT = int64(^uint64(0) >> 1) // +infinity for virtual time

// Never is the instant that does not come: the due time of a sleep with
// nothing on its way (StageSleep).
const Never = time.Duration(maxVT)

// Stepper yields one quantum of a stepped advance: the virtual duration to
// consume and the flags governing the boundary it creates. Step functions
// may freely read and write simulation state (exactly one PE runs at any
// instant) but must not call Advance, Block, or lock operations — they
// execute in dispatcher context, outside the PE's coroutine.
type Stepper = core.Stepper

// Proc is the simulator-side handle of one PE. The fields are in the order a
// boundary touches them: the first cache line is what every pop, park and
// inline commit reads, the second the staged slots of a quantum that has
// any, and what only a resumption, a staged send or a counted sleep needs
// comes after — a fatter Proc whose hot fields straddle a third line shows
// on the one-sided workloads (DESIGN.md §9).
type Proc struct {
	id  int
	sim *Sim

	// The PE's coroutine (start) and its way back to the dispatcher, the
	// parked stepped advance, if any, and the pending interrupt mask.
	next   func() (int64, bool)
	back   func(int64) bool
	stepFn Stepper

	// seq numbers this proc's scheduled resumptions (nextSeq); the
	// (t, id, seq) key orders the event queue identically under every engine.
	seq uint64

	intr   Intr
	stepFl uint8

	// Remote-operation layer: the staged slots of the current quantum
	// (remote.go).
	nstag  int32
	staged [2]stagedOp

	stagedChunks []stack.Chunk // payload of the quantum's StageSend, if it has one

	// A counted sleep (sleep, Notify): polls fall at sleepAt + k·sleepD,
	// sleepD != 0 while p sleeps, and wakeAt is the poll its wake is queued
	// at, maxVT while none is. due is what StageSleep named; skipped, the
	// polls the last wake counted for the step to read (CountedPolls).
	sleepD  int64
	sleepAt int64
	wakeAt  int64
	due     int64
	skipped int64

	// The interrupt mask that ended a stepped advance, handed over at the
	// resumption (run).
	resumed Intr

	// While the proc's queued event waits in a windowed run's calendar
	// bucket, its instant and its neighbours there: a bucket is a list
	// through the procs it holds (calendar).
	qt           int64
	qnext, qprev *Proc

	// Up to four whole cache lines: the allocator's size class for a Proc is
	// then a multiple of the line, and the layout above is the layout in
	// memory (TestEngineCountsPinned holds both).
	_ [32]byte
}

// ID returns the PE number.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time (valid only while running).
func (p *Proc) Now() time.Duration { return time.Duration(p.sim.now) }

// Post sets interrupt bits on p. The poster is another PE (or the
// simulation setup); p observes the mask at its next polling boundary.
func (p *Proc) Post(m Intr) { p.intr |= m }

// ClearIntr clears interrupt bits on p. Protocol service routines call it
// when they consume the underlying request through a direct check, so a
// stale mask cannot trigger a second service.
func (p *Proc) ClearIntr(m Intr) { p.intr &^= m }

// Spawn registers a PE with the given body, scheduled to start at virtual
// time zero. Must be called before Run.
func (s *Sim) Spawn(body func(p *Proc)) *Proc {
	if s.nprocs >= MaxPEs {
		panic(fmt.Sprintf("des: Spawn of PE %d: the event key holds %d PE ids", s.nprocs, MaxPEs))
	}
	p := &Proc{id: s.nprocs, sim: s}
	s.nprocs++
	p.start(body)
	s.schedule(p, 0)
	return p
}

// schedule enqueues a run event for p at virtual time t.
func (s *Sim) schedule(p *Proc, t int64) {
	e := ev{t: t, key: p.nextKey(), p: p}
	if s.legacy {
		s.lheap.push(e)
	} else {
		s.push(e)
	}
}

// push queues e: on the heap, or in a windowed run's calendar.
//
//uts:noalloc
func (d *dispatcher) push(e ev) {
	if d.cal != nil {
		d.cal.push(e)
		return
	}
	d.heap.push(e)
}

// park records p's resume event without pushing it: every park site hands
// control straight to the dispatcher, which consumes the pending event via
// next — one heap exchange (single sift-down) instead of a push/pop pair.
// The sequence number comes from the proc's own counter, exactly as
// schedule would have drawn it, so tie-breaks are unchanged.
//
//uts:noalloc
func (d *dispatcher) park(p *Proc, t int64) {
	d.pend = ev{t: t, key: p.nextKey(), p: p}
	d.hasPend = true
}

// next yields the minimal pending event: the parked event fused against the
// heap root, or a plain pop. A parked event never precedes the root — the
// park condition required the root's key to order at or before the parked
// event's — so the slot always goes through exchange when the heap is
// nonempty.
//
//uts:noalloc
func (d *dispatcher) next() (ev, bool) {
	if d.hasPend {
		d.hasPend = false
		if d.heap.empty() {
			return d.pend, true
		}
		return d.heap.exchange(d.pend), true
	}
	return d.heap.pop()
}

// Run executes the simulation until every spawned PE has finished. It
// returns an error if the event queue drains while PEs are still blocked —
// a protocol deadlock, which the test suite treats as a hard failure.
func (s *Sim) Run() error {
	if s.legacy {
		return s.runLegacy()
	}
	if s.cal != nil {
		return s.dispatchWindows()
	}
	return s.dispatch()
}

// drained is the end of a run whose queue has drained: a deadlock if PEs are
// still blocked.
func (d *dispatcher) drained() error {
	if d.finished != d.nprocs {
		return fmt.Errorf("des: deadlock: %d of %d PEs still blocked at t=%v", d.nprocs-d.finished, d.nprocs, time.Duration(d.now))
	}
	return nil
}

// dispatch pops events and resumes their PEs until the queue drains, and
// reports a drained queue with PEs still blocked as a deadlock.
//
//uts:noalloc
func (d *dispatcher) dispatch() error {
	for {
		e, ok := d.next()
		if !ok {
			return d.drained()
		}
		d.now = e.t
		d.events++
		d.pops++
		if p := e.p; p.stepFn != nil {
			d.contStep(p)
		} else {
			d.run(p, 0)
		}
	}
}

// dispatchWindows is dispatch for a windowed run: the events of the current
// window come out of the calendar's bag in any order, and before each runs
// the sentinel root moves to the end of the window it belongs to, so that
// ahead — unchanged — commits every boundary inside that window inline and
// parks every one past it. A parked event goes to the calendar.
//
//uts:noalloc
func (d *dispatcher) dispatchWindows() error {
	c := d.cal
	for {
		if d.hasPend {
			d.hasPend = false
			c.push(d.pend)
		}
		e, ok := c.pop()
		if !ok {
			return d.drained()
		}
		d.heap.a[0].t = c.end
		d.now = e.t
		d.events++
		d.pops++
		if p := e.p; p.stepFn != nil {
			d.contStep(p)
		} else {
			d.run(p, 0)
		}
	}
}

// run resumes p's coroutine until it yields back or its body returns,
// handing it m, the interrupt mask that ended its stepped advance (0 for
// anything else).
//
//uts:noalloc
func (d *dispatcher) run(p *Proc, m Intr) {
	d.handoffs++
	p.resumed = m
	if _, ok := p.next(); !ok {
		d.finished++
	}
}

// ahead is the inline-commit test: a boundary of proc id at time t may be
// taken without the queue when it orders before every queued event.
//
//uts:noalloc
func (d *dispatcher) ahead(t int64, id int) bool {
	return d.heap.empty() || d.heap.rootAfter(t, id)
}

// contStep continues a parked stepped advance at its boundary, in dispatcher
// context. It applies the boundary's flags, then keeps stepping inline —
// committing quanta that precede every queued event without any heap
// traffic or coroutine switch — until the advance ends (the PE is resumed
// with what ended it), a quantum collides with the queue and is
// rescheduled, or it sleeps.
//
//uts:noalloc
func (d *dispatcher) contStep(p *Proc) {
	fl := p.stepFl
	if fl&StepSleep != 0 {
		d.woke(p)
	}
	for {
		if p.nstag > 0 {
			p.runStaged()
		}
		if fl&StepDone != 0 {
			p.stepFn = nil
			d.run(p, 0)
			return
		}
		if fl&StepNoPoll == 0 && p.intr != 0 {
			m := p.intr
			p.intr = 0
			p.stepFn = nil
			d.run(p, m)
			return
		}
		var dt time.Duration
		dt, fl = p.stepFn()
		if dt > 0 {
			if fl&StepSleep != 0 {
				d.sleep(p, int64(dt), fl)
				return
			}
			t := d.now + int64(dt)
			if !d.ahead(t, p.id) {
				p.stepFl = fl
				d.park(p, t)
				return
			}
			d.now = t
			d.events++
		}
	}
}

// sleep takes p off the queue: its step returned quantum dt with StepSleep,
// so its next boundaries are polls at now + k·dt that see nothing until
// something the host hears of happens — a message arrives, a word the poll
// reads is written, a request word is claimed — and running them would be a
// heap exchange and a step call each to learn that. The wake is queued at the
// first poll such an event can reach — now if the step named one already
// known (StageSleep), else when Notify brings one — under p's ordinary key,
// so the schedule of every other event, and of the wake itself, is the one
// stepping every poll produces. A PE that is never notified stays out of the
// queue and is reported by the drained-queue deadlock check like any blocked
// one.
//
//uts:noalloc
func (d *dispatcher) sleep(p *Proc, dt int64, fl uint8) {
	p.stepFl = fl
	p.sleepAt, p.sleepD, p.wakeAt = d.now, dt, maxVT
	if p.due != maxVT {
		d.wake(p, p.due)
	}
}

// wake queues sleeping p's wake at its first poll at or after instant at, or
// moves a later one already queued there, and reports whether it did: a small message can overtake an
// earlier bulky one, and a searching PE's wake at its cycle's end is pulled in
// by every word that turns positive on its way. The queued wake is found by
// scanning the heap — a few times a run for messages, for most wakes of a
// searcher, where the scan is ≈1 % of the run at 256 PEs and ≈3.5 % at 1024
// (DESIGN.md §9 has the counts) against a position index every sift of every
// run would have to keep.
//
//uts:noalloc
func (d *dispatcher) wake(p *Proc, at int64) bool {
	k := max(1, (at-p.sleepAt+p.sleepD-1)/p.sleepD)
	t := p.sleepAt + k*p.sleepD
	switch {
	case p.wakeAt == maxVT:
		d.push(ev{t: t, key: p.nextKey(), p: p})
	case t < p.wakeAt:
		if d.cal != nil {
			d.cal.moveEarlier(p, p.wakeAt, t)
		} else {
			d.heap.moveEarlier(p, t)
		}
		d.moved++
	default:
		return false
	}
	p.wakeAt = t
	return true
}

// woke accounts for the sleep p's wake just popped from: the clock stands on
// poll k, and the k−1 before it are boundaries that passed without being
// dispatched.
//
//uts:noalloc
func (d *dispatcher) woke(p *Proc) {
	p.skipped = (d.now-p.sleepAt)/p.sleepD - 1
	p.sleepD = 0
	d.events += uint64(p.skipped)
	d.counted += uint64(p.skipped)
}

// StageSleep declares the quantum the surrounding Stepper is about to return
// with StepSleep — the poll period d, which StageSleep returns for
// convenience — and names due, the earliest instant at which something
// already on its way becomes visible to the PE's polls (Never: nothing is) —
// a message in flight, or the poll a searching PE has to run whatever happens.
// Later events reach a sleeping PE through Notify.
//
//uts:noalloc
func (p *Proc) StageSleep(d, due time.Duration) time.Duration {
	p.due = int64(due)
	return d
}

// Notify tells the engine that something that happened to p becomes visible
// to its polls at instant at and not before: a message that takes until then
// to arrive, a word p reads at that poll, a claim of its request word. A poll
// of p at the current instant may already have been passed over — whether it
// has is a matter of proc ids the caller knows and the engine does not — so
// at is later than now, or now for a caller that has checked. Every such
// event for a PE that may sleep must call it, in p's own execution context (a
// remote operation's apply is one); it does nothing unless p is in a counted
// sleep, and reports whether p's wake is now queued for this event — false if
// it was due at that poll or an earlier one already.
//
//uts:noalloc
func (p *Proc) Notify(at time.Duration) bool {
	return p.sleepD != 0 && p.sim.wake(p, int64(at))
}

// Counts reports whether the engine that owns p takes StepSleep's permission.
// A host whose sleep needs bookkeeping of its own — a registry of sleepers
// that writers walk — asks before it keeps any: under the legacy reference
// every poll is stepped and the bookkeeping would be waste.
//
//uts:noalloc
func (p *Proc) Counts() bool { return !p.sim.legacy }

// CountedPolls returns, once, how many polls the engine counted without
// calling the step during the sleep that just ended: k−1 when the step
// resumes at poll k, always 0 under an engine that steps every poll. A step
// that books time per poll adds this many.
//
//uts:noalloc
func (p *Proc) CountedPolls() int64 {
	k := p.skipped
	p.skipped = 0
	return k
}

// Advance consumes d of virtual time: the PE resumes once the clock
// reaches now+d. When the deadline's (t, id, seq) key strictly precedes
// every queued event the clock commits inline — no heap traffic, no
// coroutine switch. Otherwise the smaller-keyed queued event must run
// first, exactly as if this PE had parked and been popped in key order,
// so skipping the queue preserves the schedule. Negative delays are
// treated as zero.
//
//uts:noalloc
func (p *Proc) Advance(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if p.sim.legacy {
		p.back(int64(d)) // the reference reschedules p at now+d
		return
	}
	q := &p.sim.dispatcher
	t := q.now + int64(d)
	if q.ahead(t, p.id) {
		q.now = t
		q.events++
		return
	}
	q.park(p, t)
	p.yield()
}

// AdvanceStepped consumes virtual time one quantum at a time, calling step
// for each. After a quantum with duration d the clock stands exactly at
// the quantum's boundary; there the engine applies the returned flags:
// StepDone ends the advance (returns 0), and — unless StepNoPoll is set —
// a pending interrupt mask ends it too (returns the mask, cleared). A
// zero-duration quantum creates no event but still gets its boundary
// flags applied, mirroring the zero-pending flush of the protocol loops.
//
// The first step executes before any interrupt check, matching protocols
// that explore before polling. Quanta run inline while their boundary
// precedes every queued event; otherwise the PE parks and the dispatcher
// continues the same step sequence in place, so a whole batch of node
// work, probes, or idle polls costs zero coroutine switches.
//
//uts:noalloc
func (p *Proc) AdvanceStepped(step Stepper) Intr {
	if p.sim.legacy {
		return p.legacyAdvanceStepped(step)
	}
	q := &p.sim.dispatcher
	for {
		d, fl := step()
		if d > 0 {
			if fl&StepSleep != 0 {
				p.stepFn = step
				q.sleep(p, int64(d), fl)
				return p.yield()
			}
			t := q.now + int64(d)
			if !q.ahead(t, p.id) {
				p.stepFn = step
				p.stepFl = fl
				q.park(p, t)
				return p.yield()
			}
			q.now = t
			q.events++
		}
		if p.nstag > 0 {
			p.runStaged()
		}
		if fl&StepDone != 0 {
			return 0
		}
		if fl&StepNoPoll == 0 && p.intr != 0 {
			m := p.intr
			p.intr = 0
			return m
		}
	}
}

// yield suspends p's coroutine until the dispatcher resumes it at an event
// (or at the end of a stepped advance it continued), and returns the
// interrupt mask that ended that advance, or 0.
//
//uts:noalloc
func (p *Proc) yield() Intr {
	p.back(0)
	return p.resumed
}

// Block parks the PE until another PE calls Wake on it. Only the legacy
// reference reads the value yielded: the batched engine queues nothing for
// a PE that did not queue itself.
func (p *Proc) Block() { p.back(blocked) }

// Wake schedules a blocked PE q to resume at the current virtual time plus
// d. Calling Wake on a PE that is not blocked corrupts the schedule; the
// lock discipline in this package is the only caller.
func (p *Proc) Wake(q *Proc, d time.Duration) {
	p.sim.schedule(q, p.sim.now+int64(d))
}

// ev is one scheduled resumption, ordered by the key (t, proc ID, per-proc
// seq). No component depends on a global counter or on when the event was
// queued: within one proc the seq keeps its resumptions FIFO, and across
// procs a time tie resolves by proc ID, which is deterministic under every
// engine.
//
// The tie-break travels as one word, key = id<<seqBits | seq, so the order
// is that of the 128-bit unsigned number (t, key) — virtual time is never
// negative — and comparing two events is a subtraction, not three branches.
type ev struct {
	t   int64
	key uint64
	p   *Proc
}

// The key word's two fields. idBits is the one constant that bounds how many
// procs a simulation can hold (MaxPEs); seqBits leaves each of them 2⁴⁴
// resumptions, some days of wall time at the engine's best rate.
const (
	idBits  = 20
	seqBits = 64 - idBits
	seqMax  = 1<<seqBits - 1

	// MaxPEs is the largest number of procs one simulation can order: PE ids
	// are a field of the event key. Config.PEs above it is an error (a traced
	// run's sampler takes one id too), a Spawn past it panics.
	MaxPEs = 1 << idBits
)

// nextSeq draws p's next sequence number. One that no longer fits its field
// would carry into the id and reorder the run, so it stops it instead.
//
//uts:noalloc
func (p *Proc) nextSeq() uint64 {
	if p.seq == seqMax {
		panic("des: a PE exhausted the event key's sequence field")
	}
	p.seq++
	return p.seq
}

// nextKey is the tie-break word of p's next scheduled resumption.
//
//uts:noalloc
func (p *Proc) nextKey() uint64 { return uint64(p.id)<<seqBits | p.nextSeq() }

// before128 is the borrow of (t1, k1) − (t2, k2) as 128-bit numbers: 1 when
// the first key orders strictly before the second, else 0.
//
//uts:noalloc
func before128(t1 int64, k1 uint64, t2 int64, k2 uint64) uint64 {
	_, b := bits.Sub64(k1, k2, 0)
	_, b = bits.Sub64(uint64(t1), uint64(t2), b)
	return b
}

// before is the event order as a 0/1 word, for the selection in siftDown
// that must not branch on it; less is the same as a bool.
//
//uts:noalloc
func (a *ev) before(b *ev) uint64 { return before128(a.t, a.key, b.t, b.key) }

//uts:noalloc
func (a *ev) less(b *ev) bool { return a.before(b) != 0 }

// flatHeap is a flat 4-ary indexed min-heap of value-typed events: no
// interface boxing, no per-push allocation beyond slice growth, and a
// shallower tree than a binary heap — sift-downs touch ~half as many
// levels, which matters because pop is the engine's hottest operation.
type flatHeap struct {
	a []ev
}

func (h *flatHeap) empty() bool { return len(h.a) == 0 }

// rootAfter reports whether the heap minimum orders strictly after a
// would-be event of proc id at time t — the inline-commit condition. A
// proc has at most one outstanding resumption, so the (t, id) prefix of
// the key can never tie exactly against a queued event and the seq
// component need not be consulted: the would-be event stands for all of
// them with its seq field full.
//
//uts:noalloc
func (h *flatHeap) rootAfter(t int64, id int) bool {
	r := &h.a[0]
	return before128(t, uint64(id)<<seqBits|seqMax, r.t, r.key) != 0
}

//uts:noalloc
func (h *flatHeap) push(e ev) {
	h.a = append(h.a, e) //uts:ok noalloc amortized slice growth; steady-state pushes reuse the backing array
	h.siftUp(len(h.a)-1, e)
}

// siftUp places e at or above the hole i, moving larger parents down.
//
//uts:noalloc
func (h *flatHeap) siftUp(i int, e ev) {
	a := h.a
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.less(&a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = e
}

// moveEarlier is decrease-key by scan: the queued event of p, which must
// have one, moves to the earlier instant t. The scan starts at the leaves: a
// wake that has to move was queued far ahead.
//
//uts:noalloc
func (h *flatHeap) moveEarlier(p *Proc, t int64) {
	i := len(h.a) - 1
	for h.a[i].p != p {
		i--
	}
	e := h.a[i]
	e.t = t
	h.siftUp(i, e)
}

//uts:noalloc
func (h *flatHeap) pop() (ev, bool) {
	n := len(h.a)
	if n == 0 {
		return ev{}, false
	}
	top := h.a[0]
	n--
	h.a[0] = h.a[n]
	h.a[n] = ev{}
	h.a = h.a[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return top, true
}

// exchange replaces the minimum with e and returns it, restoring heap
// order with a single sift-down. It is the fused form of push(e)+pop()
// for the engine's hottest pattern — a PE parks and the dispatcher
// immediately needs the next event — valid whenever e orders at-or-after
// the current root, which the park condition guarantees.
//
//uts:noalloc
func (h *flatHeap) exchange(e ev) ev {
	top := h.a[0]
	h.a[0] = e
	h.siftDown(0)
	return top
}

// siftDown restores heap order below i by hole insertion: the displaced
// element is held aside while smaller children move up, then written once
// at its final slot — half the memory traffic of swapping at every level.
//
// Which of four children is smallest is as good as random, and a branch per
// comparison mispredicts accordingly (a third of a protocol run went here),
// so a full group is settled by arithmetic on the comparison bits: the
// smaller of each pair, then the smaller of those. Keys are distinct — every
// (id, seq) is drawn once — so the minimum is the one the loop would find.
// Only the last group of a heap can be short; it keeps the loop.
//
//uts:noalloc
func (h *flatHeap) siftDown(i int) {
	a := h.a
	n := len(a)
	e := a[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			g := a[c : c+4 : c+4]
			lo := int(g[1].before(&g[0]))
			hi := 2 + int(g[3].before(&g[2]))
			m += lo + (hi-lo)&-int(g[hi].before(&g[lo]))
		} else {
			for j := c + 1; j < n; j++ {
				if a[j].less(&a[m]) {
					m = j
				}
			}
		}
		if !a[m].less(&e) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

// calendar is the event queue of a windowed run (Sim.windowed). Window k is
// the span [k·w, (k+1)·w); the ring holds the events of windows cur …
// cur+calSlots−1, window k's at slot k mod calSlots, each slot a bag that
// pops last-in first-out; far holds the events of later windows, in key
// order, and hands them to the ring as cur comes within calSlots of them.
// Nothing one PE does inside a window reaches another before the window
// ends, so the order within a bag is free (DESIGN.md §9, "A window is a
// bag"); it is deterministic all the same, a function of the pushes alone.
// A proc has at most one queued event, so a bag needs no storage of its
// own: it is a list through its procs (Proc.qt, qnext, qprev). A slice per
// slot would grow to one event per PE and cost sim_msgpoll ≈ 0.3 MiB of
// peak RSS.
type calendar struct {
	w   int64 // window width, ns
	cur int64 // the current window
	end int64 // its end, (cur+1)·w: the instant of the heap's sentinel
	n   int   // events in the ring

	ring [calSlots]*Proc
	far  flatHeap
}

// calSlots is the ring's span in windows, a power of two: at the
// benchmark's grain every event of mpi-ws falls within four windows of the
// current one; the far heap is for longer quanta and for windows of a few ns.
const calSlots = 8

// windowed makes s a windowed run: it is dispatched one window of width w at
// a time (dispatchWindows), its events queued in a calendar, not the heap.
// It is run.go's to choose, before the first Spawn, and only for a run in
// which every effect of one PE on another is a message that takes at least w
// to land (StageSend holds it to that) and nothing observes the PEs at
// instants of its own.
func (s *Sim) windowed(w time.Duration) {
	if s.nprocs != 0 || w <= 0 {
		panic("des: a run is windowed before its first Spawn, by a positive width")
	}
	s.cal = &calendar{w: int64(w), end: int64(w)}
	s.heap.push(ev{t: int64(w)}) // the sentinel: ahead(t, id) reads t < end
}

// window is the width of a windowed run's windows, 0 in any other run.
//
//uts:noalloc
func (d *dispatcher) window() int64 {
	if d.cal == nil {
		return 0
	}
	return d.cal.w
}

//uts:noalloc
func (c *calendar) push(e ev) {
	k := e.t / c.w
	if k < c.cur {
		panic("des: an event queued before the window being dispatched")
	}
	if k-c.cur >= calSlots {
		c.far.push(e)
		return
	}
	p, b := e.p, &c.ring[k&(calSlots-1)]
	p.qt, p.qnext, p.qprev = e.t, *b, nil
	if p.qnext != nil {
		p.qnext.qprev = p
	}
	*b = p
	c.n++
}

// pop takes an event of the current window, moving on to the next window
// that has one when the current is empty.
//
//uts:noalloc
func (c *calendar) pop() (ev, bool) {
	for {
		b := &c.ring[c.cur&(calSlots-1)]
		if p := *b; p != nil {
			if *b = p.qnext; p.qnext != nil {
				p.qnext.qprev = nil
			}
			c.n--
			return ev{t: p.qt, p: p}, true
		}
		switch {
		case c.n > 0:
			c.cur++
		case c.far.empty():
			return ev{}, false
		default: // an empty ring: on to the far heap's first window
			c.cur = c.far.a[0].t / c.w
		}
		c.end = (c.cur + 1) * c.w
		for lim := (c.cur + calSlots) * c.w; !c.far.empty() && c.far.a[0].t < lim; {
			e, _ := c.far.pop()
			c.push(e)
		}
	}
}

// moveEarlier moves p's queued event from instant from to the earlier to:
// unlinked from its bucket, or, from the far heap, by flatHeap's scan.
//
//uts:noalloc
func (c *calendar) moveEarlier(p *Proc, from, to int64) {
	if lim := (c.cur + calSlots) * c.w; from >= lim {
		c.far.moveEarlier(p, to)
		if to < lim {
			e, _ := c.far.pop() // p's: it precedes every event left in the far heap
			c.push(e)
		}
		return
	}
	if p.qprev != nil {
		p.qprev.qnext = p.qnext
	} else {
		c.ring[(from/c.w)&(calSlots-1)] = p.qnext
	}
	if p.qnext != nil {
		p.qnext.qprev = p.qprev
	}
	c.n--
	c.push(ev{t: to, p: p})
}

// Lock is a virtual-time mutex with FIFO queueing. Contention behaves as
// on real hardware: a PE that requests a held lock waits for every earlier
// requester — this is how the simulator reproduces the paper's observation
// that remote thieves can keep a victim's stack locked for long stretches.
// The waiter queue is a ring buffer with O(1) enqueue and dequeue, so a
// long thief queue costs nothing beyond the queueing delay it models.
type Lock struct {
	held bool
	q    []*Proc // ring buffer of waiters
	head int
	n    int
}

func (l *Lock) enqueue(p *Proc) {
	if l.n == len(l.q) {
		size := 2 * len(l.q)
		if size < 4 {
			size = 4
		}
		grown := make([]*Proc, size)
		for i := 0; i < l.n; i++ {
			grown[i] = l.q[(l.head+i)%len(l.q)]
		}
		l.q, l.head = grown, 0
	}
	l.q[(l.head+l.n)%len(l.q)] = p
	l.n++
}

func (l *Lock) dequeue() *Proc {
	p := l.q[l.head]
	l.q[l.head] = nil
	l.head = (l.head + 1) % len(l.q)
	l.n--
	return p
}

// Acquire takes the lock, first consuming cost (the acquisition RTT), then
// queueing behind the current holder if necessary.
//
//uts:noalloc
func (p *Proc) Acquire(l *Lock, cost time.Duration) {
	p.Advance(cost)
	if !l.held {
		l.held = true
		return
	}
	l.enqueue(p)
	p.Block()
	// Woken by Release with the lock already assigned to us.
}

// Release hands the lock to the oldest waiter, if any, and consumes cost
// (the release RTT) on the calling PE.
//
//uts:noalloc
func (p *Proc) Release(l *Lock, cost time.Duration) {
	if !l.held {
		panic("des: release of unheld lock")
	}
	if l.n > 0 {
		p.Wake(l.dequeue(), 0) // lock stays held, now by next
	} else {
		l.held = false
	}
	p.Advance(cost)
}
