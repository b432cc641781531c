package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// PE is the per-PE shell every scheduler on every substrate embeds: the
// bookkeeping around the Figure-1 state machine that does not depend on
// which protocol moves the work or on which clock times it. The goroutine
// workers here and the cluster's rank worker reach it through WallPE; the
// simulator's PEs wrap it in their virtual-time adapter (des/pe.go).
//
// The shell is clock-free, like policy.Controller: every timestamp that
// feeds a decision is the caller's, so virtual-time runs stay
// deterministic; only trace events are stamped here (Rec). A nil Lane and
// a nil Ctl make every method a no-op beyond the counters, which is the
// untraced, fixed-knob fast path: both are nil-safe, so no call here
// guards them.
type PE struct {
	T     *stats.Thread
	Local stack.Deque        // the owner-only DFS stack
	Lane  *obs.Lane          // nil when the run is untraced
	Ctl   *policy.Controller // nil when the run is not adaptive

	sp *uts.Spec
	st rng.Stream // sp's, resolved once

	// Virt is the virtual clock trace events are stamped with; nil on the
	// wall clock. The simulator binds it when the PE's process starts.
	Virt func() time.Duration

	// Stolen is the node count delivered by the steal in flight: steal
	// bodies set it on success, StealEnd reports it to the controller.
	Stolen int

	// free holds the buffers of the chunks this PE was the last to read —
	// the ones Reacquired and Landed copied onto Local — for Release to fill
	// again: a PE that releases and reacquires every other node allocates
	// nothing for it. A chunk has one owner at a time and changes hands under
	// whatever orders the protocol's own hand-over (the pool's lock, the
	// response slot's flag, a message, a virtual instant), so the buffer of a
	// stolen chunk goes to the thief's list, never back to the victim's. The
	// relaxed ring is no exception: a claimer that loses the ledger's CAS
	// has read the chunk's header, never its nodes (DESIGN.md §14).
	free []stack.Chunk

	_ [8]byte // keeps every worker a whole number of cache lines

	flushed  int64 // T.Nodes already published to the lane's live counter
	ctlNodes int64 // T.Nodes already reported to the controller
}

// NewPE builds the shell for one PE of a search of sp.
func NewPE(sp *uts.Spec, t *stats.Thread, lane *obs.Lane, ctl *policy.Controller) PE {
	return PE{T: t, Lane: lane, Ctl: ctl, sp: sp, st: sp.Stream()}
}

// Visit is the node kernel: visit at most most nodes from the top of the
// local stack, count them, and leave their children in their place on the
// stack (stack.Deque.PopExpand — the sequential loop's one write per child,
// and its price). It returns how many it visited, 0 and nothing touched when
// the local stack is empty. most is the order: 1 is strict depth-first, one
// node a call, which is what a virtual-time schedule is defined over and all
// the simulator ever passes; a wall-clock worker passes how many nodes it
// may explore before its next poll or yield, and where the CPU has the
// AVX-512 lane kernels (sixteen SHA-1 lanes, 32 ALFG lanes) gets a frontier
// of the top nodes visited in one call.
func (pe *PE) Visit(most int) int {
	nodes, leaves := pe.Local.PopExpand(pe.sp, pe.st, most)
	if nodes == 0 {
		return 0
	}
	pe.T.Nodes += int64(nodes)
	pe.T.Leaves += int64(leaves)
	pe.T.NoteDepth(pe.Local.Len())
	return nodes
}

// FlushNodes publishes node progress to the lane's live counter — one
// atomic add per flush, called at the yield/quantum cadence and never per
// node. The counter is observation-only.
func (pe *PE) FlushNodes() {
	if d := pe.T.Nodes - pe.flushed; d != 0 {
		pe.Lane.AddNodes(d)
		pe.flushed = pe.T.Nodes
	}
}

// NoteCtl feeds node progress and the stack depth to the controller,
// stamped now, which is what closes adaptation windows. Called at the
// FlushNodes cadence — at a yield on the wall clock, at a quantum's end in
// the simulator — a point with no release in flight, so the 2k threshold
// and the released chunk never straddle a knob change.
func (pe *PE) NoteCtl(now int64) {
	pe.Ctl.NoteNodes(int(pe.T.Nodes-pe.ctlNodes), pe.Local.Len(), now)
	pe.ctlNodes = pe.T.Nodes
}

// Rec records a trace event stamped with the PE's timebase: the virtual
// clock if one is bound, else the wall clock.
func (pe *PE) Rec(k obs.Kind, other int32, value int64) {
	switch {
	case pe.Lane == nil: // untraced
	case pe.Virt != nil:
		pe.Lane.RecV(k, other, value, pe.Virt())
	default:
		pe.Lane.Rec(k, other, value)
	}
}

// The work-movement events: what every protocol on every substrate books
// and traces when a chunk changes hands, and the chunk buffers themselves.
// Charges, locks and work-available stores are the protocol's and stay at
// its call sites.

// Release takes the k oldest local nodes off the stack as a chunk, into a
// recycled buffer when there is one. The caller makes it stealable and
// books that (Released, or the grant it rides in).
func (pe *PE) Release(k int) stack.Chunk {
	var buf stack.Chunk
	if last := len(pe.free) - 1; last >= 0 {
		buf, pe.free = pe.free[last], pe.free[:last]
	}
	return pe.Local.TakeBottomAppend(buf, k)
}

// recycle keeps the buffer of c, whose nodes the caller has just copied
// onto Local, for the next Release.
func (pe *PE) recycle(c stack.Chunk) {
	pe.free = append(pe.free, c[:0])
}

// Released books a chunk made stealable, leaving avail of them.
func (pe *PE) Released(avail int) {
	pe.T.Releases++
	pe.Rec(obs.KindRelease, -1, int64(avail))
}

// Reacquired books the owner taking chunk c back and puts it on the local
// stack.
func (pe *PE) Reacquired(c stack.Chunk) {
	pe.T.Reacquires++
	pe.Rec(obs.KindReacquire, -1, int64(len(c)))
	pe.Local.PushAll(c)
	pe.recycle(c)
}

// Granted books a steal request from thief answered with n chunks.
func (pe *PE) Granted(thief, n int) {
	pe.T.Requests++
	pe.Rec(obs.KindStealGrant, int32(thief), int64(n))
}

// Denied books a steal request from thief answered with nothing. Denying
// while the local stack still holds work is the victim-side witness that
// the release threshold (2k) withholds work from live demand — evidence
// toward a smaller k.
func (pe *PE) Denied(thief int) {
	pe.T.Requests++
	if pe.Local.Len() > 0 {
		pe.Ctl.NoteDenied()
	}
	pe.Rec(obs.KindStealDeny, int32(thief), 0)
}

// Landed books a successful steal of chunks (at least one) from v and puts
// the first on the local stack. The rest are returned for the caller to
// store: further chunks make the thief a work source itself (Section
// 3.3.2).
func (pe *PE) Landed(v int, chunks []stack.Chunk) []stack.Chunk {
	total := stack.NodeCount(chunks)
	pe.T.Steals++
	pe.T.ChunksGot += int64(len(chunks))
	pe.Stolen = total
	pe.Rec(obs.KindChunkTransfer, int32(v), int64(total))
	pe.Local.PushAll(chunks[0])
	pe.recycle(chunks[0])
	return chunks[1:]
}

// StealBegin opens the controller's steal-latency window at now.
func (pe *PE) StealBegin(now int64) {
	pe.Stolen = 0
	pe.Ctl.StealBegin(now)
}

// StealEnd closes the window at now with the attempt's outcome and the
// Stolen node count.
func (pe *PE) StealEnd(ok bool, now int64) {
	pe.Ctl.StealEnd(ok, pe.Stolen, now)
}

// WallPE is the shell on the wall clock: what the goroutine workers of
// this package and the cluster's rank worker embed. It is the clock third
// of the machine's Host and, with Steps, most of the engine third.
type WallPE struct {
	// A line of distance in front of the per-node words (PE.Local's
	// header): the workers that embed this can be allocated next to each
	// other, and without it the fields one reads per node at its tail share
	// a line with the ones its neighbour writes per node (DESIGN.md §17).
	// The work loop's two words end it, so that the workers keep their sizes,
	// whole lines (TestStackStructsPadded).
	_             [cacheLine - 16]byte
	sinceYield, k int // nodes explored since the last yield; the k in effect (K)

	PE

	// Interrupt reports, at a service point of the machine, a pending
	// steal request (Interrupted). A scheduler whose thieves post requests
	// sets it; nil means none is ever pending.
	Interrupt func() bool

	staged [2]int64 // the reads of the current quantum, in staging order
	nstag  int
}

// eachThread runs body on one goroutine per thread of a run of this
// package, handing each its shell, and waits for all of them.
func eachThread(sp *uts.Spec, opt Options, res *Result, body func(me int, pe WallPE)) {
	var wg sync.WaitGroup
	for me := 0; me < opt.Threads; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			body(me, WallPE{PE: NewPE(sp, &res.Threads[me], opt.Tracer.Lane(me), opt.policySet.Controller(me))})
		}(me)
	}
	wg.Wait()
}

// Start begins wall-clock state accounting in the Working state.
func (w *WallPE) Start() {
	w.T.StartTimers(time.Now())
	w.Rec(obs.KindStateChange, -1, int64(stats.Working))
}

// Stop charges the final interval and freezes the accounting.
func (w *WallPE) Stop() { w.T.StopTimers(time.Now()) }

// SetState pairs the stats state timer with the tracer's state event.
func (w *WallPE) SetState(s stats.State) {
	w.T.Switch(s, time.Now())
	w.Rec(obs.KindStateChange, -1, int64(s))
}

// Now is the timestamp controller feedback is stamped with. Fixed-knob
// runs never read it, so they get zero and never pay for the clock.
func (w *WallPE) Now() int64 {
	if w.Ctl == nil {
		return 0
	}
	// Policy feedback timestamp: adaptive real-mode runs are wall-clock
	// paced by design.
	return time.Now().UnixNano()
}

// BeginSteal enters the Stealing state and opens the steal window.
func (w *WallPE) BeginSteal() {
	w.SetState(stats.Stealing)
	w.StealBegin(w.Now())
}

// EndSteal closes the steal window and moves to state back.
func (w *WallPE) EndSteal(ok bool, back stats.State) {
	w.StealEnd(ok, w.Now())
	w.SetState(back)
}

// yield ends a yield interval — flush, controller, Gosched: the one place that order is written.
func (w *WallPE) yield() {
	w.sinceYield = 0
	w.FlushNodes()
	w.NoteCtl(w.Now())
	runtime.Gosched()
}

// Explore is Visit on the yield cadence, the Working state of a scheduler
// that releases nothing (mpi-ws, static): it visits up to most nodes and
// reports whether it stopped at most (more), false once the stack is empty
// — flushed. A visit takes no more than is left of most or of the
// interval, and the yield follows the visit that fills the interval, so the
// next quantum's caller reads a controller fed up to its last node. The
// quantum is 0: on the wall clock the nodes have been visited when it
// returns.
func (w *WallPE) Explore(most int) (time.Duration, bool) {
	for most > 0 {
		n := w.Visit(min(most, YieldEvery-w.sinceYield))
		if n == 0 {
			w.FlushNodes()
			return 0, false
		}
		most -= n
		if w.sinceYield += n; w.sinceYield >= YieldEvery {
			w.yield()
		}
	}
	return 0, true
}

// Edge is where Working stopped exploring.
type Edge int

const (
	Drained Edge = iota // the local stack is empty: reacquire, or be out of work
	Surplus             // Local.Len() >= 2*K(): release K() — the same K — nodes (Section 3.1)
	Pending             // request holds a thief: answer it
	Yielded             // a yield interval just ended: k may have adapted
)

// Working is Figure 1's Working state of every UPC algorithm on the wall
// clock, up to its next edge. request (−1 or a thief; nil for the
// shared-memory family, whose thieves help themselves) is read before every
// visit; fixedK is K without a controller. It returns at an edge instead of
// calling a hook, so no call on the per-node path is dynamic (DESIGN.md §16).
func (w *WallPE) Working(fixedK int, request *atomic.Int32) Edge {
	if w.k == 0 {
		w.k = w.Ctl.Chunk(fixedK)
	}
	for {
		if w.sinceYield >= YieldEvery {
			w.yield()
			w.k = w.Ctl.Chunk(fixedK) // may have adapted at the window boundary
			return Yielded
		}
		if request != nil && request.Load() >= 0 {
			return Pending
		}
		n := w.Visit(YieldEvery - w.sinceYield)
		if n == 0 {
			return Drained
		}
		if w.sinceYield += n; w.Local.Len() >= 2*w.k {
			return Surplus
		}
	}
}

// K is the release granularity in effect; it changes only across a yield.
func (w *WallPE) K() int { return w.k }

// Steps is the engine of a step function on the wall clock (w.Steps(m.Start())
// runs Machine m to its end, w.Steps(r.Start()) MsgRank r), the synchronous
// counterpart of the simulator's dispatcher: quanta run back to back (a
// staged read, a send, and every operation of the host, has already taken
// its time when the step returns), and every service point — the rank's
// idle beat is its only one — yields the processor: searching and waiting
// PEs must not starve working ones when goroutines outnumber cores. A
// machine then asks Interrupted.
func (w *WallPE) Steps(step Stepper) {
	for {
		w.nstag = 0
		_, fl := step()
		if fl&StepDone != 0 {
			return
		}
		if fl&StepNoPoll == 0 {
			runtime.Gosched()
		}
	}
}

// Interrupted asks the scheduler's Interrupt, if it set one.
func (w *WallPE) Interrupted() bool { return w.Interrupt != nil && w.Interrupt() }

// Busy: on the wall clock an operation has happened when its call returns.
func (w *WallPE) Busy() (time.Duration, uint8, bool) { return 0, 0, false }

// Stage is how a wall-clock host stages a read it has just executed.
func (w *WallPE) Stage(v int64) time.Duration {
	w.staged[w.nstag] = v
	w.nstag++
	return 0
}

// StageFlag stages a read whose answer is a flag.
func (w *WallPE) StageFlag(set bool) time.Duration {
	if set {
		return w.Stage(1)
	}
	return w.Stage(0)
}

// Staged returns the i-th read staged by the last quantum.
func (w *WallPE) Staged(i int) int64 { return w.staged[i] }

// Doze and Probed: on the wall clock a probe is a load that has happened
// when it is staged; there is nothing to sleep through.
func (w *WallPE) Doze(*ProbeWalk) time.Duration   { return 0 }
func (w *WallPE) Probed(*ProbeWalk) (int64, bool) { return w.staged[0], false }

// Settle: only a host that hands work out through a table (the cluster)
// has work that comes home by itself.
func (w *WallPE) Settle(bool) bool { return false }

// SharedVariant selects the refinements layered onto the shared-memory
// algorithm to form upc-term, upc-term-rapdif and upc-term-relaxed.
type SharedVariant struct {
	// StreamTerm replaces the cancelable barrier with the streamlined
	// detector (Section 3.3.1).
	StreamTerm bool
	// StealHalf steals half the victim's chunks instead of one
	// (Section 3.3.2).
	StealHalf bool
	// Relaxed replaces the lock-guarded shared region with the fence-free
	// relaxed ring and its multiplicity ledger (upc-term-relaxed,
	// DESIGN.md §14). Implies StreamTerm in practice: the tri-state
	// workAvail termination protocol is what makes the owner-only
	// workAvail writes safe.
	Relaxed bool
}

// SharedVariants maps each member of the shared-memory family to its
// refinements.
var SharedVariants = map[Algorithm]SharedVariant{
	UPCSharedMem:   {},
	UPCTerm:        {StreamTerm: true},
	UPCTermRapdif:  {StreamTerm: true, StealHalf: true},
	UPCTermRelaxed: {StreamTerm: true, Relaxed: true},
}

// PolicyBase is the static configuration the adaptive controllers start
// from and stay bounded around, the same on every substrate.
func PolicyBase(a Algorithm, chunk, poll int) policy.Base {
	return policy.Base{Chunk: chunk, Poll: poll, StealHalf: SharedVariants[a].StealHalf}
}
