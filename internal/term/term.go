// Package term implements the termination-detection mechanisms of the three
// algorithm families in the paper:
//
//   - CancelBarrier: the cancelable barrier of the shared-memory algorithm
//     (Section 3.1). Threads out of work wait at the barrier spinning on
//     shared flags; a thread releasing work cancels the barrier, waking
//     waiters to resume searching. All barrier state transitions go through
//     a lock, and waiters spin on remote flags — exactly the costs Section
//     3.3.1 identifies as the scalability problem.
//
//   - StreamBarrier: the streamlined detector of the distributed-memory
//     algorithm (Section 3.3.1). Threads enter only when a full probe cycle
//     shows every other thread out of work, so the barrier is almost always
//     entered exactly once. While waiting, a thread may leave to attempt a
//     steal (it must leave *before* the attempt, which preserves the
//     invariant that any thread holding work is outside the barrier) and
//     re-enters if the attempt fails. The last thread to enter launches a
//     tree-shaped termination announcement.
//
// The Dijkstra token-ring detector used by mpi-ws is message-driven and
// lives with the mpi-ws searcher in internal/core.
package term

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/pgas"
)

// CancelBarrier is the cancelable barrier. Semantics follow the UTS
// reference implementation: Enter returns true when all threads have
// arrived (global termination) and false when the barrier was canceled by
// a release of new work, in which case the caller resumes work discovery.
type CancelBarrier struct {
	dom *pgas.Domain
	lk  *pgas.Lock
	// count is mutated only under lk; it is atomic so the Waiting
	// diagnostic can read it without joining the lock protocol.
	count  atomic.Int32
	cancel atomic.Bool
	done   atomic.Bool
}

// NewCancelBarrier creates the barrier for all threads of dom. The barrier
// state has affinity to thread 0, so every other thread pays remote costs
// to use it — the behaviour the paper measures.
func NewCancelBarrier(dom *pgas.Domain) *CancelBarrier {
	return &CancelBarrier{dom: dom, lk: dom.NewLock(0)}
}

// Enter blocks the calling thread at the barrier. It returns true if the
// computation terminated (every thread arrived) and false if the barrier
// was canceled because work became available.
func (b *CancelBarrier) Enter(me int) bool {
	b.lk.Acquire(me)
	if int(b.count.Add(1)) == b.dom.Threads() {
		b.done.Store(true)
	}
	b.lk.Release(me)

	for !b.cancel.Load() && !b.done.Load() {
		// Waiters spin remotely on the termination/cancellation flags —
		// "an arbitrary number of remote operations" (Section 3.1).
		b.dom.ChargeRef(me, 0)
		runtime.Gosched()
	}

	b.lk.Acquire(me)
	done := b.done.Load()
	if !done {
		b.count.Add(-1)
		b.cancel.Store(false)
	}
	b.lk.Release(me)
	return done
}

// Cancel wakes barrier waiters because new work was released. It is called
// by a working thread after every release() — the remote operation whose
// cost Section 3.3.1 sets out to eliminate.
func (b *CancelBarrier) Cancel(me int) {
	b.lk.Acquire(me)
	if b.count.Load() > 0 && !b.done.Load() {
		b.cancel.Store(true)
	}
	b.lk.Release(me)
}

// Waiting reports the number of threads currently at the barrier
// (diagnostic; racy by nature).
func (b *CancelBarrier) Waiting() int {
	return int(b.count.Load())
}

// StreamBarrier is the streamlined termination detector. Protocol
// invariant: a thread enters only when it holds no work, and leaves before
// attempting any steal; therefore when the arrival count reaches the
// thread count, no work exists anywhere and the last arrival announces
// termination.
type StreamBarrier struct {
	dom       *pgas.Domain
	count     atomic.Int32
	announced atomic.Bool
}

// NewStreamBarrier creates the detector for all threads of dom.
func NewStreamBarrier(dom *pgas.Domain) *StreamBarrier {
	return &StreamBarrier{dom: dom}
}

// Enter registers the calling thread at the barrier. If it is the last to
// arrive it performs the termination announcement and Enter reports true;
// otherwise the caller should alternate Done checks with single-victim
// probes, per Section 3.3.1. Enter costs one remote reference (the barrier
// counter has affinity to thread 0).
func (b *StreamBarrier) Enter(me int) bool {
	b.dom.ChargeRef(me, 0)
	if int(b.count.Add(1)) == b.dom.Threads() {
		b.announce(me)
		return true
	}
	return false
}

// Leave withdraws the calling thread, which must do so before attempting
// an in-barrier steal. It reports false — leaving is impossible — if
// termination has already been announced, in which case the caller must
// not steal and should exit instead.
func (b *StreamBarrier) Leave(me int) bool {
	if b.announced.Load() {
		return false
	}
	b.dom.ChargeRef(me, 0)
	b.count.Add(-1)
	// A concurrent final arrival may have announced between the check and
	// the decrement; re-check so the caller never proceeds past a
	// termination announcement. (The decrement is harmless then: the run
	// is over and the counter is dead.)
	return !b.announced.Load()
}

// Done reports whether termination has been announced. Waiters poll this
// (a remote reference) between probes.
func (b *StreamBarrier) Done(me int) bool {
	b.dom.ChargeRef(me, 0)
	return b.announced.Load()
}

// AnnounceLevels returns the depth of the tree-shaped termination
// announcement for p participants: ceil(log2 p) levels of remote writes,
// zero for a single participant. It is the shared cost hook between this
// package's real barrier and the discrete-event simulator's virtual one,
// so both charge the announcer identically.
func AnnounceLevels(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}

// announce performs the tree-based termination announcement: the announcer
// pays ceil(log2 P) levels of remote writes rather than P−1 sequential
// ones. In a single address space one flag reaches everyone; the tree is
// reflected in the charged cost.
func (b *StreamBarrier) announce(me int) {
	p := b.dom.Threads()
	for i := 0; i < AnnounceLevels(p); i++ {
		b.dom.ChargeRef(me, (me+1)<<i%p)
	}
	b.announced.Store(true)
}

// Waiting reports the number of threads currently registered (diagnostic).
func (b *StreamBarrier) Waiting() int {
	return int(b.count.Load())
}
