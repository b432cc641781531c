package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/stack"
	"repro/internal/term"
	"repro/internal/uts"
)

// cacheLine is the coherence granule the per-thread shared structs are
// padded to, so the words two threads' structs expose to remote probes
// never share a line whatever the heap alignment.
const cacheLine = 64

// sharedStack is one thread's stack in the shared-memory algorithm
// (Section 3.1, Figure 2): a local region the owner manipulates without
// synchronization (the worker's PE.Local) and a lock-guarded shared region
// holding whole chunks.
type sharedStack struct {
	lk   *pgas.Lock
	pool stack.Pool // guarded by lk

	// ring replaces lk/pool under the relaxed variant (upc-term-relaxed):
	// a fence-free versioned-slot ring with a multiplicity ledger, owner
	// publish/retract without lock round trips (DESIGN.md §14). nil for
	// the lock-based variants.
	ring *stack.Relaxed

	// workAvail is probed remotely without locking. For the streamlined-
	// termination variants it is a tri-state (Section 3.3.1): −1 when the
	// thread is entirely out of work, otherwise the number of stealable
	// chunks (0 = working but no surplus). The plain shared-memory
	// algorithm uses only the chunk count.
	workAvail atomic.Int32

	_ [cacheLine - 56]byte // pad to a cache-line multiple (TestStackStructsPadded)
}

// sharedRun bundles the state shared by all threads of one run.
type sharedRun struct {
	opt     Options
	variant SharedVariant
	dom     *pgas.Domain
	stacks  []*sharedStack
	cb      *term.CancelBarrier // sharedmem termination
	sb      *term.StreamBarrier // streamlined termination
}

// runShared executes upc-sharedmem / upc-term / upc-term-rapdif.
func runShared(sp *uts.Spec, opt Options, res *Result, v SharedVariant) error {
	dom, err := pgas.NewDomain(opt.Threads, opt.Model)
	if err != nil {
		return err
	}
	r := &sharedRun{opt: opt, variant: v, dom: dom}
	r.stacks = make([]*sharedStack, opt.Threads)
	for i := range r.stacks {
		r.stacks[i] = &sharedStack{lk: dom.NewLock(i)}
		if v.Relaxed {
			r.stacks[i].ring = stack.NewRelaxed(i)
		}
	}
	if v.StreamTerm {
		r.sb = term.NewStreamBarrier(dom)
	} else {
		r.cb = term.NewCancelBarrier(dom)
	}

	eachThread(sp, opt, res, func(me int, pe WallPE) {
		w := &sharedWorker{WallPE: pe, run: r, me: me}
		if me == 0 {
			w.Local.Push(uts.Root(sp))
		}
		w.Start()
		defer w.Stop()
		m := Machine{H: w, PE: &w.PE, Rng: NewProbeOrder(opt.Seed, me), Me: me, N: opt.Threads, Stream: v.StreamTerm}
		w.Steps(m.Start())
	})
	if v.Relaxed {
		// Accounting check: termination required every ring to drain, so
		// every chunk ever published must have exactly one ledger
		// consumer. A leftover unconsumed entry would mean lost work.
		for i, s := range r.stacks {
			if n := s.ring.Unconsumed(); n != 0 {
				return fmt.Errorf("relaxed ring %d: %d published chunks never consumed", i, n)
			}
		}
	}
	return nil
}

// sharedWorker is one thread's execution state: the machine's Host for the
// shared-memory family on the wall clock.
type sharedWorker struct {
	WallPE
	run *sharedRun
	me  int
}

func (w *sharedWorker) stack() *sharedStack { return w.run.stacks[w.me] }

// Service has nothing to answer: thieves of this family help themselves
// under the victim's lock.
func (w *sharedWorker) Service() {}

// Work explores nodes until both the local region and the thread's own
// shared region are empty ("Working" in Figure 1), then — under
// streamlined termination — tells probing threads so.
func (w *sharedWorker) Work() {
	for {
		switch w.Working(w.run.opt.Chunk, nil) {
		case Surplus:
			w.release(w.K())
		case Drained:
			if !w.reacquire() {
				w.FlushNodes()
				if w.run.variant.StreamTerm {
					w.stack().workAvail.Store(-1)
				}
				return
			}
		}
	}
}

// release moves the k oldest local nodes into the shared region, making
// them stealable, and — under the shared-memory algorithm — resets the
// cancelable barrier, a remote lock operation charged to this thread.
func (w *sharedWorker) release(k int) {
	if w.run.variant.Relaxed {
		w.releaseRelaxed(k)
		return
	}
	s := w.stack()
	chunk := w.Release(k)
	s.lk.Acquire(w.me)
	s.pool.Put(chunk)
	avail := int32(s.pool.Len())
	s.workAvail.Store(avail)
	s.lk.Release(w.me)
	w.Released(int(avail))
	if !w.run.variant.StreamTerm {
		w.run.cb.Cancel(w.me)
	}
}

// releaseRelaxed publishes the k oldest local nodes through the relaxed
// ring: no lock, a single atomic slot store. When the ring is full the
// release is skipped — bounded-buffer back-pressure; the owner keeps the
// nodes local and will try again after further expansion. workAvail is
// owner-written only under this variant and stored only on the
// empty→nonempty transition, so the owner's steady-state release path
// performs exactly one synchronizing store.
func (w *sharedWorker) releaseRelaxed(k int) {
	s := w.stack()
	if s.ring.Full() {
		return
	}
	chunk := w.Release(k)
	rec, ok := s.ring.Publish(chunk)
	if rec != nil {
		// Publish resolved a clobbered, never-consumed slot: the chunk
		// comes back to the owner and goes straight back to work.
		w.Local.PushAll(rec)
	}
	if !ok {
		// Unreachable after the Full() check (single owner), but keep the
		// nodes rather than lose them if the protocol ever changes.
		w.Local.PushAll(chunk)
		return
	}
	if s.ring.Live() == 1 {
		s.workAvail.Store(1)
	}
	w.Released(s.ring.Live())
}

// reacquire moves the newest chunk of the thread's own shared region back
// onto the local stack. It reports false if no chunk was available.
func (w *sharedWorker) reacquire() bool {
	if w.run.variant.Relaxed {
		return w.reacquireRelaxed()
	}
	s := w.stack()
	s.lk.Acquire(w.me)
	c, ok := s.pool.TakeNewest()
	if ok {
		s.workAvail.Store(int32(s.pool.Len()))
	}
	s.lk.Release(w.me)
	if !ok {
		return false
	}
	w.Reacquired(c)
	return true
}

// reacquireRelaxed takes the newest chunk the owner still owns back from
// the relaxed ring: no lock, one ledger compare-and-swap. A false return
// is the owner's proof that every chunk it ever published has been
// consumed (by itself or by thieves), which makes the subsequent
// workAvail=−1 store in Work safe for streamlined termination.
func (w *sharedWorker) reacquireRelaxed() bool {
	s := w.stack()
	c, ok := s.ring.Retract()
	if !ok {
		return false
	}
	if s.ring.Live() == 0 {
		s.workAvail.Store(0)
	}
	w.Reacquired(c)
	return true
}

// StageAvail reads a victim's work-available count without locking.
func (w *sharedWorker) StageAvail(v int) time.Duration {
	w.run.dom.ChargeRef(w.me, v)
	return w.Stage(int64(w.run.stacks[v].workAvail.Load()))
}

// StageAnnounced polls the streamlined barrier's announcement flag.
func (w *sharedWorker) StageAnnounced(time.Duration) time.Duration {
	return w.StageFlag(w.run.sb.Done(w.me))
}

// steal locks the victim's stack, reserves one chunk (or half the chunks
// under rapid diffusion), releases the lock, and transfers the reservation
// with a one-sided get. The first chunk lands on the thief's local stack;
// any further chunks go straight into the thief's own shared region, making
// the thief a work source for others (Section 3.3.2).
func (w *sharedWorker) Steal(v int) bool {
	if w.run.variant.Relaxed {
		return w.stealRelaxed(v)
	}
	r := w.run
	vs := r.stacks[v]
	half := w.Ctl.StealHalf(r.variant.StealHalf)
	vs.lk.Acquire(w.me)
	var chunks []stack.Chunk
	if half {
		chunks = vs.pool.TakeHalf()
	} else if c, ok := vs.pool.TakeOldest(); ok {
		chunks = append(chunks, c)
	}
	if len(chunks) > 0 {
		vs.workAvail.Store(int32(vs.pool.Len()))
	}
	vs.lk.Release(w.me)
	if len(chunks) == 0 {
		return false
	}

	// Transfer outside the critical region: the victim keeps working
	// while the one-sided get completes.
	r.dom.ChargeBulk(w.me, v, stack.NodeCount(chunks)*uts.NodeBytes)
	if rest := w.Landed(v, chunks); len(rest) > 0 {
		ms := w.stack()
		ms.lk.Acquire(w.me)
		for _, c := range rest {
			ms.pool.Put(c)
		}
		ms.workAvail.Store(int32(ms.pool.Len()))
		ms.lk.Release(w.me)
	} else if r.variant.StreamTerm {
		// Back to "working, no surplus".
		w.stack().workAvail.Store(0)
	}
	return true
}

// stealRelaxed claims the victim's oldest published chunk through the
// fence-free handshake: a one-sided scan of the slot words, then a
// claim-marker store plus ledger CAS. No victim lock is ever taken. The
// two remote rounds are charged as plain remote references — the protocol
// replaces the lock-based path's lock round trip (~10x a cached remote
// reference in the paper's cost model). A duplicate take (the chunk was
// read but the ledger CAS lost to a concurrent claimer) is counted and
// surfaced, and the duplicated subtree is discarded before exploration —
// this is the multiplicity ledger doing the dedup that keeps final counts
// exact.
func (w *sharedWorker) stealRelaxed(v int) bool {
	r := w.run
	vs := r.stacks[v]
	r.dom.ChargeRef(w.me, v) // slot-word scan (one-sided reads)
	r.dom.ChargeRef(w.me, v) // claim store + ledger CAS round
	c, dups, ok := vs.ring.Claim(w.me)
	if dups > 0 {
		w.T.DuplicateTakes += int64(dups)
		w.Lane.Rec(obs.KindDuplicateTake, int32(v), int64(dups))
	}
	if !ok {
		return false
	}
	r.dom.ChargeBulk(w.me, v, len(c)*uts.NodeBytes)
	w.Landed(v, []stack.Chunk{c})
	if r.variant.StreamTerm {
		// Back to "working, no surplus" (own stack: still single-writer).
		w.stack().workAvail.Store(0)
	}
	return true
}

// Enter enters the family's barrier: the streamlined one, or the
// cancelable barrier of Section 3.1, which waits inside until it
// completes or a release cancels it.
func (w *sharedWorker) Enter() bool {
	if !w.run.variant.StreamTerm {
		return w.run.cb.Enter(w.me)
	}
	return w.run.sb.Enter(w.me)
}

// Leave takes the thread out of the streamlined barrier.
func (w *sharedWorker) Leave() bool { return w.run.sb.Leave(w.me) }
