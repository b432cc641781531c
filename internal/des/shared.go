package des

import (
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stack"
	"repro/internal/uts"
)

// simSharedRun is the per-run shared state of the simulated shared-memory
// family. All fields are mutated only by the PE currently scheduled by the
// event loop, so no synchronization is needed. Beyond the probe and the
// barrier of upc.go a PE of this family touches another's state directly,
// under that PE's virtual lock: exactly one PE runs at any instant.
type simSharedRun struct {
	upcRun
	mode core.SharedVariant
	pes  []*simSharedPE

	// Cancelable barrier (Section 3.1).
	cbLock   Lock
	cbCount  int
	cbCancel bool
	cbDone   bool
}

// simSharedPE is one simulated PE of the shared-memory family, the
// machine's Host (core.Host) for it in virtual time. Under
// Relaxed no path takes a lock: releases and reacquires cost one local
// reference (the slot store / ledger CAS), steals cost two remote
// references (slot scan + claim handshake) with no lock round trip, the
// shared region is bounded at stack.RelaxedSlots chunks, and thieves do
// not refresh the victim's workAvail (it is owner-written in the real
// protocol, so probes can see stale positives that end in failed steals).
// The simulator serializes all accesses on virtual time, so duplicate
// takes never occur here: DES sweeps the protocol's cost shape, the
// real-core backend exercises its races.
type simSharedPE struct {
	upcPE
	r *simSharedRun

	lock Lock

	// The chunk a release or a reacquire holds across a quantum, and found,
	// whether the reacquire (or the cancelable barrier) found what it looked
	// for; the chunks a steal holds.
	chunk stack.Chunk
	found bool
	got   []stack.Chunk
}

// simShared sets up the PEs for upc-sharedmem / upc-term / upc-term-rapdif.
func simShared(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, mode core.SharedVariant, ps *policy.Set, wakes *Wakes, log *sourceLog, finish func(*Proc)) {
	r := &simSharedRun{upcRun: newUPCRun(cfg, cs, wakes, log), mode: mode}
	r.pes = make([]*simSharedPE, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		pe := &simSharedPE{upcPE: r.newPE(sp, res, ps, i), r: r}
		r.pes[i], r.upc[i] = pe, &pe.upcPE
		if i == 0 {
			pe.Local.Push(uts.Root(sp))
		}
		m := &core.Machine{H: pe, PE: &pe.PE, Rng: pe.rng, Me: i, N: cfg.PEs, Stream: mode.StreamTerm}
		pe.spawnStepped(sim, m.Start(), pe.read, finish)
	}
}

// Service has nothing to answer: thieves of this family take from the pool
// under the victim's lock rather than posting requests.
func (pe *simSharedPE) Service() {}

// Places of Work between its calls.
const (
	workBatch     = iota // a quantum of node work
	workEdge             // its end: release at Surplus, else reacquire
	workRelease          // the release: the own lock, then the in-lock update
	workReleased         // the chunk is in the shared region
	workPut              // ... and the lock let go
	workReacquire        // the reacquire: the own lock, then the in-lock update
	workTaken            // the newest chunk taken, or none
	workBack             // ... and the lock let go
	workCancel           // the cancelable barrier's reset: its lock, then the flag
	workCanceled         // ... and that lock let go
)

// Work explores nodes a batch a quantum, ending a batch at the 2k release
// threshold and when the local region drains; the lock-protected
// release/reacquire manipulations follow at the batch's end, at the same
// virtual instants as the original per-batch loop. Thieves of this family
// take from the pool under the victim's lock rather than posting requests,
// so no boundary needs a service point. Under streamlined termination the
// PE ends with its counter saying it is out of work.
func (pe *simSharedPE) Work() {
	r, cs := pe.r, &pe.r.cs
	if !pe.inWork {
		pe.inWork, pe.k, pe.pc = true, pe.Ctl.Chunk(r.cfg.Chunk), workBatch
	}
	for {
		switch pe.pc {
		case workBatch:
			// Under the relaxed mode the shared region is a bounded ring:
			// while it is full there is no release (back-pressure) and the
			// PE keeps exploring locally. No other PE runs inside a quantum,
			// so the ring's fill is fixed for all of it.
			kq := pe.k
			if r.mode.Relaxed && pe.pool.Len() >= stack.RelaxedSlots {
				kq = 0
			}
			d, e := pe.working(r.cfg.batch(), kq, cs.nodeCost)
			if pe.edge = e; e == core.Yielded {
				pe.NoteCtl(pe.Now())
				pe.k = pe.Ctl.Chunk(r.cfg.Chunk)
			} else {
				pe.pc = workEdge
			}
			pe.wait(d, StepNoPoll)
			return
		case workEdge:
			// k moves only across a Yielded edge (PE.NoteCtl): the release
			// gives the k that set its 2k threshold.
			if pe.edge == core.Surplus {
				pe.chunk = pe.Release(pe.k)
				pe.pc = workRelease
			} else {
				pe.pc = workReacquire
			}
		case workRelease, workReacquire:
			// The owner's own lock, where it can be delayed behind queued
			// remote thieves — the interference Section 3.3.3 eliminates —
			// then the in-lock pointer updates, local affinity. The relaxed
			// mode takes no lock: its publish is one local store into the
			// ring slot, its retract the ledger compare-and-swap on the
			// owner's own partition — the owner-path saving the variant
			// exists for.
			if !r.mode.Relaxed && pe.acquire(&pe.lock, cs.localRef) {
				return
			}
			pe.pc++ // workReleased, workTaken
			pe.then(cs.localRef)
			return
		case workReleased:
			pe.pool.Put(pe.chunk)
			pe.chunk = nil
			pe.setAvail(pe.me, pe.pool.Len())
			if r.mode.Relaxed {
				pe.Released(pe.avail())
				pe.pc = workBatch
				continue
			}
			pe.pc = workPut
			pe.release(&pe.lock, cs.localRef)
			return
		case workPut:
			pe.Released(pe.avail())
			pe.pc = workBatch
			if !r.mode.StreamTerm {
				pe.pc = workCancel
			}
		case workTaken:
			pe.chunk, pe.found = pe.pool.TakeNewest()
			if pe.found {
				pe.setAvail(pe.me, pe.pool.Len())
			}
			pe.pc = workBack
			if !r.mode.Relaxed {
				pe.release(&pe.lock, cs.localRef)
				return
			}
		case workBack:
			if !pe.found {
				if r.mode.StreamTerm {
					pe.setAvail(pe.me, -1)
				}
				pe.inWork, pe.pc = false, workBatch
				return
			}
			pe.Reacquired(pe.chunk)
			pe.chunk = nil
			pe.pc = workBatch
		case workCancel:
			// term.CancelBarrier.Cancel: a remote lock round trip on every
			// release, the dominant overhead of the shared-memory algorithm at
			// small chunk sizes (Section 4.2.1).
			if pe.acquire(&r.cbLock, pe.barrierLockCost()) {
				return
			}
			pe.pc = workCanceled
			pe.then(pe.barrierFlagCost())
			return
		case workCanceled:
			if r.cbCount > 0 && !r.cbDone {
				r.cbCancel = true
			}
			pe.pc = workBatch
			pe.release(&r.cbLock, pe.barrierLockCost())
			return
		}
	}
}

// Steal locks the victim's stack, reserves one chunk (or half the chunks
// under rapid diffusion), releases the lock, and transfers the reservation
// with a one-sided get. The first chunk lands on the thief's local stack;
// any further chunks go into the thief's own shared region, under its own
// lock (Section 3.3.2).
func (pe *simSharedPE) Steal(v int) bool {
	r := pe.r
	if r.mode.Relaxed {
		return pe.stealRelaxed(v)
	}
	cs := &r.cs
	vs := r.pes[v]
	switch pe.pc {
	case 0:
		if pe.acquire(&vs.lock, cs.lockRTT) {
			return false
		}
		// The reservation manipulates the victim's stack pointers remotely
		// while holding the lock — this is the hold period during which the
		// paper observes working threads being delayed by thieves.
		pe.pc = 1
		pe.then(2 * cs.remoteRef)
	case 1:
		if pe.Ctl.StealHalf(r.mode.StealHalf) {
			pe.got = vs.pool.TakeHalf()
		} else if c, ok := vs.pool.TakeOldest(); ok {
			pe.got = append(pe.got, c)
		}
		if len(pe.got) > 0 {
			vs.setAvail(pe.me, vs.pool.Len())
		}
		pe.pc = 2
		pe.release(&vs.lock, cs.lockRTT)
	case 2:
		if len(pe.got) == 0 {
			pe.pc = 0
			return false
		}
		pe.pc = 3
		pe.then(cs.bulk(stack.NodeCount(pe.got) * uts.NodeBytes))
	case 3:
		pe.got = pe.Landed(v, pe.got)
		if len(pe.got) == 0 {
			pe.got, pe.pc = nil, 0
			if r.mode.StreamTerm {
				pe.setAvail(pe.me, 0)
			}
			return true
		}
		pe.pc = 4
		fallthrough
	case 4:
		if pe.acquire(&pe.lock, cs.localRef) {
			return false
		}
		for _, c := range pe.got {
			pe.pool.Put(c)
		}
		pe.got = nil
		pe.setAvail(pe.me, pe.pool.Len())
		pe.pc = 5
		pe.release(&pe.lock, cs.localRef)
	default:
		pe.pc = 0
		return true
	}
	return false
}

// stealRelaxed models the fence-free claim: a one-sided scan of the
// victim's slot words plus the claim-marker store and ledger CAS — two
// remote references with no lock round trip. The thief does not refresh
// the victim's workAvail (owner-written in the real protocol), so stale
// positives persist until the victim's next own operation and show up
// here, as on real cores, as failed steals. Virtual-time serialization
// means the ledger CAS never loses: DES runs carry zero duplicate takes.
func (pe *simSharedPE) stealRelaxed(v int) bool {
	r := pe.r
	cs := &r.cs
	switch pe.pc {
	case 0:
		pe.pc = 1
		pe.then(2 * cs.remoteRef) // slot scan + claim handshake
	case 1:
		c, ok := r.pes[v].pool.TakeOldest()
		if !ok {
			pe.pc = 0
			return false
		}
		pe.chunk, pe.pc = c, 2
		pe.then(cs.bulk(len(c) * uts.NodeBytes))
	default:
		pe.Landed(v, []stack.Chunk{pe.chunk})
		pe.chunk, pe.pc = nil, 0
		if r.mode.StreamTerm {
			pe.setAvail(pe.me, 0)
		}
		return true
	}
	return false
}

// barrierLockCost is the cancelable barrier's lock cost: its state has
// affinity to PE 0.
func (pe *simSharedPE) barrierLockCost() time.Duration {
	if pe.me == 0 {
		return pe.r.cs.localRef
	}
	return pe.r.cs.lockRTT
}

// barrierFlagCost is the in-lock flag-manipulation cost of the cancelable
// barrier: local for PE 0, one remote reference otherwise.
func (pe *simSharedPE) barrierFlagCost() time.Duration {
	if pe.me == 0 {
		return pe.r.cs.localRef
	}
	return pe.r.cs.remoteRef
}

// Enter enters the family's barrier: the streamlined one, or the
// cancelable one, which waits inside.
func (pe *simSharedPE) Enter() bool {
	if !pe.r.mode.StreamTerm {
		return pe.cbEnter()
	}
	return pe.upcPE.Enter()
}

// cbEnter mirrors term.CancelBarrier.Enter under virtual time: count in
// under the barrier's lock, spin remotely on the cancellation/termination
// flags a remote reference a quantum, and count out again under the lock
// unless the barrier completed.
func (pe *simSharedPE) cbEnter() bool {
	r := pe.r
	switch pe.pc {
	case 0, 3:
		if pe.acquire(&r.cbLock, pe.barrierLockCost()) {
			return false
		}
		pe.pc++
		pe.then(pe.barrierFlagCost())
	case 1:
		if r.cbCount++; r.cbCount == len(r.pes) {
			r.cbDone = true
		}
		pe.pc = 2
		pe.release(&r.cbLock, pe.barrierLockCost())
	case 2:
		if !r.cbCancel && !r.cbDone {
			pe.then(r.cs.remoteRef)
			return false
		}
		pe.pc = 3
		return pe.cbEnter()
	case 4:
		if pe.found = r.cbDone; !pe.found {
			r.cbCount--
			r.cbCancel = false
		}
		pe.pc = 5
		pe.release(&r.cbLock, pe.barrierLockCost())
	default:
		pe.pc = 0
		return pe.found
	}
	return false
}
