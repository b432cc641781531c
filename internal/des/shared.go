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
// event loop, so no synchronization is needed. Beyond the common remote
// operations (upc.go) a PE of this family touches another's state
// directly, under that PE's virtual lock: exactly one PE runs at any
// instant.
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
}

// simShared sets up the PEs for upc-sharedmem / upc-term / upc-term-rapdif.
func simShared(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, mode core.SharedVariant, ps *policy.Set, wakes *Wakes, finish func(*Proc)) sampler {
	r := &simSharedRun{upcRun: newUPCRun(cfg, cs, wakes), mode: mode}
	r.freeAnnounce = true
	sim.SetRemote(r.apply)
	r.pes = make([]*simSharedPE, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		pe := &simSharedPE{upcPE: upcPE{simPE: newSimPE(sp, cfg, res, ps, i), u: &r.upcRun}, r: r}
		r.pes[i], r.upc[i] = pe, &pe.upcPE
		if i == 0 {
			pe.Local.Push(uts.Root(sp))
		}
		m := &core.Machine{H: pe, PE: &pe.PE, Rng: pe.rng, Me: i, N: cfg.PEs, Stream: mode.StreamTerm}
		pe.spawn(sim, m.Run, finish)
	}
	return upcSampler(r.upc)
}

// acquire/release wrap the virtual lock with affinity-dependent costs and
// charge the queueing wait to the current state.
func (pe *simSharedPE) acquire(l *Lock, cost time.Duration) {
	before := pe.p.Now()
	pe.p.Acquire(l, cost)
	pe.T.AddState(pe.state, pe.p.Now()-before)
}

func (pe *simSharedPE) release(l *Lock, cost time.Duration) {
	before := pe.p.Now()
	pe.p.Release(l, cost)
	pe.T.AddState(pe.state, pe.p.Now()-before)
}

// Service has nothing to answer: thieves of this family take from the pool
// under the victim's lock rather than posting requests.
func (pe *simSharedPE) Service() {}

// Work explores nodes as one stepped advance: each quantum is a batch of
// node work, ending the advance at the 2k release threshold and when the
// local region drains — the lock-protected release/reacquire manipulations
// run in the PE's own coroutine between advances, at the same virtual
// instants as the original per-batch loop. Thieves of this family take
// from the pool under the victim's lock rather than posting requests, so
// no boundary ever needs an interrupt check. Under streamlined termination
// the PE returns with its counter saying it is out of work.
func (pe *simSharedPE) Work() {
	cs := &pe.r.cs
	k := pe.Chunk(pe.r.cfg.Chunk)
	batch := pe.r.cfg.batch()
	pending := 0
	thresholdHit := false
	step := func() (time.Duration, uint8) {
		for {
			if pe.Visit(1) == 0 {
				d := time.Duration(pending) * cs.nodeCost
				pending = 0
				pe.FlushNodes()
				return pe.charge(d), StepDone
			}
			pending++
			// Under the relaxed mode the shared region is a bounded ring:
			// when it is full the release is skipped (back-pressure) and
			// the PE keeps exploring locally instead of ending the batch.
			if pe.Local.Len() >= 2*k && !(pe.r.mode.Relaxed && pe.pool.Len() >= stack.RelaxedSlots) {
				thresholdHit = true
				d := time.Duration(pending) * cs.nodeCost
				pending = 0
				return pe.charge(d), StepDone
			}
			if pending >= batch {
				d := time.Duration(pending) * cs.nodeCost
				pending = 0
				pe.FlushNodes()
				pe.NoteCtl(pe.Now())
				k = pe.Chunk(pe.r.cfg.Chunk)
				return pe.charge(d), 0
			}
		}
	}
	for {
		pe.p.AdvanceStepped(step)
		pe.NoteCtl(pe.Now())
		k = pe.Chunk(pe.r.cfg.Chunk)
		if thresholdHit {
			thresholdHit = false
			pe.releaseChunk(k)
			continue
		}
		if !pe.reacquire() {
			if pe.r.mode.StreamTerm {
				pe.setAvail(pe.me, -1)
			}
			return
		}
	}
}

// releaseChunk moves k nodes into the PE's shared region under its own
// lock — where the owner can be delayed behind queued remote thieves, the
// interference Section 3.3.3 eliminates — and, under the shared-memory
// algorithm, resets the cancelable barrier.
func (pe *simSharedPE) releaseChunk(k int) {
	cs := &pe.r.cs
	chunk := pe.Release(k)
	if pe.r.mode.Relaxed {
		// Fence-free publish: one local store into the ring slot, no lock
		// round trip at all — the owner-path saving the variant exists for.
		pe.advance(cs.localRef)
		pe.pool.Put(chunk)
		pe.setAvail(pe.me, pe.pool.Len())
		pe.Released(pe.avail())
		return
	}
	pe.acquire(&pe.lock, cs.localRef)
	pe.advance(cs.localRef) // in-lock pointer updates, local affinity
	pe.pool.Put(chunk)
	pe.setAvail(pe.me, pe.pool.Len())
	pe.release(&pe.lock, cs.localRef)
	pe.Released(pe.avail())
	if !pe.r.mode.StreamTerm {
		pe.cbCancelOp()
	}
}

func (pe *simSharedPE) reacquire() bool {
	cs := &pe.r.cs
	if pe.r.mode.Relaxed {
		// Fence-free retract: the ledger compare-and-swap on the owner's
		// own partition, no lock.
		pe.advance(cs.localRef)
		c, ok := pe.pool.TakeNewest()
		if !ok {
			return false
		}
		pe.setAvail(pe.me, pe.pool.Len())
		pe.Reacquired(c)
		return true
	}
	pe.acquire(&pe.lock, cs.localRef)
	pe.advance(cs.localRef) // in-lock pointer updates, local affinity
	c, ok := pe.pool.TakeNewest()
	if ok {
		pe.setAvail(pe.me, pe.pool.Len())
	}
	pe.release(&pe.lock, cs.localRef)
	if !ok {
		return false
	}
	pe.Reacquired(c)
	return true
}

func (pe *simSharedPE) Steal(v int) bool {
	r := pe.r
	cs := &r.cs
	vs := r.pes[v]
	if r.mode.Relaxed {
		return pe.stealRelaxed(v)
	}
	pe.acquire(&vs.lock, cs.lockRTT)
	// The reservation manipulates the victim's stack pointers remotely
	// while holding the lock — this is the hold period during which the
	// paper observes working threads being delayed by thieves.
	pe.advance(2 * cs.remoteRef)
	half := r.mode.StealHalf
	if pe.Ctl != nil {
		half = pe.Ctl.StealHalf()
	}
	var chunks []stack.Chunk
	if half {
		chunks = vs.pool.TakeHalf()
	} else if c, ok := vs.pool.TakeOldest(); ok {
		chunks = append(chunks, c)
	}
	if len(chunks) > 0 {
		vs.setAvail(pe.me, vs.pool.Len())
	}
	pe.release(&vs.lock, cs.lockRTT)
	if len(chunks) == 0 {
		return false
	}

	pe.advance(cs.bulk(stack.NodeCount(chunks) * uts.NodeBytes))
	if rest := pe.Landed(v, chunks); len(rest) > 0 {
		pe.acquire(&pe.lock, cs.localRef)
		for _, c := range rest {
			pe.pool.Put(c)
		}
		pe.setAvail(pe.me, pe.pool.Len())
		pe.release(&pe.lock, cs.localRef)
	} else if r.mode.StreamTerm {
		pe.setAvail(pe.me, 0)
	}
	return true
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
	vs := r.pes[v]
	pe.advance(2 * cs.remoteRef) // slot scan + claim handshake
	c, ok := vs.pool.TakeOldest()
	if !ok {
		return false
	}
	pe.advance(cs.bulk(len(c) * uts.NodeBytes))
	pe.Landed(v, []stack.Chunk{c})
	if r.mode.StreamTerm {
		pe.setAvail(pe.me, 0)
	}
	return true
}

// lockCost is the cancelable barrier's lock cost: its state has affinity
// to PE 0.
func (pe *simSharedPE) barrierLockCost() time.Duration {
	if pe.me == 0 {
		return pe.r.cs.localRef
	}
	return pe.r.cs.lockRTT
}

// cbEnter mirrors term.CancelBarrier.Enter under virtual time, including
// the remote spinning on the cancellation/termination flags.
// barrierFlagCost is the in-lock flag-manipulation cost of the cancelable
// barrier: local for PE 0, one remote reference otherwise.
func (pe *simSharedPE) barrierFlagCost() time.Duration {
	if pe.me == 0 {
		return pe.r.cs.localRef
	}
	return pe.r.cs.remoteRef
}

func (pe *simSharedPE) cbEnter() bool {
	r := pe.r
	pe.acquire(&r.cbLock, pe.barrierLockCost())
	pe.advance(pe.barrierFlagCost())
	r.cbCount++
	if r.cbCount == len(r.pes) {
		r.cbDone = true
	}
	pe.release(&r.cbLock, pe.barrierLockCost())

	// Remote flag spin, batched: one quantum per check interval, executed
	// inline by the engine while no earlier event intervenes.
	pe.p.AdvanceStepped(func() (time.Duration, uint8) {
		if r.cbCancel || r.cbDone {
			return 0, StepDone
		}
		return pe.charge(pe.r.cs.remoteRef), 0
	})

	pe.acquire(&r.cbLock, pe.barrierLockCost())
	pe.advance(pe.barrierFlagCost())
	if r.cbDone {
		pe.release(&r.cbLock, pe.barrierLockCost())
		return true
	}
	r.cbCount--
	r.cbCancel = false
	pe.release(&r.cbLock, pe.barrierLockCost())
	return false
}

// cbCancelOp mirrors term.CancelBarrier.Cancel: a remote lock round trip
// on every release, the dominant overhead of the shared-memory algorithm
// at small chunk sizes (Section 4.2.1).
func (pe *simSharedPE) cbCancelOp() {
	r := pe.r
	pe.acquire(&r.cbLock, pe.barrierLockCost())
	pe.advance(pe.barrierFlagCost())
	if r.cbCount > 0 && !r.cbDone {
		r.cbCancel = true
	}
	pe.release(&r.cbLock, pe.barrierLockCost())
}

// Enter enters the family's barrier: the streamlined one, or the
// cancelable one, which waits inside.
func (pe *simSharedPE) Enter() bool {
	if !pe.r.mode.StreamTerm {
		return pe.cbEnter()
	}
	return pe.upcPE.Enter()
}
