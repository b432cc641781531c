package des

import (
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stack"
	"repro/internal/uts"
)

// simDistRun is the run state of the simulated distributed-memory
// algorithm (Section 3.3.3).
type simDistRun struct {
	upcRun
	pes []*simDistPE
}

// simDistPE is one simulated PE: owner-only stack and pool, a request
// word claimed by thieves, and an incoming response slot. It is the
// machine's Host (core.Host) for the distributed-memory protocol in
// virtual time.
type simDistPE struct {
	upcPE
	r *simDistRun

	resp      []stack.Chunk
	respReady bool

	// The chunks a Service under way grants, serving while it waits for its
	// writes.
	serving bool
	grant   []stack.Chunk
}

func simDistMem(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, ps *policy.Set, wakes *Wakes, log *sourceLog, finish func(*Proc)) {
	r := &simDistRun{upcRun: newUPCRun(cfg, cs, wakes, log)}
	// The victim tier: on a machine with nodes, a probe cycle tries same-node
	// victims first under upc-distmem-hier, or under adaptation where the
	// latency model says it pays — a same-node lock plus reference costing
	// at most half a remote one. Topology does not drift, so it is decided
	// once.
	tier := 1
	if cfg.NodeSize >= 2 && cfg.Intra != nil {
		r.nodeSize = cfg.NodeSize
		r.intra = newCosts(cfg.Intra)
		pays := 2*(cfg.Intra.LockRTT+cfg.Intra.RemoteRef) <= cfg.Model.LockRTT+cfg.Model.RemoteRef
		if cfg.Algorithm == core.UPCDistMemHier || cfg.Adapt != nil && pays {
			tier = r.nodeSize
		}
	}
	r.pes = make([]*simDistPE, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		pe := &simDistPE{upcPE: r.newPE(sp, res, ps, i), r: r}
		r.pes[i], r.upc[i] = pe, &pe.upcPE
		if i == 0 {
			pe.Local.Push(uts.Root(sp))
		}
		m := &core.Machine{H: pe, PE: &pe.PE, Rng: pe.rng, Me: i, N: cfg.PEs, Stream: true, Tier: tier}
		pe.spawnStepped(sim, m.Start(), pe.read, finish)
	}
}

// Work explores nodes a batch a quantum: each quantum is a batch of node
// work, ending early at a release threshold or stack drain, and the
// boundary between quanta is the service point where the machine looks at
// the request word — the same virtual instant the original per-batch
// service() call would have seen it, but with zero events while no thief is
// knocking. Release and reacquire are executed at the boundary instant,
// after any pending request has been serviced, which reproduces the
// original flush-then-manipulate order exactly. The PE ends out of work,
// its counter saying so.
func (pe *simDistPE) Work() {
	if !pe.inWork {
		pe.inWork, pe.k, pe.edge = true, pe.Ctl.Chunk(pe.r.cfg.Chunk), core.Yielded
	}
	switch pe.edge {
	case core.Surplus:
		pe.pool.Put(pe.Release(pe.k))
		pe.setAvail(pe.me, pe.pool.Len())
		pe.Released(pe.avail())
	case core.Drained:
		c, ok := pe.pool.TakeNewest()
		if !ok {
			pe.inWork = false
			pe.setAvail(pe.me, -1)
			return
		}
		pe.setAvail(pe.me, pe.pool.Len())
		pe.Reacquired(c)
	}
	d, e := pe.working(pe.r.cfg.batch(), pe.k, pe.r.cs.nodeCost)
	if pe.edge = e; e == core.Yielded {
		// The knob refresh sits at the batch boundary — a point with no
		// release pending, so the 2k threshold and the released chunk never
		// straddle a chunk-size change.
		pe.NoteCtl(pe.Now())
		pe.k = pe.Ctl.Chunk(pe.r.cfg.Chunk)
	}
	pe.wait(d, 0) // a service point
}

// Service answers a pending request: half the pool (rapid diffusion) or a
// denial, for the cost of two remote writes.
func (pe *simDistPE) Service() {
	thief := pe.request
	if thief < 0 {
		return
	}
	if !pe.serving {
		pe.serving = true
		if pe.pool.Len() > 0 {
			pe.grant = pe.pool.TakeHalf()
			pe.setAvail(pe.me, pe.pool.Len())
		}
		pe.then(2 * pe.r.between(pe.me, thief).remoteRef) // amount + address writes
		return
	}
	pe.serving = false
	chunks := pe.grant
	pe.grant = nil
	tp := pe.r.pes[thief]
	tp.resp, tp.respReady = chunks, true
	pe.request = -1
	if len(chunks) > 0 {
		pe.Granted(thief, len(chunks))
	} else {
		pe.Denied(thief)
	}
}

// Steal claims the victim's request word — the claim is what the victim's
// machine sees at its next service point (Interrupted), and a dozing victim
// is woken for it — and polls its own response slot until the owner
// answers. The wait is a poll loop rather than a blocking sleep because the
// waiting thief must keep servicing its own request word (two thieves can
// be each other's victims): each quantum is one respPoll, and at its end the
// slot is looked at first and a request of its own answered second, so a
// response that arrives at that same boundary leaves the request for the
// next service point. After a service the next poll is charged before the
// slot is looked at again.
func (pe *simDistPE) Steal(v int) bool {
	r := pe.r
	switch pe.pc {
	case 0:
		pe.pc = 1
		pe.then(r.between(pe.me, v).lockRTT) // lock-protected request-word write
		return false
	case 1: // the write's end: the claim
		vs := r.pes[v]
		if vs.request != -1 {
			pe.pc = 0
			return false
		}
		vs.request = pe.me
		vs.wakeForRequest(pe.me)
		pe.pc = 2 // a service before the first poll
	case 3: // a poll's end
		if pe.respReady {
			return pe.landing(v)
		}
		if pe.request >= 0 {
			pe.pc = 2
		}
	case 4: // the get's end
		return pe.landed(v)
	}
	if pe.pc == 2 {
		if pe.Service(); pe.serving {
			return false
		}
	}
	pe.pc = 3
	pe.then(r.cs.respPoll)
	return false
}

// landing takes the owner's answer out of the response slot: a denial ends
// the steal, a grant waits for its one-sided get.
func (pe *simDistPE) landing(v int) bool {
	pe.respReady = false
	if len(pe.resp) == 0 {
		pe.resp, pe.pc = nil, 0
		return false
	}
	pe.pc = 4
	pe.then(pe.r.between(pe.me, v).bulk(stack.NodeCount(pe.resp) * uts.NodeBytes)) // one-sided get
	return false
}

// landed books the chunks the get brought, the first onto the local stack
// and the rest into the pool.
func (pe *simDistPE) landed(v int) bool {
	chunks := pe.resp
	pe.resp, pe.pc = nil, 0
	for _, c := range pe.Landed(v, chunks) {
		pe.pool.Put(c)
	}
	pe.setAvail(pe.me, pe.pool.Len())
	return true
}
