package des

import (
	"time"

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

	request int // thief ID or -1

	resp      []stack.Chunk
	respReady bool
}

func simDistMem(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, ps *policy.Set, wakes *Wakes, log *sourceLog, finish func(*Proc)) {
	r := &simDistRun{upcRun: newUPCRun(cfg, cs, wakes, log)}
	if cfg.NodeSize >= 2 && cfg.Intra != nil {
		r.nodeSize = cfg.NodeSize
		r.intra = newCosts(cfg.Intra)
	}
	r.pes = make([]*simDistPE, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		pe := &simDistPE{upcPE: upcPE{simPE: newSimPE(sp, cfg, res, ps, i), u: &r.upcRun}, r: r, request: -1}
		r.pes[i], r.upc[i] = pe, &pe.upcPE
		if i == 0 {
			pe.Local.Push(uts.Root(sp))
		}
		m := &core.Machine{H: pe, PE: &pe.PE, Rng: pe.rng, Me: i, N: cfg.PEs,
			Stream: true, Hier: cfg.Algorithm == core.UPCDistMemHier, NodeSize: r.nodeSize}
		pe.spawn(sim, m.Run, pe.read, finish)
	}
}

// Work explores nodes batch-wise as one stepped advance: each quantum is a
// batch of node work (ending early at a release threshold or stack drain),
// and the boundary between quanta is the polling point where a thief's
// posted interrupt is observed — the same virtual instant the original
// per-batch service() call would have seen the request word, but with zero
// events while no thief is knocking. Release and reacquire are executed at
// the boundary instant, after any pending request has been serviced, which
// reproduces the original flush-then-manipulate order exactly. The PE
// returns out of work, its counter saying so.
func (pe *simDistPE) Work() {
	k := pe.Ctl.Chunk(pe.r.cfg.Chunk)
	batch := pe.r.cfg.batch()
	edge := core.Yielded
	step := func() (time.Duration, uint8) {
		switch edge {
		case core.Surplus:
			pe.pool.Put(pe.Release(k))
			pe.setAvail(pe.me, pe.pool.Len())
			pe.Released(pe.avail())
		case core.Drained:
			c, ok := pe.pool.TakeNewest()
			if !ok {
				return 0, StepDone
			}
			pe.setAvail(pe.me, pe.pool.Len())
			pe.Reacquired(c)
		}
		d, e := pe.working(batch, k, pe.r.cs.nodeCost)
		if edge = e; e == core.Yielded {
			// The knob refresh sits at the batch boundary — a point with
			// no release pending, so the 2k threshold and the released
			// chunk never straddle a chunk-size change.
			pe.NoteCtl(pe.Now())
			k = pe.Ctl.Chunk(pe.r.cfg.Chunk)
		}
		return d, 0
	}
	for pe.Steps(step) {
		pe.Service()
	}
	pe.setAvail(pe.me, -1)
}

// Service answers a pending request: half the pool (rapid diffusion) or a
// denial, for the cost of two remote writes. It also clears the steal
// interrupt, so a request consumed through a direct check cannot trigger a
// stale second wakeup at the next polling boundary.
func (pe *simDistPE) Service() {
	pe.p.ClearIntr(IntrSteal)
	if pe.request < 0 {
		return
	}
	thief := pe.request
	var chunks []stack.Chunk
	if pe.pool.Len() > 0 {
		chunks = pe.pool.TakeHalf()
		pe.setAvail(pe.me, pe.pool.Len())
	}
	pe.advance(2 * pe.r.between(pe.me, thief).remoteRef) // amount + address writes
	tp := pe.r.pes[thief]
	tp.resp, tp.respReady = chunks, true
	pe.request = -1
	if len(chunks) > 0 {
		pe.Granted(thief, len(chunks))
	} else {
		pe.Denied(thief)
	}
}

// Steal claims the victim's request word, posts the steal interrupt that
// makes the victim's engine observe the request at its next quantized
// polling boundary, and polls its own response slot until the owner
// answers. The wait is a poll loop rather than a blocking sleep because
// the waiting thief must keep servicing its own request word (two thieves
// can be each other's victims).
func (pe *simDistPE) Steal(v int) bool {
	r := pe.r
	cs := &r.cs

	pe.advance(r.between(pe.me, v).lockRTT) // lock-protected request-word write
	vs := r.pes[v]
	if vs.request != -1 {
		return false
	}
	vs.request = pe.me
	vs.p.Post(IntrSteal)
	vs.wakeForRequest(pe.me)

	// The response wait is a stepped advance: each quantum is one respPoll,
	// each boundary is the original loop-top respReady check, and a steal
	// request landing mid-wait surfaces as an interrupt at the boundary —
	// the same virtual instant the original loop's service() call saw the
	// request word. `polled` enforces the original's service-then-poll-
	// then-check order: after any service point the next quantum charges
	// before respReady is consulted again.
	pe.Service() // the original serviced once before the first poll
	polled := false
	step := func() (time.Duration, uint8) {
		if polled && pe.respReady {
			return 0, StepDone
		}
		polled = true
		return pe.charge(cs.respPoll), 0
	}
	for {
		m := pe.p.AdvanceStepped(step)
		if m == 0 {
			break // respReady observed at a poll boundary
		}
		// The original checks respReady before servicing: when the
		// response arrived at this same boundary, exit and leave the
		// request — interrupt re-posted — for the next service point.
		if pe.respReady {
			pe.p.Post(m)
			break
		}
		pe.Service()
		polled = false
	}
	chunks := pe.resp
	pe.resp = nil
	pe.respReady = false

	if len(chunks) == 0 {
		return false
	}
	pe.advance(r.between(pe.me, v).bulk(stack.NodeCount(chunks) * uts.NodeBytes)) // one-sided get
	for _, c := range pe.Landed(v, chunks) {
		pe.pool.Put(c)
	}
	pe.setAvail(pe.me, pe.pool.Len())
	return true
}
