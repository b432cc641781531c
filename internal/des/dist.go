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

// Remote operations of the distributed-memory protocol beyond the common
// ones (upc.go). Every cross-PE effect — probing a victim's work counter,
// claiming its request word, delivering a steal response, entering or
// leaving the termination barrier — goes through one of these, so the
// owner of the touched state applies it in global key order under every
// engine.
const (
	// opDistClaim claims dst's request word for thief a; returns 1 on
	// success, 0 if another thief holds it.
	opDistClaim = opUPCEnd + iota
	// opDistDeliver writes a steal response (the chunks, possibly none)
	// into thief dst's response slot.
	opDistDeliver
)

func (r *simDistRun) apply(dst int, op uint8, a, b int64, chunks []stack.Chunk) int64 {
	switch op {
	case opDistClaim:
		vs := r.pes[dst]
		if vs.request != -1 {
			return 0
		}
		vs.request = int(a)
		vs.p.Post(IntrSteal)
		vs.wakeForRequest(int(a))
		return 1
	case opDistDeliver:
		tp := r.pes[dst]
		tp.resp = chunks
		tp.respReady = true
		return 0
	}
	return r.upcRun.apply(dst, op, a, b, chunks)
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

func simDistMem(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, ps *policy.Set, wakes *Wakes, finish func(*Proc)) sampler {
	r := &simDistRun{upcRun: newUPCRun(cfg, cs, wakes)}
	if cfg.NodeSize >= 2 && cfg.Intra != nil {
		r.nodeSize = cfg.NodeSize
		r.intra = newCosts(cfg.Intra)
	}
	sim.SetRemote(r.apply)
	r.pes = make([]*simDistPE, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		pe := &simDistPE{upcPE: upcPE{simPE: newSimPE(sp, cfg, res, ps, i), u: &r.upcRun}, r: r, request: -1}
		r.pes[i], r.upc[i] = pe, &pe.upcPE
		if i == 0 {
			pe.Local.Push(uts.Root(sp))
		}
		m := &core.Machine{H: pe, PE: &pe.PE, Rng: pe.rng, Me: i, N: cfg.PEs,
			Stream: true, Hier: cfg.Algorithm == core.UPCDistMemHier, NodeSize: r.nodeSize}
		pe.spawn(sim, m.Run, finish)
	}
	return upcSampler(r.upc)
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
	cs := &pe.r.cs
	k := pe.Chunk(pe.r.cfg.Chunk)
	batch := pe.r.cfg.batch()
	pending := 0
	releasing := false
	drained := false
	done := false
	step := func() (time.Duration, uint8) {
		if releasing {
			releasing = false
			pe.pool.Put(pe.Release(k))
			pe.setAvail(pe.me, pe.pool.Len())
			pe.Released(pe.avail())
		}
		if drained {
			drained = false
			c, ok := pe.pool.TakeNewest()
			if !ok {
				done = true
				return 0, StepDone
			}
			pe.setAvail(pe.me, pe.pool.Len())
			pe.Reacquired(c)
		}
		for {
			if pe.Visit(1) == 0 {
				drained = true
				d := time.Duration(pending) * cs.nodeCost
				pending = 0
				pe.FlushNodes()
				return pe.charge(d), 0
			}
			pending++
			if pe.Local.Len() >= 2*k {
				releasing = true
				d := time.Duration(pending) * cs.nodeCost
				pending = 0
				return pe.charge(d), 0
			}
			if pending >= batch {
				d := time.Duration(pending) * cs.nodeCost
				pending = 0
				pe.FlushNodes()
				// The knob refresh sits at the batch boundary — a point with
				// no release pending, so the 2k threshold and the released
				// chunk never straddle a chunk-size change.
				pe.NoteCtl(pe.Now())
				k = pe.Chunk(pe.r.cfg.Chunk)
				return pe.charge(d), 0
			}
		}
	}
	for !done {
		if pe.Steps(step) {
			pe.Service()
		}
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
	d := 2 * pe.r.between(pe.me, thief).remoteRef // amount + address writes
	pe.T.AddState(pe.state, d)
	pe.p.RemoteSend(thief, d, opDistDeliver, 0, 0, chunks)
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

	d := r.between(pe.me, v).lockRTT // lock-protected request-word write
	pe.T.AddState(pe.state, d)
	if pe.p.RemoteCall(v, d, opDistClaim, int64(pe.me), 0) == 0 {
		return false
	}

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
