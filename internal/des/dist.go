package des

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/term"
	"repro/internal/uts"
)

// simDistRun is the run state of the simulated distributed-memory
// algorithm (Section 3.3.3).
type simDistRun struct {
	cfg Config
	cs  costs
	pes []*simDistPE

	// Two-level topology (Section 6.2 future work): PEs in nodes of
	// nodeSize consecutive IDs, same-node references charged to intra.
	nodeSize int
	intra    costs
	hier     bool // locality-aware probe order (upc-distmem-hier)

	sbCount     int
	sbAnnounced bool
}

// Remote operations of the distributed-memory protocol (see remote.go).
// Every cross-PE effect — probing a victim's work counter, claiming its
// request word, delivering a steal response, entering or leaving the
// termination barrier — goes through one of these, so the owner of the
// touched state applies it in global key order under every engine.
const (
	// opDistReadAvail reads dst's stealable-work counter (a probe).
	opDistReadAvail uint8 = iota
	// opDistClaim claims dst's request word for thief a; returns 1 on
	// success, 0 if another thief holds it.
	opDistClaim
	// opDistReadAnnounced reads the termination-announcement flag (dst 0:
	// the barrier state has PE 0 affinity).
	opDistReadAnnounced
	// opDistDeliver writes a steal response (the chunks, possibly none)
	// into thief dst's response slot.
	opDistDeliver
	// opDistSbEnter increments the barrier count at PE 0; returns 1 when
	// this arrival completed the barrier.
	opDistSbEnter
	// opDistSbLeave decrements the barrier count at PE 0.
	opDistSbLeave
	// opDistSbAnnounce sets the termination-announcement flag at PE 0.
	opDistSbAnnounce
)

// apply interprets the protocol's remote operations. It runs in the
// destination PE's execution context — under the sharded engine that is the
// shard owning dst (PE 0's shard for the barrier state) — and never
// advances time.
func (r *simDistRun) apply(dst int, op uint8, a, b int64, chunks []stack.Chunk) int64 {
	switch op {
	case opDistReadAvail:
		return int64(r.pes[dst].workAvail)
	case opDistClaim:
		vs := r.pes[dst]
		if vs.request != -1 {
			return 0
		}
		vs.request = int(a)
		vs.p.Post(IntrSteal)
		return 1
	case opDistReadAnnounced:
		if r.sbAnnounced {
			return 1
		}
		return 0
	case opDistDeliver:
		tp := r.pes[dst]
		tp.resp = chunks
		tp.respReady = true
		return 0
	case opDistSbEnter:
		r.sbCount++
		if r.sbCount == len(r.pes) {
			return 1
		}
		return 0
	case opDistSbLeave:
		r.sbCount--
		return 0
	default: // opDistSbAnnounce
		r.sbAnnounced = true
		return 0
	}
}

// sameNode reports whether PEs a and b share a cluster node.
func (r *simDistRun) sameNode(a, b int) bool {
	return r.nodeSize > 1 && a/r.nodeSize == b/r.nodeSize
}

// refCost is one one-sided reference from a to b's partition.
func (r *simDistRun) refCost(a, b int) time.Duration {
	if r.sameNode(a, b) {
		return r.intra.remoteRef
	}
	return r.cs.remoteRef
}

// lockCost is one lock round trip from a to b's partition.
func (r *simDistRun) lockCost(a, b int) time.Duration {
	if r.sameNode(a, b) {
		return r.intra.lockRTT
	}
	return r.cs.lockRTT
}

// bulkCost is a one-sided transfer of n bytes between a and b.
func (r *simDistRun) bulkCost(a, b, n int) time.Duration {
	if r.sameNode(a, b) {
		return r.intra.bulk(n)
	}
	return r.cs.bulk(n)
}

// simDistPE is one simulated PE: owner-only stack and pool, a request
// word claimed by thieves, and an incoming response slot.
type simDistPE struct {
	simPE
	r *simDistRun

	pool      stack.Pool
	workAvail int
	request   int // thief ID or -1

	resp      []stack.Chunk
	respReady bool
}

func simDistMem(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, ps *policy.Set, finish func(*Proc)) (sampler, error) {
	r := &simDistRun{cfg: cfg, cs: cs, hier: cfg.Algorithm == core.UPCDistMemHier}
	if cfg.NodeSize >= 2 && cfg.Intra != nil {
		r.nodeSize = cfg.NodeSize
		r.intra = newCosts(cfg.Intra)
	}
	sim.SetRemote(r.apply)
	r.pes = make([]*simDistPE, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		pe := &simDistPE{simPE: newSimPE(sp, cfg, res, ps, i), r: r, request: -1}
		r.pes[i] = pe
		if i == 0 {
			pe.Local.Push(uts.Root(sp))
		}
		pe.spawn(sim, pe.main, finish)
	}
	return func() (sources, working int) {
		for _, pe := range r.pes {
			if pe.workAvail > 0 {
				sources++
			}
			if pe.Local.Len() > 0 || pe.pool.Len() > 0 {
				working++
			}
		}
		return
	}, nil
}

func (pe *simDistPE) main() {
	pe.rec(obs.KindStateChange, -1, int64(stats.Working))
	for {
		pe.work()
		pe.workAvail = -1
		pe.setState(stats.Searching)
		if pe.search() {
			pe.setState(stats.Working)
			continue
		}
		pe.setState(stats.Idle)
		pe.T.TermBarrierEntries++
		pe.rec(obs.KindTermEnter, -1, 0)
		if pe.terminate() {
			pe.service()
			return
		}
		pe.rec(obs.KindTermExit, -1, 0)
		pe.setState(stats.Working)
	}
}

// work explores nodes batch-wise as one stepped advance: each quantum is a
// batch of node work (ending early at a release threshold or stack drain),
// and the boundary between quanta is the polling point where a thief's
// posted interrupt is observed — the same virtual instant the original
// per-batch service() call would have seen the request word, but with zero
// events while no thief is knocking. Release and reacquire are executed at
// the boundary instant, after any pending request has been serviced, which
// reproduces the original flush-then-manipulate order exactly.
func (pe *simDistPE) work() {
	cs := &pe.r.cs
	k := pe.Chunk(pe.r.cfg.Chunk)
	batch := pe.r.cfg.Batch
	pending := 0
	releasing := false
	drained := false
	done := false
	step := func() (time.Duration, uint8) {
		if releasing {
			releasing = false
			pe.pool.Put(pe.Local.TakeBottom(k))
			pe.workAvail = pe.pool.Len()
			pe.T.Releases++
			pe.rec(obs.KindRelease, -1, int64(pe.workAvail))
		}
		if drained {
			drained = false
			c, ok := pe.pool.TakeNewest()
			if !ok {
				done = true
				return 0, StepDone
			}
			pe.workAvail = pe.pool.Len()
			pe.T.Reacquires++
			pe.rec(obs.KindReacquire, -1, int64(len(c)))
			pe.Local.PushAll(c)
		}
		for {
			if !pe.Visit() {
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
				pe.NoteCtl(pe.now())
				k = pe.Chunk(pe.r.cfg.Chunk)
				return pe.charge(d), 0
			}
		}
	}
	for !done {
		if m := pe.p.AdvanceStepped(step); m != 0 {
			pe.service()
		}
	}
}

// service answers a pending request: half the pool (rapid diffusion) or a
// denial, for the cost of two remote writes. It also clears the steal
// interrupt, so a request consumed through a direct check cannot trigger a
// stale second wakeup at the next polling boundary.
func (pe *simDistPE) service() {
	pe.p.ClearIntr(IntrSteal)
	if pe.request < 0 {
		return
	}
	thief := pe.request
	var chunks []stack.Chunk
	if pe.pool.Len() > 0 {
		chunks = pe.pool.TakeHalf()
		pe.workAvail = pe.pool.Len()
	}
	d := 2 * pe.r.refCost(pe.me, thief) // amount + address writes
	pe.T.AddState(pe.state, d)
	pe.p.RemoteSend(thief, d, 0, opDistDeliver, 0, 0, chunks)
	pe.request = -1
	pe.T.Requests++
	if len(chunks) > 0 {
		pe.rec(obs.KindStealGrant, int32(thief), int64(len(chunks)))
	} else {
		if pe.Ctl != nil && pe.Local.Len() > 0 {
			// Denied while the local stack holds work: victim-side evidence
			// that the 2k release threshold is withholding work from demand.
			pe.Ctl.NoteDenied()
		}
		pe.rec(obs.KindStealDeny, int32(thief), 0)
	}
}

// search probe phases.
const (
	phPoll  = iota // zero-length quantum whose boundary is a service point
	phProbe        // pay the probe's remote reference (no service point)
	phEval         // read workAvail at the probe's completion instant
)

func (pe *simDistPE) search() bool {
	n := len(pe.r.pes)
	if n == 1 {
		return false
	}
	var walk core.ProbeWalk
	sawWorker := false
	stealFrom := -1
	exhausted := false
	newWalk := func() {
		walk = pe.rng.WalkHier(pe.me, n, pe.VictimTier(pe.r.hier, pe.r.nodeSize))
		sawWorker = false
	}
	newWalk()
	ph := phPoll
	victim := -1
	// One quantum triple per victim: a zero-length service point (the
	// original loop called service() before every probe), the probe's
	// remote reference with the boundary check suppressed (the original
	// had no service point between issuing a probe and reading it), and
	// the evaluation at the completion instant.
	step := func() (time.Duration, uint8) {
		switch ph {
		case phPoll:
			ph = phProbe
			return 0, 0
		case phProbe:
			victim = walk.Victim()
			pe.rec(obs.KindProbeStart, int32(victim), 0)
			ph = phEval
			d := pe.p.StageRemote(victim, pe.r.refCost(pe.me, victim), opDistReadAvail, 0, 0)
			return pe.charge(d), StepNoPoll
		default: // phEval
			pe.T.Probes++
			wa := int(pe.p.StagedResult(0))
			pe.rec(obs.KindProbeResult, int32(victim), int64(wa))
			if wa > 0 {
				sawWorker = true
				stealFrom = victim
				return 0, StepDone
			}
			if wa >= 0 {
				sawWorker = true
			}
			walk.Advance()
			if walk.Exhausted() {
				if !sawWorker {
					exhausted = true
					return 0, StepDone
				}
				newWalk()
			}
			ph = phProbe
			return 0, 0 // service point before the next probe
		}
	}
	for {
		if m := pe.p.AdvanceStepped(step); m != 0 {
			pe.service()
			continue
		}
		if exhausted {
			return false
		}
		v := stealFrom
		stealFrom = -1
		pe.beginSteal()
		ok := pe.steal(v)
		pe.endSteal(ok, stats.Searching)
		pe.NoteCtl(pe.now())
		if ok {
			return true
		}
		walk.Advance()
		if walk.Exhausted() {
			if !sawWorker {
				return false
			}
			newWalk()
		}
		ph = phPoll // the original serviced before the next probe
	}
}

// steal claims the victim's request word, posts the steal interrupt that
// makes the victim's engine observe the request at its next quantized
// polling boundary, and polls its own response slot until the owner
// answers. The wait is a poll loop rather than a blocking sleep because
// the waiting thief must keep servicing its own request word (two thieves
// can be each other's victims).
func (pe *simDistPE) steal(v int) bool {
	r := pe.r
	cs := &r.cs

	pe.rec(obs.KindStealRequest, int32(v), 0)
	d := r.lockCost(pe.me, v) // lock-protected request-word write
	pe.T.AddState(pe.state, d)
	if pe.p.RemoteCall(v, d, opDistClaim, int64(pe.me), 0) == 0 {
		pe.T.FailedSteals++
		pe.rec(obs.KindStealFail, int32(v), 0)
		return false
	}

	// The response wait is a stepped advance: each quantum is one respPoll,
	// each boundary is the original loop-top respReady check, and a steal
	// request landing mid-wait surfaces as an interrupt at the boundary —
	// the same virtual instant the original loop's service() call saw the
	// request word. `polled` enforces the original's service-then-poll-
	// then-check order: after any service point the next quantum charges
	// before respReady is consulted again.
	pe.service() // the original serviced once before the first poll
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
		pe.service()
		polled = false
	}
	chunks := pe.resp
	pe.resp = nil
	pe.respReady = false

	if len(chunks) == 0 {
		pe.T.FailedSteals++
		pe.rec(obs.KindStealFail, int32(v), 0)
		return false
	}
	total := stack.NodeCount(chunks)
	pe.advance(r.bulkCost(pe.me, v, total*core.NodeBytes)) // one-sided get
	pe.T.Steals++
	pe.T.ChunksGot += int64(len(chunks))
	pe.Stolen = total
	pe.rec(obs.KindChunkTransfer, int32(v), int64(total))

	pe.Local.PushAll(chunks[0])
	for _, c := range chunks[1:] {
		pe.pool.Put(c)
	}
	pe.workAvail = pe.pool.Len()
	return true
}

func (pe *simDistPE) sbEnter() bool {
	r := pe.r
	d := r.cs.remoteRef
	pe.T.AddState(pe.state, d)
	if pe.p.RemoteCall(0, d, opDistSbEnter, 0, 0) != 0 {
		// This arrival completed the barrier: announce termination, paying
		// one remote reference per level of the announcement tree.
		ad := time.Duration(term.AnnounceLevels(len(r.pes))) * r.cs.remoteRef
		pe.T.AddState(pe.state, ad)
		pe.p.RemoteSend(0, ad, 0, opDistSbAnnounce, 0, 0, nil)
		return true
	}
	return false
}

// terminate phases beyond the shared poll/probe/eval triple.
const (
	phAnn = phEval + 1 // pay the announcement-flag poll (no service point)
)

func (pe *simDistPE) terminate() bool {
	r := pe.r
	if pe.sbEnter() {
		return true
	}
	n := len(r.pes)
	announced := false
	sawAnn := false
	stealFrom := -1
	ph := phPoll
	victim := -1
	// Each in-barrier iteration is [service point, announcement poll,
	// probe, eval], with the boundary check suppressed on the two advances
	// the original performed back-to-back without a service call between.
	// The announcement flag lives at PE 0, so reading it is a staged remote
	// op completing at the poll's boundary; the probe quantum stages two
	// reads — the victim's work counter and the flag again — because the
	// original re-checks announcement at the probe's completion instant
	// before leaving the barrier to steal.
	step := func() (time.Duration, uint8) {
		switch ph {
		case phPoll:
			ph = phAnn
			return 0, 0
		case phAnn:
			ph = phProbe
			d := pe.p.StageRemote(0, r.cs.remoteRef, opDistReadAnnounced, 0, 0)
			return pe.charge(d), StepNoPoll
		case phProbe:
			if pe.p.StagedResult(0) != 0 {
				announced = true
				return 0, StepDone
			}
			victim = pe.rng.Victim(pe.me, n)
			pe.rec(obs.KindProbeStart, int32(victim), 0)
			ph = phEval
			d := pe.p.StageRemote(victim, pe.r.refCost(pe.me, victim), opDistReadAvail, 0, 0)
			pe.p.StageRemote(0, d, opDistReadAnnounced, 0, 0)
			return pe.charge(d), StepNoPoll
		default: // phEval
			pe.T.Probes++
			wa := int(pe.p.StagedResult(0))
			sawAnn = pe.p.StagedResult(1) != 0
			pe.rec(obs.KindProbeResult, int32(victim), int64(wa))
			ph = phPoll
			if wa > 0 {
				stealFrom = victim
				return 0, StepDone
			}
			return 0, 0 // service point at the next iteration's top
		}
	}
	for {
		if m := pe.p.AdvanceStepped(step); m != 0 {
			pe.service()
			continue
		}
		if announced {
			return true
		}
		v := stealFrom
		stealFrom = -1
		if sawAnn {
			return true
		}
		ld := r.cs.remoteRef // leave the barrier
		pe.T.AddState(pe.state, ld)
		pe.p.RemoteCall(0, ld, opDistSbLeave, 0, 0)
		pe.beginSteal()
		ok := pe.steal(v)
		pe.endSteal(ok, stats.Idle)
		if ok {
			return false
		}
		if pe.sbEnter() {
			return true
		}
		ph = phPoll
	}
}
