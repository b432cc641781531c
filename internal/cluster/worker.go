package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// search runs the Section 3.3 distributed-memory algorithm on this rank's
// worker thread, with every remote interaction going over TCP.
func (n *node) search() error {
	w := &clusterWorker{
		// This rank is one PE, so it owns the set's single controller.
		WallPE: core.WallPE{PE: core.NewPE(n.cfg.Spec, &n.t, n.cfg.Tracer.Lane(n.cfg.Rank), n.pset.Controller(0))},
		n:      n,
		sp:     n.cfg.Spec,
		k:      n.cfg.Chunk,
		rng:    core.NewProbeOrder(n.cfg.Seed, n.cfg.Rank),
		ranks:  n.cfg.Ranks,
		me:     n.cfg.Rank,
	}
	if w.me == 0 {
		w.Local.Push(uts.Root(w.sp))
	}
	w.Start()
	defer w.Stop()
	return w.main()
}

// clusterWorker is the per-process worker thread state. k is refreshed
// from the controller at the yield cadence, never mid-release.
type clusterWorker struct {
	core.WallPE
	n     *node
	sp    *uts.Spec
	k     int
	me    int
	ranks int
	rng   *core.ProbeOrder
	pool  stack.Pool
}

func (w *clusterWorker) main() error {
	t := &w.n.t
	for {
		if err := w.work(); err != nil {
			return err
		}
		w.n.workAvail.Store(-1)
		w.SetState(stats.Searching)
		got, err := w.discover()
		if err != nil {
			return err
		}
		if got {
			w.SetState(stats.Working)
			continue
		}
		w.SetState(stats.Idle)
		// Reserved-but-unfetched handoff entries pin this worker out of
		// the termination barrier: entering with work still reserved
		// could let the run terminate with that subtree unexplored. Wait
		// for every entry to be fetched or reclaimed; reclaimed work
		// sends the worker back to Working instead.
		regained, err := w.drainHandoffs()
		if err != nil {
			return err
		}
		if regained && w.pool.Len() > 0 {
			w.SetState(stats.Working)
			continue
		}
		t.TermBarrierEntries++
		w.Lane.Rec(obs.KindTermEnter, -1, 0)
		done, err := w.terminate()
		if err != nil {
			return err
		}
		if done {
			return w.service() // deny any last raced-in request
		}
		w.Lane.Rec(obs.KindTermExit, -1, 0)
		w.SetState(stats.Working)
	}
}

// work explores nodes until the local stack and the steal pool drain,
// polling the request word (a local atomic) every node.
func (w *clusterWorker) work() error {
	t := &w.n.t
	sinceYield := 0
	for {
		if sinceYield++; sinceYield >= 256 {
			sinceYield = 0
			w.reclaim() // one atomic load while the handoff table is empty
			w.FlushNodes()
			w.NoteCtl(w.Now())
			w.k = w.Chunk(w.k)
			runtime.Gosched()
		}
		if err := w.service(); err != nil {
			return err
		}
		if !w.Visit() {
			c, ok := w.pool.TakeNewest()
			if !ok {
				w.FlushNodes()
				return nil
			}
			w.n.workAvail.Store(int32(w.pool.Len()))
			t.Reacquires++
			w.Lane.Rec(obs.KindReacquire, -1, int64(len(c)))
			w.Local.PushAll(c)
			w.n.putNodeBuf(c) // contents copied; buffer rejoins the cycle
			continue
		}
		if w.Local.Len() >= 2*w.k {
			w.pool.Put(w.Local.TakeBottomAppend(w.n.getNodeBuf(), w.k))
			w.n.workAvail.Store(int32(w.pool.Len()))
			t.Releases++
			w.Lane.Rec(obs.KindRelease, -1, int64(w.pool.Len()))
		}
	}
}

// service answers a pending steal request: reserve half the pool in the
// handoff table and write amount+handle into the thief's response slot.
// A thief that cannot be reached is handled gracefully: the reserved
// work is withdrawn from the handoff table and returned to the pool
// (never stranded), the request word is cleared, and the worker keeps
// going — a dead thief must not take its victim down with it.
func (w *clusterWorker) service() error {
	if w.n.killed.Load() {
		return errKilled
	}
	thief := w.n.reqWord.Load()
	if thief < 0 {
		return nil
	}
	if int(thief) == w.me {
		return fmt.Errorf("cluster: rank %d received a self-steal request", w.me)
	}
	var amount int32
	var handle uint64
	if w.pool.Len() > 0 {
		chunks := w.pool.TakeHalfAppend(w.n.getChunkBuf())
		w.n.workAvail.Store(int32(w.pool.Len()))
		amount = int32(len(chunks))
		handle = w.n.deposit(chunks, thief)
	}
	_, err := w.n.call(int(thief), &request{
		Kind: kindPutResponse, From: w.me, Amount: amount, Handle: handle,
	})
	if err != nil {
		// The thief never learned the handle: un-reserve the work so it
		// is stolen or explored locally instead of leaking.
		if amount > 0 {
			if chunks, ok := w.n.withdraw(handle); ok {
				for _, c := range chunks {
					w.pool.Put(c)
				}
				w.n.putChunkBuf(chunks)
			}
			w.n.workAvail.Store(int32(w.pool.Len()))
		}
		w.n.reqWord.Store(-1)
		if errors.Is(err, errPeerDead) || errors.Is(err, errRPCFailed) {
			return nil
		}
		return err
	}
	w.n.reqWord.Store(-1)
	w.n.t.Requests++
	if amount > 0 {
		w.Lane.Rec(obs.KindStealGrant, thief, int64(amount))
	} else {
		w.Lane.Rec(obs.KindStealDeny, thief, 0)
		if w.Ctl != nil && w.Local.Len() > 0 {
			// Denied while holding private work: the release threshold is
			// withholding — evidence toward a smaller k.
			w.Ctl.NoteDenied()
		}
	}
	return nil
}

// reclaim sweeps the handoff table for stranded reservations — entries
// whose thief this rank declared dead, or that sat unfetched past the
// stale bound — and puts the work back into the pool. Returns true when
// any work came back. Costs one atomic load while the table is empty,
// so the hot loop calls it on its yield cadence.
func (w *clusterWorker) reclaim() bool {
	entries := w.n.reclaimStranded()
	if len(entries) == 0 {
		return false
	}
	for _, e := range entries {
		w.Lane.Rec(obs.KindHandoffReclaim, e.thief, int64(len(e.chunks)))
		for _, c := range e.chunks {
			w.pool.Put(c)
		}
		w.n.putChunkBuf(e.chunks)
	}
	w.n.workAvail.Store(int32(w.pool.Len()))
	return true
}

// drainHandoffs blocks until the handoff table is empty: every reserved
// entry has either been fetched by its thief or reclaimed back into the
// pool. It keeps servicing steal requests meanwhile (reclaimed work is
// immediately stealable again), and reports whether any reclaim put
// work back — the caller must then resume working rather than enter the
// termination barrier.
func (w *clusterWorker) drainHandoffs() (bool, error) {
	regained := false
	for w.n.handoffN.Load() > 0 {
		if err := w.service(); err != nil {
			return regained, err
		}
		if w.reclaim() {
			regained = true
		}
		runtime.Gosched()
	}
	return regained, nil
}

// discover probes the other ranks in pseudo-random cycles, returning true
// once work has been stolen onto the local stack and false when a full
// cycle saw every other rank entirely out of work. Ranks marked dead are
// skipped; a probe that dies mid-cycle degrades to "not a worker" rather
// than aborting the search. Each cycle starts with a reclaim sweep: work
// stranded by a thief that never fetched its grant counts as discovered
// work, not a reason to keep searching.
func (w *clusterWorker) discover() (bool, error) {
	if w.ranks == 1 {
		return false, nil
	}
	for {
		if w.reclaim() {
			return true, nil
		}
		sawWorker := false
		for _, v := range w.rng.Cycle(w.me, w.ranks) {
			if err := w.service(); err != nil {
				return false, err
			}
			if w.n.isDead(v) {
				continue
			}
			wa, err := w.probe(v)
			if err != nil {
				if errors.Is(err, errPeerDead) {
					continue
				}
				return false, err
			}
			if wa > 0 {
				w.BeginSteal()
				ok, err := w.steal(v)
				w.EndSteal(ok, stats.Searching)
				if err != nil {
					return false, err
				}
				if ok {
					return true, nil
				}
			}
			if wa >= 0 {
				sawWorker = true
			}
		}
		if !sawWorker {
			return false, nil
		}
		runtime.Gosched()
	}
}

// probe reads rank v's work-available word with a one-sided get.
func (w *clusterWorker) probe(v int) (int32, error) {
	w.n.t.Probes++
	resp, err := w.n.call(v, &request{Kind: kindGetAvail, From: w.me})
	if err != nil {
		return 0, err
	}
	w.Lane.Rec(obs.KindProbeResult, int32(v), int64(resp.Avail))
	return resp.Avail, nil
}

// stealFail books one failed steal attempt at rank v.
func (w *clusterWorker) stealFail(v int) {
	w.n.t.FailedSteals++
	w.Lane.Rec(obs.KindStealFail, int32(v), 0)
}

// steal claims v's request word, waits (bounded) for the owner's response
// in the local slot, then fetches the reserved chunks with a one-sided
// get. A victim that dies at any point in the exchange turns the attempt
// into a failed steal, never a hang: the CAS and the chunk fetch carry
// RPC deadlines, and the response wait is bounded by the worst case a
// live victim can spend unable to service (its own retry loop toward a
// dead peer) — after which a confirmation probe separates a dead victim
// from one whose response was merely lost.
func (w *clusterWorker) steal(v int) (bool, error) {
	t := &w.n.t
	w.Lane.Rec(obs.KindStealRequest, int32(v), 0)
	resp, err := w.n.call(v, &request{Kind: kindCASRequest, From: w.me, Thief: int32(w.me)})
	if err != nil {
		if errors.Is(err, errPeerDead) || errors.Is(err, errRPCFailed) {
			w.stealFail(v)
			return false, nil
		}
		return false, err
	}
	if !resp.OK {
		w.stealFail(v)
		return false, nil
	}
	var amount int32
	var handle uint64
	respDeadline := time.Now().Add(w.n.respWait())
	spins := 0
	for {
		if w.n.respReady.Load() {
			w.n.respMu.Lock()
			a, h, from := w.n.respAmount, w.n.respHandle, w.n.respFrom
			w.n.respReady.Store(false)
			w.n.respMu.Unlock()
			if from != v {
				// Stale response from an earlier abandoned steal (its
				// victim timed out or the exchange failed): drop it and
				// keep waiting for the real one. Any grant it named is
				// taken back by its victim's reclaim sweep, so dropping
				// it loses nothing.
				continue
			}
			amount, handle = a, h
			break
		}
		if err := w.service(); err != nil {
			return false, err
		}
		if spins++; spins&0xff == 0 && time.Now().After(respDeadline) {
			// No response within the worst-case service gap. The
			// progress engine answers probes even while v's worker is
			// blocked elsewhere, so a fully retried probe separates the
			// verdicts: if it also fails, call() marks v dead; if v
			// answers, the exchange is abandoned without a verdict and
			// any reserved work returns via v's reclaim sweep.
			if _, perr := w.probe(v); perr != nil && !errors.Is(perr, errPeerDead) {
				return false, perr
			}
			w.stealFail(v)
			return false, nil
		}
		runtime.Gosched()
	}
	if amount == 0 {
		w.stealFail(v)
		return false, nil
	}
	got, err := w.n.call(v, &request{Kind: kindGetChunks, From: w.me, Handle: handle})
	if err != nil {
		if errors.Is(err, errPeerDead) || errors.Is(err, errRPCFailed) {
			// The fetch failed, but the reservation is intact at v (or
			// redeposited there when only the response leg was lost):
			// v's reclaim sweep returns the work to v's own pool.
			w.stealFail(v)
			return false, nil
		}
		return false, err
	}
	if len(got.Chunk) == 0 {
		// The entry is gone: v's reclaim sweep took it back because this
		// steal outlived the stale-entry bound. The work stays at v.
		w.stealFail(v)
		return false, nil
	}
	t.Steals++
	t.ChunksGot += int64(len(got.Chunk))
	total := stack.NodeCount(got.Chunk)
	w.Stolen = total
	w.Lane.Rec(obs.KindChunkTransfer, int32(v), int64(total))
	w.Local.PushAll(got.Chunk[0])
	w.n.putNodeBuf(got.Chunk[0]) // contents copied; buffer rejoins the cycle
	for _, c := range got.Chunk[1:] {
		w.pool.Put(c)
	}
	w.n.workAvail.Store(int32(w.pool.Len()))
	return true, nil
}

// Barrier operations, served by rank 0's progress engine; rank 0's own
// worker shortcuts to local state. For other ranks a coordinator that
// cannot be reached is fatal — without rank 0 there is no termination
// protocol and no one to report results to — but the error arrives in
// bounded time instead of hanging.
func (w *clusterWorker) barrierEnter() (bool, error) {
	if w.me == 0 {
		return w.n.barEnter(0), nil
	}
	resp, err := w.n.call(0, &request{Kind: kindBarrierEnter, From: w.me})
	if err != nil {
		return false, err
	}
	return resp.Last, nil
}

func (w *clusterWorker) barrierLeave() (bool, error) {
	if w.me == 0 {
		return w.n.barLeave(0), nil
	}
	resp, err := w.n.call(0, &request{Kind: kindBarrierLeave, From: w.me})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

func (w *clusterWorker) barrierDone() (bool, error) {
	if w.me == 0 {
		return w.n.announced.Load(), nil
	}
	resp, err := w.n.call(0, &request{Kind: kindBarrierDone, From: w.me})
	if err != nil {
		return false, err
	}
	return resp.Done, nil
}

// terminate runs the streamlined termination protocol of Section 3.3.1
// over the barrier RPCs: enter only when a full cycle saw no work, keep
// servicing requests while waiting, inspect one rank at a time, and leave
// before any steal attempt. Dead ranks are skipped during inspection; the
// barrier itself completes over the surviving membership (rank 0 shrinks
// the required count as deaths are reported).
func (w *clusterWorker) terminate() (bool, error) {
	last, err := w.barrierEnter()
	if err != nil || last {
		return last, err
	}
	for {
		if err := w.service(); err != nil {
			return false, err
		}
		done, err := w.barrierDone()
		if err != nil || done {
			return done, err
		}
		if w.ranks < 2 {
			continue
		}
		v := w.rng.Victim(w.me, w.ranks)
		if w.n.isDead(v) {
			runtime.Gosched()
			continue
		}
		wa, err := w.probe(v)
		if err != nil {
			if errors.Is(err, errPeerDead) {
				runtime.Gosched()
				continue
			}
			return false, err
		}
		if wa > 0 {
			ok, err := w.barrierLeave()
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil // termination raced in; we are done
			}
			w.BeginSteal()
			got, err := w.steal(v)
			w.EndSteal(got, stats.Idle)
			if err != nil {
				return false, err
			}
			if got {
				return false, nil
			}
			last, err := w.barrierEnter()
			if err != nil || last {
				return last, err
			}
		}
		runtime.Gosched()
	}
}
