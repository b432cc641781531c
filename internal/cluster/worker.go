package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/uts"
)

// runWorker runs the Section 3.3 distributed-memory algorithm on this
// rank's worker thread, with every remote interaction going over TCP.
func (n *node) runWorker() error {
	w := newWorker(n)
	return w.run(w)
}

// newWorker builds the rank's worker, rank 0's holding the root.
func newWorker(n *node) *clusterWorker {
	w := &clusterWorker{
		// This rank is one PE, so it owns the set's single controller.
		WallPE: core.WallPE{PE: core.NewPE(n.cfg.Spec, &n.t, n.cfg.Tracer.Lane(n.cfg.Rank), n.pset.Controller(0))},
		n:      n,
		me:     n.cfg.Rank,
	}
	w.Interrupt = func() bool { return n.reqWord.Load() >= 0 || n.killed.Load() }
	if w.me == 0 {
		w.Local.Push(uts.Root(n.cfg.Spec))
	}
	return w
}

// run drives the machine over h, the worker itself (a test's wrapper of
// it), to the end of the run and returns the worker's error.
func (w *clusterWorker) run(h core.Host) error {
	w.Start()
	defer w.Stop()
	m := core.Machine{H: h, PE: &w.PE, Rng: core.NewProbeOrder(w.n.cfg.Seed, w.me), Me: w.me, N: w.n.cfg.Ranks, Stream: true}
	w.Steps(m.Start())
	// A rank that terminates cleanly holds nothing: work still reserved or
	// pooled is a subtree nobody explored, and says so rather than count short.
	if reserved, pooled := w.n.handoff.Pending(), w.pool.Len(); w.err == nil && reserved+pooled > 0 {
		return fmt.Errorf("cluster: rank %d terminated with unexplored work: %d handoff entries reserved, %d chunks pooled",
			w.me, reserved, pooled)
	}
	return w.err
}

// clusterWorker is the rank's worker thread, the machine's Host (core.Host)
// over TCP. The fault paths reach the machine through the hooks every host
// has: a dead rank answers a probe "not a worker", and reserved work no
// thief fetched comes home through Settle. An error the run cannot survive
// (this rank killed, the coordinator unreachable) is err, and once it is
// set the same hooks end the run without another RPC: every probe reads
// "not a worker", Settle regains nothing, Enter reports the run over,
// Leave refuses and the announcement flag reads set, so the machine ends
// at the barrier and run returns err.
type clusterWorker struct {
	core.WallPE
	n    *node
	me   int
	pool stack.Pool
	err  error
}

// fail records the first fatal error.
func (w *clusterWorker) fail(err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
}

// failUnlessPeer is fail for an RPC whose failure may be the peer's alone
// (it died, or the call gave out): that costs a steal, not the run.
func (w *clusterWorker) failUnlessPeer(err error) {
	if !errors.Is(err, errPeerDead) && !errors.Is(err, errRPCFailed) {
		w.fail(err)
	}
}

// Work explores nodes until the local stack and the steal pool drain and
// leaves the work-available word saying the rank is out of work. The kill
// flag only ever ends a run, so it is read once a yield interval, not per visit.
func (w *clusterWorker) Work() {
	for {
		switch w.Working(w.n.cfg.Chunk, &w.n.reqWord) {
		case core.Yielded:
			w.reclaim() // one atomic load while the handoff table is empty
			fallthrough // service looks at the kill flag before the request word
		case core.Pending:
			if w.Service(); w.err != nil {
				return
			}
		case core.Surplus:
			w.pool.Put(w.Release(w.K()))
			w.n.workAvail.Store(int32(w.pool.Len()))
			w.Released(w.pool.Len())
		case core.Drained:
			c, ok := w.pool.TakeNewest()
			if !ok {
				w.FlushNodes()
				w.n.workAvail.Store(-1)
				return
			}
			w.n.workAvail.Store(int32(w.pool.Len()))
			w.Reacquired(c)
		}
	}
}

// Service answers a pending steal request unless the run is already lost.
func (w *clusterWorker) Service() {
	if w.err == nil {
		w.fail(w.service())
	}
}

// service answers a pending steal request: reserve half the pool in the
// handoff table and write amount+handle into the thief's response slot.
// A thief that cannot be reached is handled gracefully: the reserved
// work is taken back out of the handoff table into the pool (never
// stranded), the request word is cleared, and the worker keeps going — a
// dead thief must not take its victim down with it.
func (w *clusterWorker) service() error {
	if w.n.killed.Load() {
		return errKilled
	}
	thief := w.n.reqWord.Load()
	if thief < 0 {
		return nil
	}
	var amount int32
	var handle uint64
	if w.pool.Len() > 0 {
		chunks := w.pool.TakeHalf()
		w.n.workAvail.Store(int32(w.pool.Len()))
		amount = int32(len(chunks))
		handle = w.n.handoff.reserve(chunks, thief)
	}
	_, err := w.n.call(int(thief), &request{
		Kind: kindPutResponse, From: w.me, Amount: amount, Handle: handle,
	})
	w.n.reqWord.Store(-1)
	if err != nil {
		// The thief never learned the handle: un-reserve the work so it
		// is stolen or explored locally instead of leaking. (If it did and
		// its fetch is in service, the entry stays for a later sweep.)
		if chunks, ok := w.n.handoff.takeBack(handle); ok {
			w.comeHome(chunks)
		}
		if errors.Is(err, errPeerDead) || errors.Is(err, errRPCFailed) {
			return nil
		}
		return err
	}
	if amount > 0 {
		w.Granted(int(thief), int(amount))
	} else {
		w.Denied(int(thief))
	}
	return nil
}

// comeHome puts chunks taken back from the handoff table into the pool,
// stealable again.
func (w *clusterWorker) comeHome(chunks []stack.Chunk) {
	for _, c := range chunks {
		w.pool.Put(c)
	}
	w.n.workAvail.Store(int32(w.pool.Len()))
}

// reclaim sweeps the handoff table for reservations that will not be
// fetched — stranded by a reply that never went out, granted to a thief
// this rank declared dead (or that gave up on a response which did land),
// unfetched past the stale bound — and puts the work back into the pool.
// Returns true when any came back. Costs one atomic load while the table
// is empty, so the hot loop calls it on its yield cadence.
func (w *clusterWorker) reclaim() bool {
	if w.n.handoff.Pending() == 0 {
		return false
	}
	entries := w.n.handoff.sweep(w.n.isDead, w.n.staleAfter())
	for _, e := range entries {
		w.Lane.Rec(obs.KindHandoffReclaim, e.thief, int64(len(e.chunks)))
		w.comeHome(e.chunks)
	}
	return len(entries) > 0
}

// Settle takes stranded reservations back. Before a probe cycle it is one
// sweep: work stranded by a thief that never fetched its grant counts as
// discovered work, not a reason to keep searching. Entering the barrier it
// blocks until every reserved entry, one being served included, is
// delivered or reclaimed — entering with work still reserved could let
// the run terminate with that subtree unexplored — and keeps servicing
// steal requests meanwhile (reclaimed work is immediately stealable again).
func (w *clusterWorker) Settle(entering bool) bool {
	regained := w.reclaim()
	for entering && w.err == nil && w.n.handoff.Pending() > 0 {
		w.Service()
		if w.reclaim() {
			regained = true
		}
		runtime.Gosched()
	}
	return regained && w.pool.Len() > 0 && w.err == nil
}

// getAvail reads rank v's work-available word with a one-sided get. A rank
// that dies under the read is not a worker (−1); any other failure also
// ends the run.
func (w *clusterWorker) getAvail(v int) int32 {
	resp, err := w.n.call(v, &request{Kind: kindGetAvail, From: w.me})
	if err != nil {
		if !errors.Is(err, errPeerDead) {
			w.fail(err)
		}
		return -1
	}
	return resp.Avail
}

// StageAvail probes rank v, unless it is already marked dead.
func (w *clusterWorker) StageAvail(v int) time.Duration {
	if w.err != nil || w.n.isDead(v) {
		return w.Stage(-1)
	}
	return w.Stage(int64(w.getAvail(v)))
}

// StageAnnounced asks rank 0 whether termination was announced; a rank
// that has failed reads it set.
func (w *clusterWorker) StageAnnounced(time.Duration) time.Duration {
	switch {
	case w.err != nil:
		return w.StageFlag(true)
	case w.me == 0:
		return w.StageFlag(w.n.announced.Load())
	}
	return w.StageFlag(w.barrier(kindBarrierDone).Done)
}

// Steal claims v's request word, waits (bounded) for the owner's response
// in the local slot, then fetches the reserved chunks with a one-sided
// get. A victim that dies at any point in the exchange turns the attempt
// into a failed steal, never a hang: the CAS and the chunk fetch carry
// RPC deadlines, and the response wait is bounded by the worst case a
// live victim can spend unable to service (its own retry loop toward a
// dead peer) — after which a confirmation probe separates a dead victim
// from one whose response was merely lost.
func (w *clusterWorker) Steal(v int) bool {
	resp, err := w.n.call(v, &request{Kind: kindCASRequest, From: w.me, Thief: int32(w.me)})
	if err != nil || !resp.OK {
		w.failUnlessPeer(err)
		return false
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
		if w.Service(); w.err != nil {
			return false
		}
		if spins++; spins&0xff == 0 && time.Now().After(respDeadline) {
			// No response within the worst-case service gap. The
			// progress engine answers probes even while v's worker is
			// blocked elsewhere, so a fully retried probe separates the
			// verdicts: if it also fails, call() marks v dead; if v
			// answers, the exchange is abandoned without a verdict and
			// any reserved work returns via v's reclaim sweep.
			w.getAvail(v)
			return false
		}
		runtime.Gosched()
	}
	if amount == 0 {
		return false
	}
	got, err := w.n.call(v, &request{Kind: kindGetChunks, From: w.me, Handle: handle})
	if err != nil {
		// If only the fetch failed, the reservation is intact at v (or
		// stranded there when only the response leg was lost): v's
		// reclaim sweep returns the work to v's own pool.
		w.failUnlessPeer(err)
		return false
	}
	if len(got.Chunk) == 0 {
		// The entry is gone: v's reclaim sweep took it back because this
		// steal outlived the stale-entry bound. The work stays at v.
		return false
	}
	for _, c := range w.Landed(v, got.Chunk) {
		w.pool.Put(c)
	}
	w.n.workAvail.Store(int32(w.pool.Len()))
	return true
}

// barrier performs one operation on the barrier of Section 3.3.1, served
// by rank 0's progress engine (rank 0's own worker shortcuts to local
// state). A coordinator that cannot be reached is fatal — without rank 0
// there is no termination protocol and no one to report results to — but
// the error arrives in bounded time instead of hanging, and the answer is
// then the zero one: not last, not allowed to leave, not done.
func (w *clusterWorker) barrier(kind reqKind) *response {
	resp, err := w.n.call(0, &request{Kind: kind, From: w.me})
	if err != nil {
		w.fail(err)
		return &response{}
	}
	return resp
}

// Enter and Leave: the barrier completes over the surviving membership
// (rank 0 shrinks the required count as deaths are reported). For a rank
// that has failed the run is over: it enters no barrier and leaves none.
func (w *clusterWorker) Enter() bool {
	switch {
	case w.err != nil:
		return true
	case w.me == 0:
		return w.n.barEnter(0)
	}
	return w.barrier(kindBarrierEnter).Last
}

func (w *clusterWorker) Leave() bool {
	switch {
	case w.err != nil:
		return false
	case w.me == 0:
		return w.n.barLeave(0)
	}
	return w.barrier(kindBarrierLeave).OK
}
