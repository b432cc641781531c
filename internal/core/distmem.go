package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/pgas"
	"repro/internal/stack"
	"repro/internal/term"
	"repro/internal/uts"
)

// noThief is the empty value of a request word.
const noThief = -1

// privStack is one thread's state in the distributed-memory algorithm
// (Section 3.3.3). The DFS stack (the worker's PE.Local) and the steal pool
// are touched only by their owner — no locks anywhere on the work path.
// Thieves interact through two words: they read workAvail one-sidedly, and
// write their ID into request; the owner polls request (a local read) and
// answers by writing into the thief's response slot.
type privStack struct {
	pool stack.Pool // owner only

	// workAvail: −1 when the thread has no work at all, otherwise the
	// number of stealable chunks (0 = working, no surplus). Probed
	// remotely without locking.
	workAvail atomic.Int32

	// request holds the ID of the thief currently asking this thread for
	// work, or noThief. Thieves claim it with compare-and-swap (the
	// paper's lock-protected request variable); the owner resets it after
	// responding.
	request atomic.Int32

	// resp/respReady form this thread's *incoming* response slot: a victim
	// this thread has requested from writes the granted chunks here (two
	// remote writes in the paper: amount and address). respReady carries
	// the release/acquire ordering for resp.
	resp      []stack.Chunk
	respReady atomic.Bool

	_ [2*cacheLine - 72]byte // pad to a cache-line multiple (TestStackStructsPadded)
}

type distRun struct {
	opt    Options
	dom    *pgas.Domain
	stacks []*privStack
	sb     *term.StreamBarrier
}

// runDistMem executes upc-distmem (and upc-distmem-hier, which without
// nodes probes the same flat cycle).
func runDistMem(sp *uts.Spec, opt Options, res *Result) error {
	dom, err := pgas.NewDomain(opt.Threads, opt.Model)
	if err != nil {
		return err
	}
	r := &distRun{opt: opt, dom: dom, sb: term.NewStreamBarrier(dom)}
	r.stacks = make([]*privStack, opt.Threads)
	for i := range r.stacks {
		r.stacks[i] = &privStack{}
		r.stacks[i].request.Store(noThief)
	}

	eachThread(sp, opt, res, func(me int, pe WallPE) {
		w := &distWorker{WallPE: pe, run: r, me: me}
		request := &r.stacks[me].request
		w.Interrupt = func() bool { return request.Load() != noThief }
		if me == 0 {
			w.Local.Push(uts.Root(sp))
		}
		w.Start()
		defer w.Stop()
		m := Machine{H: w, PE: &w.PE, Rng: NewProbeOrder(opt.Seed, me), Me: me, N: opt.Threads, Stream: true}
		w.Steps(m.Start())
	})
	return nil
}

// distWorker is one thread's execution state: the machine's Host for the
// distributed-memory algorithm on the wall clock.
type distWorker struct {
	WallPE
	run *distRun
	me  int
}

func (w *distWorker) stack() *privStack { return w.run.stacks[w.me] }

// Work explores nodes until local stack and steal pool are both empty,
// then tells probing threads so. Working polls the request word before every
// visit — a local read whose cost is negligible, the point of the design.
func (w *distWorker) Work() {
	s := w.stack()
	for {
		switch w.Working(w.run.opt.Chunk, &s.request) {
		case Pending:
			w.Service()
		case Surplus:
			s.pool.Put(w.Release(w.K()))
			s.workAvail.Store(int32(s.pool.Len()))
			w.Released(s.pool.Len())
		case Drained:
			// Reacquire from the thread's own pool: owner-only, no lock.
			c, ok := s.pool.TakeNewest()
			if !ok {
				w.FlushNodes()
				s.workAvail.Store(-1)
				return
			}
			s.workAvail.Store(int32(s.pool.Len()))
			w.Reacquired(c)
		}
	}
}

// Service answers a pending steal request: half of the available chunks if
// any (Section 3.3.2's rapid diffusion), or a zero-chunk denial. Costs the
// owner two remote writes only when a request is actually pending.
func (w *distWorker) Service() {
	s := w.stack()
	thief := s.request.Load()
	if thief == noThief {
		return
	}
	var chunks []stack.Chunk
	if s.pool.Len() > 0 {
		chunks = s.pool.TakeHalf()
		s.workAvail.Store(int32(s.pool.Len()))
	}
	// Two remote writes: the amount granted and the work's address.
	w.run.dom.ChargeRef(w.me, int(thief))
	w.run.dom.ChargeRef(w.me, int(thief))
	ts := w.run.stacks[thief]
	ts.resp = chunks
	ts.respReady.Store(true)
	s.request.Store(noThief) // local write
	if len(chunks) > 0 {
		w.Granted(int(thief), len(chunks))
	} else {
		w.Denied(int(thief))
	}
}

// StageAvail reads a victim's work-available count one-sidedly.
func (w *distWorker) StageAvail(v int) time.Duration {
	w.run.dom.ChargeRef(w.me, v)
	return w.Stage(int64(w.run.stacks[v].workAvail.Load()))
}

// StageAnnounced polls the barrier's announcement flag.
func (w *distWorker) StageAnnounced(time.Duration) time.Duration {
	return w.StageFlag(w.run.sb.Done(w.me))
}

// Steal runs the asynchronous request/response protocol: claim the
// victim's request word, wait for the owner's answer, then transfer the
// granted chunks with a one-sided get. The wait always terminates: a
// victim in any state — working, searching, or parked in the termination
// barrier — keeps servicing its request word, and termination cannot be
// announced while this thread is outside the barrier.
func (w *distWorker) Steal(v int) bool {
	r := w.run
	vs := r.stacks[v]

	// Write our ID into the lock-protected request variable.
	r.dom.ChargeLockRTT(w.me, v)
	if !vs.request.CompareAndSwap(noThief, int32(w.me)) {
		return false
	}

	// Await the response in our own slot: spinning on local memory.
	me := w.stack()
	for !me.respReady.Load() {
		w.Service() // we may be someone else's victim meanwhile
		runtime.Gosched()
	}
	chunks := me.resp
	me.resp = nil
	me.respReady.Store(false)

	if len(chunks) == 0 {
		return false
	}
	// One-sided get of the granted work.
	r.dom.ChargeBulk(w.me, v, stack.NodeCount(chunks)*uts.NodeBytes)
	for _, c := range w.Landed(v, chunks) {
		me.pool.Put(c)
	}
	me.workAvail.Store(int32(me.pool.Len()))
	return true
}

// Enter and Leave are the streamlined barrier's.
func (w *distWorker) Enter() bool { return w.run.sb.Enter(w.me) }
func (w *distWorker) Leave() bool { return w.run.sb.Leave(w.me) }
