package core

import (
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/uts"
)

// runMPIWS executes the message-passing work-stealing baseline of Section
// 3.2 on goroutines: the rank is MsgRank, the transport msg.Comm.
func runMPIWS(sp *uts.Spec, opt Options, res *Result) error {
	comm, err := msg.NewComm(opt.Threads, opt.Model)
	if err != nil {
		return err
	}
	eachThread(sp, opt, res, func(me int, pe WallPE) {
		w := &mpiWorker{WallPE: pe, abort: opt.abort, comm: comm, me: me, poll: opt.PollInterval}
		w.rank = MsgRank{H: w, PE: &w.PE, Rng: NewProbeOrder(opt.Seed, me), Me: me, N: opt.Threads, Chunk: opt.Chunk}
		if me == 0 {
			w.Local.Push(uts.Root(sp))
		}
		w.Start()
		defer w.Stop()
		w.Drive(w.rank.Start())
	})
	return nil
}

// transport is what a rank needs of msg.Comm; the scripted rank test puts a
// counting one in its place.
type transport interface {
	Send(from, to int, m msg.Message)
	Recv(me int) (msg.Message, bool)
}

// mpiWorker is one rank's execution state: MsgRank's host on the wall
// clock.
type mpiWorker struct {
	WallPE
	rank  MsgRank
	abort *atomic.Bool
	comm  transport
	me    int
	poll  int         // the fixed poll interval (PE.Ctl.Poll adapts it)
	rx    msg.Message // what the last Recv took
	_     [16]byte    // whole cache lines (TestStackStructsPadded)
}

func (w *mpiWorker) Send(to int, m msg.Message) time.Duration {
	w.comm.Send(w.me, to, m)
	return 0
}
func (w *mpiWorker) Sleep() time.Duration { return 0 }
func (w *mpiWorker) Stopped() bool        { return w.abort.Load() }

func (w *mpiWorker) Recv() *msg.Message {
	m, ok := w.comm.Recv(w.me)
	if !ok {
		return nil
	}
	w.rx = m
	return &w.rx
}

// Work explores nodes, polling the message queue every poll-interval nodes
// — the cost/latency tradeoff the paper's Section 3.2 highlights. On the
// wall clock the whole exploration is one quantum.
func (w *mpiWorker) Work() (time.Duration, bool) {
	poll, since := w.Ctl.Poll(w.poll), 0
	for !w.rank.Terminated() {
		// What is left of the interval is the most the visit may take: the
		// paper's tuning parameter counts nodes, however many a call visits.
		n, yielded := w.Explore(poll - since)
		if yielded {
			if w.abort.Load() {
				return 0, true
			}
			poll = w.Ctl.Poll(w.poll) // may have adapted at the window boundary
		} else if n == 0 {
			break
		}
		if since += n; since >= poll {
			since = 0
			w.drain()
		}
	}
	w.FlushNodes()
	w.drain()
	return 0, true
}

// drain handles every pending message. Each call counts as one poll for
// the adaptive controller, which tunes the poll interval from the
// hit rate (messages handled per poll).
func (w *mpiWorker) drain() {
	got := 0
	for m := w.Recv(); m != nil; m = w.Recv() {
		got++
		w.rank.Handle(m) // a wall-clock send takes no quantum
	}
	w.Ctl.NotePoll(got)
}
