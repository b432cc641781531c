package core

import (
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
		w := &mpiWorker{WallPE: pe, comm: comm, me: me}
		w.rank = MsgRank{H: w, PE: &w.PE, Rng: NewProbeOrder(opt.Seed, me), Me: me, N: opt.Threads, Chunk: opt.Chunk, Poll: opt.PollInterval}
		if me == 0 {
			w.Local.Push(uts.Root(sp))
		}
		w.Start()
		defer w.Stop()
		w.Steps(w.rank.Start())
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
// clock, where a quantum of exploring is WallPE.Explore and a look at the
// queue costs nothing more than the Recv.
type mpiWorker struct {
	WallPE
	rank MsgRank
	comm transport
	me   int
	rx   msg.Message // what the last Recv took
	_    [16]byte    // whole cache lines (TestStackStructsPadded)
}

func (w *mpiWorker) Send(to int, m msg.Message) time.Duration {
	w.comm.Send(w.me, to, m)
	return 0
}
func (w *mpiWorker) Sleep() time.Duration  { return 0 }
func (w *mpiWorker) Iprobe() time.Duration { return 0 }

func (w *mpiWorker) Recv() *msg.Message {
	m, ok := w.comm.Recv(w.me)
	if !ok {
		return nil
	}
	w.rx = m
	return &w.rx
}
