package core

import (
	"runtime"
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// runMPIWS executes the message-passing work-stealing baseline of Section
// 3.2 (after Dinan et al. [2]): stealing is a request/response message
// exchange, working ranks poll for requests at a user-supplied interval,
// and termination uses the Dijkstra token-ring algorithm [9].
func runMPIWS(sp *uts.Spec, opt Options, res *Result) error {
	comm, err := msg.NewComm(opt.Threads, opt.Model)
	if err != nil {
		return err
	}
	eachThread(sp, opt, res, func(me int, pe WallPE) {
		w := &mpiWorker{
			WallPE: pe,
			abort:  opt.abort,
			comm:   comm,
			me:     me,
			n:      opt.Threads,
			k:      opt.Chunk,
			poll:   opt.PollInterval,
			rng:    NewProbeOrder(opt.Seed, me),
		}
		if me == 0 {
			w.Local.Push(uts.Root(sp))
			// Rank 0 owns the initial (conceptually black) token; the
			// first circulated round is never conclusive.
			w.haveToken = true
			w.tokenColor = msg.Black
			w.firstPass = true
		}
		w.main()
	})
	return nil
}

type mpiWorker struct {
	WallPE
	abort *atomic.Bool
	comm  *msg.Comm
	me    int
	n     int
	k     int
	poll  int
	rng   *ProbeOrder

	// Dijkstra token-ring state.
	color       msg.Color // this process's color; black after sending work
	haveToken   bool
	tokenColor  msg.Color
	firstPass   bool
	outstanding bool // a steal request awaits its reply
	terminated  bool
}

// refreshCtl is the rank's NoteCtl point: it also re-reads the adapted
// knobs (chunk size and poll interval), which this worker caches, after
// any window boundary. A no-op for fixed-knob runs.
func (w *mpiWorker) refreshCtl() {
	if w.Ctl == nil {
		return
	}
	w.NoteCtl(w.Now())
	w.k = w.Ctl.Chunk()
	w.poll = w.Ctl.Poll()
}

func (w *mpiWorker) main() {
	w.Start()
	defer w.Stop()
	for !w.terminated {
		if w.Local.Len() > 0 {
			w.work()
		} else {
			w.idle()
		}
	}
}

// work explores nodes, polling the message queue every poll-interval nodes
// — the cost/latency tradeoff the paper's Section 3.2 highlights.
func (w *mpiWorker) work() {
	since, sinceYield := 0, 0
	for !w.terminated && w.Visit() {
		if since++; since >= w.poll {
			since = 0
			w.drain()
		}
		if sinceYield++; sinceYield >= yieldEvery {
			sinceYield = 0
			w.FlushNodes()
			w.refreshCtl()
			if w.abort.Load() {
				w.terminated = true
				return
			}
			runtime.Gosched()
		}
	}
	w.FlushNodes()
	w.drain()
}

// drain handles every pending message. Each call counts as one poll for
// the adaptive controller, which tunes the poll interval from the
// hit rate (messages handled per poll).
func (w *mpiWorker) drain() {
	got := 0
	for {
		m, ok := w.comm.Recv(w.me)
		if !ok {
			break
		}
		got++
		w.handle(m)
	}
	if w.Ctl != nil {
		w.Ctl.NotePoll(got)
	}
}

// handle processes one message.
func (w *mpiWorker) handle(m msg.Message) {
	switch m.Tag {
	case msg.TagStealRequest:
		w.T.Requests++
		if w.Local.Len() >= 2*w.k {
			chunk := w.Local.TakeBottom(w.k)
			w.color = msg.Black // work moved: taint this round
			w.T.Releases++
			w.Lane.Rec(obs.KindStealGrant, int32(m.From), 1)
			w.comm.Send(w.me, m.From, msg.Message{Tag: msg.TagWork, Chunks: []stack.Chunk{chunk}})
		} else {
			if w.Ctl != nil && w.Local.Len() > 0 {
				// Denied while holding work: victim-side evidence that the
				// release threshold (2k) is too high for the current load.
				w.Ctl.NoteDenied()
			}
			w.Lane.Rec(obs.KindStealDeny, int32(m.From), 0)
			w.comm.Send(w.me, m.From, msg.Message{Tag: msg.TagNoWork})
		}
	case msg.TagWork:
		w.outstanding = false
		w.T.Steals++
		w.T.ChunksGot += int64(len(m.Chunks))
		total := 0
		for _, c := range m.Chunks {
			total += len(c)
			w.Local.PushAll(c)
		}
		w.Stolen = total
		w.StealEnd(true, w.Now())
		w.Lane.Rec(obs.KindChunkTransfer, int32(m.From), int64(total))
	case msg.TagNoWork:
		w.outstanding = false
		w.T.FailedSteals++
		w.StealEnd(false, w.Now())
		w.Lane.Rec(obs.KindStealFail, int32(m.From), 0)
	case msg.TagToken:
		w.haveToken = true
		w.tokenColor = m.Color
	case msg.TagTerminate:
		w.terminated = true
	}
}

// idle is the searching/termination state: issue steal requests, answer
// other ranks' messages, and take part in token circulation. A rank passes
// the token only when passive — stack empty, no outstanding request, and
// inbox drained — which, with instantaneous message enqueue, is what makes
// the white-round conclusion sound.
func (w *mpiWorker) idle() {
	w.SetState(stats.Searching)
	defer w.SetState(stats.Working)
	for w.Local.Len() == 0 && !w.terminated {
		if m, ok := w.comm.Recv(w.me); ok {
			w.handle(m)
			continue
		}
		if w.n == 1 {
			w.terminated = true
			return
		}
		// Inbox empty here: safe to pass the token if we are passive.
		if w.haveToken && !w.outstanding {
			w.passToken()
			continue
		}
		if w.abort.Load() {
			w.terminated = true
			return
		}
		if !w.outstanding {
			v := w.rng.Victim(w.me, w.n)
			w.T.Probes++
			w.StealBegin(w.Now())
			w.Lane.Rec(obs.KindStealRequest, int32(v), 0)
			w.comm.Send(w.me, v, msg.Message{Tag: msg.TagStealRequest})
			w.outstanding = true
			continue
		}
		w.refreshCtl()
		runtime.Gosched()
	}
}

// passToken applies the Dijkstra rules. Rank 0 judges the completed round
// and either announces termination or recirculates a white token; other
// ranks taint the token if they are black and whiten themselves after
// passing.
func (w *mpiWorker) passToken() {
	w.haveToken = false
	if w.me == 0 {
		if !w.firstPass && w.tokenColor == msg.White && w.color == msg.White {
			// A full white round with rank 0 white and passive: no work
			// anywhere. Announce termination to every rank.
			for j := 1; j < w.n; j++ {
				w.comm.Send(w.me, j, msg.Message{Tag: msg.TagTerminate})
			}
			w.terminated = true
			return
		}
		w.firstPass = false
		w.color = msg.White
		w.comm.Send(w.me, 1%w.n, msg.Message{Tag: msg.TagToken, Color: msg.White})
		return
	}
	c := w.tokenColor
	if w.color == msg.Black {
		c = msg.Black
	}
	w.color = msg.White
	w.comm.Send(w.me, (w.me+1)%w.n, msg.Message{Tag: msg.TagToken, Color: c})
}
