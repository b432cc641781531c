package core

import (
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/stats"
)

// This file is the single definition of the message-passing work-stealing
// baseline of Section 3.2 (after Dinan et al. [2]): stealing is a
// request/response message exchange, a working rank polls for requests at a
// user-supplied interval, and termination is detected with the Dijkstra
// token ring [9]. The substrates differ in how a message travels and in how
// a beat of waiting passes; both sit behind MsgHost. The body is the
// simulator's, the stricter of the two it replaced: a trace event precedes
// the send it describes, and the controller is fed after a wait, not
// before.

// MsgHost is what the rank needs of the PE it drives. A scheduler gets the
// clock third by embedding WallPE or the simulator's shell and writes the
// transport.
type MsgHost interface {
	// Clock: as in Host.
	SetState(s stats.State)
	Rec(k obs.Kind, other int32, value int64)
	Now() int64

	// Send posts m to rank to and returns once the sender's cost is paid;
	// the transport fills in From.
	Send(to int, m msg.Message)
	// Recv takes the oldest message visible to this rank now, if any.
	Recv() (msg.Message, bool)
	// Wait lets one beat pass with nothing visible to Recv.
	Wait()
	// Work explores until the local stack is empty or the rank has
	// terminated, passing every message it polls to Handle.
	Work()
	// Stopped reports an abandoned run; the rank returns at its next check.
	Stopped() bool
}

// MsgRank is one rank's work-or-idle loop and its half of the token ring.
type MsgRank struct {
	H     MsgHost
	PE    *PE // the host's shell
	Rng   *ProbeOrder
	Me, N int // this rank, all ranks
	Chunk int // the fixed steal granularity k (PE.Chunk adapts it)

	// Dijkstra token-ring state.
	color       msg.Color // this rank's color; black after sending work
	haveToken   bool
	tokenColor  msg.Color
	firstPass   bool
	outstanding bool // a steal request awaits its reply
	terminated  bool
}

// Run is the rank's main loop. The PE starts in the Working state, the root
// on rank 0's stack.
func (r *MsgRank) Run() {
	if r.Me == 0 {
		// Rank 0 owns the initial (conceptually black) token; the first
		// circulated round is never conclusive.
		r.haveToken = true
		r.tokenColor = msg.Black
		r.firstPass = true
	}
	for !r.terminated && !r.H.Stopped() {
		if r.PE.Local.Len() > 0 {
			r.H.Work()
		} else {
			r.idle()
		}
	}
}

// Terminated reports that the rank has seen the run end; the host's Work
// loop stops exploring at it.
func (r *MsgRank) Terminated() bool { return r.terminated }

// Grantable is the surplus rule: a steal request is granted k nodes while
// the stack holds at least 2k. It returns that k, or 0 for a denial.
func (r *MsgRank) Grantable() int {
	if k := r.PE.Chunk(r.Chunk); r.PE.Local.Len() >= 2*k {
		return k
	}
	return 0
}

// Handle processes one message.
func (r *MsgRank) Handle(m msg.Message) {
	h, pe := r.H, r.PE
	switch m.Tag {
	case msg.TagStealRequest:
		if k := r.Grantable(); k > 0 {
			chunk := pe.Local.TakeBottom(k)
			r.color = msg.Black // work moved: taint this round
			pe.T.Releases++
			pe.Granted(m.From, 1)
			h.Send(m.From, msg.Message{Tag: msg.TagWork, Chunks: []stack.Chunk{chunk}})
		} else {
			pe.Denied(m.From)
			h.Send(m.From, msg.Message{Tag: msg.TagNoWork})
		}
	case msg.TagWork:
		r.outstanding = false
		for _, c := range pe.Landed(m.From, m.Chunks) {
			pe.Local.PushAll(c)
		}
		pe.StealEnd(true, h.Now())
	case msg.TagNoWork:
		r.outstanding = false
		pe.T.FailedSteals++
		pe.StealEnd(false, h.Now())
		h.Rec(obs.KindStealFail, int32(m.From), 0)
	case msg.TagToken:
		r.haveToken = true
		r.tokenColor = m.Color
	case msg.TagTerminate:
		r.terminated = true
	}
}

// idle is the searching/termination state: issue steal requests, answer
// other ranks' messages, and take part in token circulation. A rank passes
// the token only when passive — stack empty, no outstanding request, and
// nothing visible in the inbox — which is what makes the white-round
// conclusion sound.
func (r *MsgRank) idle() {
	h, pe := r.H, r.PE
	h.SetState(stats.Searching)
	defer h.SetState(stats.Working)
	for pe.Local.Len() == 0 && !r.terminated {
		if m, ok := h.Recv(); ok {
			r.Handle(m)
			continue
		}
		if r.N == 1 {
			r.terminated = true
			return
		}
		if r.haveToken && !r.outstanding {
			r.passToken()
			continue
		}
		if h.Stopped() {
			return
		}
		if !r.outstanding {
			v := r.Rng.Victim(r.Me, r.N)
			pe.T.Probes++
			pe.StealBegin(h.Now())
			h.Rec(obs.KindStealRequest, int32(v), 0)
			h.Send(v, msg.Message{Tag: msg.TagStealRequest})
			r.outstanding = true
			continue
		}
		h.Wait()
		pe.NoteCtl(h.Now())
	}
}

// passToken applies the Dijkstra rules. Rank 0 judges the completed round
// and either announces termination or recirculates a white token; other
// ranks taint the token if they are black and whiten themselves after
// passing.
func (r *MsgRank) passToken() {
	h := r.H
	r.haveToken = false
	if r.Me == 0 {
		if !r.firstPass && r.tokenColor == msg.White && r.color == msg.White {
			// A full white round with rank 0 white and passive: no work
			// anywhere. Announce termination to every rank.
			for j := 1; j < r.N; j++ {
				h.Send(j, msg.Message{Tag: msg.TagTerminate})
			}
			r.terminated = true
			return
		}
		r.firstPass = false
		r.color = msg.White
		h.Send(1%r.N, msg.Message{Tag: msg.TagToken, Color: msg.White})
		return
	}
	c := r.tokenColor
	if r.color == msg.Black {
		c = msg.Black
	}
	r.color = msg.White
	h.Send((r.Me+1)%r.N, msg.Message{Tag: msg.TagToken, Color: c})
}
