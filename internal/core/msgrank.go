package core

import (
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/stats"
)

// This file is the single definition of the message-passing work-stealing
// baseline of Section 3.2 (after Dinan et al. [2]): stealing is a
// request/response message exchange, a working rank polls for requests at a
// user-supplied interval, and termination is detected with the Dijkstra
// token ring [9]. The substrates differ in how a message travels, in how a
// beat of waiting passes and in what a quantum of exploring and a look at
// the queue cost; all of it sits behind MsgHost. The body is the
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

	// Send posts m to rank to; the transport fills in From. It returns the
	// quantum the sender's cost takes, which the calling step must return:
	// the message is on its way at that quantum's end (at once when it is
	// 0), and a step sends at most once.
	Send(to int, m msg.Message) time.Duration
	// Recv takes the oldest message visible to this rank now: a message the
	// host keeps until its next Recv, nil with none.
	Recv() *msg.Message
	// Sleep is the beat of waiting with nothing visible to Recv: the
	// quantum the rank's step returns with StepSleep.
	Sleep() time.Duration
	// Explore is one quantum of exploring, at most most nodes off the local
	// stack, and whether it stopped at most (more); false once the stack
	// is empty. It feeds the controller at the host's Working cadence: at
	// each yield on the wall clock, where that reads the clock, at the
	// quantum's end in the simulator.
	Explore(most int) (d time.Duration, more bool)
	// Iprobe is the quantum one look at the message queue costs.
	Iprobe() time.Duration
}

// MsgRank is one rank's work-or-idle loop and its half of the token ring, as
// a step function (Start): one action per call, its duration returned
// instead of slept, the form Machine.search has. The simulator's dispatcher
// runs it inline; a wall-clock host runs it with WallPE.Steps. The rank has
// no service points: it looks at its queue in its own poll cycle, so every
// quantum but the idle beat is StepNoPoll. A rank ends only at the
// termination the token ring detects: both of its substrates run every
// rank to the end, and the cluster, the one that gives a run up, runs the
// one-sided protocol instead.
type MsgRank struct {
	H     MsgHost
	PE    *PE // the host's shell
	Rng   *ProbeOrder
	Me, N int // this rank, all ranks
	Chunk int // the fixed steal granularity k (PE.Ctl.Chunk adapts it)
	Poll  int // the fixed poll interval in nodes (PE.Ctl.Poll adapts it)

	phase  uint8 // rankTurn … rankIdle
	waited bool  // idle has slept since a Recv last found a message
	atPoll bool  // the last explore quantum reached the interval
	bcast  int   // rank 0 announcing termination: the next rank to tell, else 0
	got    int   // messages the current drain has handled

	// Dijkstra token-ring state.
	color       msg.Color // this rank's color; black after sending work
	haveToken   bool
	tokenColor  msg.Color
	firstPass   bool
	outstanding bool // a steal request awaits its reply
	terminated  bool
}

// Phases of the rank's step. Working is the poll cycle of Section 3.2: a
// quantum of up to poll nodes, one look at the queue (MPI_Iprobe), and the
// evaluation of what it found — a message is handled and costs one more
// look; the drain ends at the first look that finds nothing. An explore or
// a look whose quantum is 0 falls through to the next phase in the same
// call: neither stages anything, so an engine that would have called the
// step again at once sees the same schedule, and on the wall clock, where
// every quantum is 0, a cycle is one call.
const (
	rankTurn    = iota // between phases: work if there is any, else search
	rankExplore        // a quantum of exploring
	rankIprobe         // a look at the queue
	rankEval           // what the look found
	rankIdle           // searching: requests, replies and the token
)

// Start returns the rank's step function. The PE starts in the Working
// state, the root on rank 0's stack; the step ends (StepDone) when the rank
// has seen the run terminate.
func (r *MsgRank) Start() Stepper {
	if r.Me == 0 {
		// Rank 0 owns the initial (conceptually black) token; the first
		// circulated round is never conclusive.
		r.haveToken = true
		r.tokenColor = msg.Black
		r.firstPass = true
	}
	return r.step
}

func (r *MsgRank) step() (time.Duration, uint8) {
	h, pe := r.H, r.PE
	switch r.phase {
	case rankTurn:
		if r.terminated {
			return 0, StepDone
		}
		if pe.Local.Len() > 0 {
			r.phase = rankExplore
		} else {
			h.SetState(stats.Searching)
			r.phase = rankIdle
		}
		return 0, StepNoPoll
	case rankExplore:
		// The interval is read afresh for every quantum: the controller
		// changes it only where it is fed, inside Explore.
		d, more := h.Explore(pe.Ctl.Poll(r.Poll))
		r.atPoll = more
		r.phase = rankIprobe
		if d > 0 {
			return d, StepNoPoll
		}
		fallthrough
	case rankIprobe:
		r.phase = rankEval
		if d := h.Iprobe(); d > 0 {
			return d, StepNoPoll
		}
		fallthrough
	case rankEval:
		return r.eval(), StepNoPoll
	}
	return r.idle()
}

// eval handles the message the last look found, or ends the drain: the
// looks of one drain are one poll for the controller, which tunes the
// interval from the hit rate. After a quantum that reached the interval the
// rank explores on, or — the stack drained, or the run over — takes one
// trailing look before it leaves the cycle.
func (r *MsgRank) eval() time.Duration {
	h, pe := r.H, r.PE
	if m := h.Recv(); m != nil {
		r.got++
		r.phase = rankIprobe
		return r.handle(m)
	}
	pe.Ctl.NotePoll(r.got)
	r.got = 0
	switch {
	case r.atPoll && pe.Local.Len() > 0 && !r.terminated:
		r.phase = rankExplore
	case r.atPoll:
		r.atPoll = false
		r.phase = rankIprobe
	default:
		r.phase = rankTurn
	}
	return 0
}

// Grantable is the surplus rule: a steal request is granted k nodes while
// the stack holds at least 2k. It returns that k, or 0 for a denial.
func (r *MsgRank) Grantable() int {
	if k := r.PE.Ctl.Chunk(r.Chunk); r.PE.Local.Len() >= 2*k {
		return k
	}
	return 0
}

// handle processes one message and returns the quantum of the reply it
// sent, 0 if it sent none.
func (r *MsgRank) handle(m *msg.Message) time.Duration {
	h, pe := r.H, r.PE
	switch m.Tag {
	case msg.TagStealRequest:
		if k := r.Grantable(); k > 0 {
			chunk := pe.Release(k)
			r.color = msg.Black // work moved: taint this round
			pe.T.Releases++
			pe.Granted(m.From, 1)
			return h.Send(m.From, msg.Message{Tag: msg.TagWork, Chunks: []stack.Chunk{chunk}})
		}
		pe.Denied(m.From)
		return h.Send(m.From, msg.Message{Tag: msg.TagNoWork})
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
	return 0
}

// idle is one action of the searching/termination state: answer a message,
// pass the token, issue a steal request, or let a beat pass. A rank passes
// the token only when passive — stack empty, no outstanding request, and
// nothing visible in the inbox — which is what makes the white-round
// conclusion sound. The beat is a sleep: while a request is outstanding
// nothing but a delivery changes what the next call sees. The controller is
// fed once per completed wait, when a Recv succeeds after it, not once per
// beat — an engine that steps every poll and one that counts them must close
// the same adaptation windows.
func (r *MsgRank) idle() (time.Duration, uint8) {
	h, pe := r.H, r.PE
	switch {
	case r.bcast > 0:
		return r.announce(), StepNoPoll
	case pe.Local.Len() > 0 || r.terminated:
		return r.leaveIdle()
	}
	if m := h.Recv(); m != nil {
		if r.waited {
			r.waited = false
			pe.NoteCtl(h.Now())
		}
		return r.handle(m), StepNoPoll
	}
	switch {
	case r.N == 1:
		r.terminated = true
		return r.leaveIdle()
	case r.haveToken && !r.outstanding:
		return r.passToken(), StepNoPoll
	case !r.outstanding:
		v := r.Rng.Victim(r.Me, r.N)
		pe.T.Probes++
		pe.StealBegin(h.Now())
		h.Rec(obs.KindStealRequest, int32(v), 0)
		r.outstanding = true
		return h.Send(v, msg.Message{Tag: msg.TagStealRequest}), StepNoPoll
	}
	r.waited = true
	return h.Sleep(), StepSleep
}

func (r *MsgRank) leaveIdle() (time.Duration, uint8) {
	r.H.SetState(stats.Working)
	r.phase = rankTurn
	return 0, StepNoPoll
}

// passToken applies the Dijkstra rules. Rank 0 judges the completed round
// and either starts announcing termination or recirculates a white token;
// other ranks taint the token if they are black and whiten themselves after
// passing.
func (r *MsgRank) passToken() time.Duration {
	h := r.H
	r.haveToken = false
	if r.Me == 0 {
		if !r.firstPass && r.tokenColor == msg.White && r.color == msg.White {
			// A full white round with rank 0 white and passive: no work
			// anywhere.
			r.bcast = 1
			return r.announce()
		}
		r.firstPass = false
		r.color = msg.White
		return h.Send(1%r.N, msg.Message{Tag: msg.TagToken, Color: msg.White})
	}
	c := r.tokenColor
	if r.color == msg.Black {
		c = msg.Black
	}
	r.color = msg.White
	return h.Send((r.Me+1)%r.N, msg.Message{Tag: msg.TagToken, Color: c})
}

// announce tells the next rank that the run is over: rank 0's broadcast is
// N−1 sends, one per call, and the rank has terminated with the last.
func (r *MsgRank) announce() time.Duration {
	d := r.H.Send(r.bcast, msg.Message{Tag: msg.TagTerminate})
	if r.bcast++; r.bcast == r.N {
		r.bcast = 0
		r.terminated = true
	}
	return d
}
