package des

import (
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/policy"
	"repro/internal/stack"
	"repro/internal/uts"
)

// simMsg is one in-flight message: visible to the receiver once virtual
// time reaches arriveAt. The inbox is kept sorted by (sentAt, From) — the
// order in which a sequential engine executes the sends — so the sharded
// engine, whose deliveries apply at the arrival instant rather than the
// send instant, reconstructs exactly the sequential receive order.
type simMsg struct {
	msg.Message
	arriveAt time.Duration
	sentAt   time.Duration
}

// opMPIDeliver is the protocol's single remote operation: insert a message
// into rank dst's inbox. a packs (from, tag, color), b is the send-complete
// stamp; the arrival stamp is recomputed from the payload size, and
// visibility is gated on it by recv/hasArrived — the contract RemoteSend
// requires of delayed effects.
const opMPIDeliver uint8 = 0

func (r *simMPIRun) apply(dst int, op uint8, a, b int64, chunks []stack.Chunk) int64 {
	pe := r.pes[dst]
	size := 16 + core.NodeBytes*stack.NodeCount(chunks)
	m := simMsg{
		Message: msg.Message{
			From:   int(a & 0xffffffff),
			Tag:    msg.Tag((a >> 32) & 0xff),
			Chunks: chunks,
			Color:  msg.Color((a >> 40) & 0xff),
		},
		sentAt:   time.Duration(b),
		arriveAt: time.Duration(b) + r.cs.bulk(size),
	}
	// Sorted insert by (sentAt, From). Under the sequential engines sends
	// apply in exactly that order, so this is an append; under the sharded
	// engine a small message can be delivered before an earlier-sent bulky
	// one, and the insert restores send order.
	i := len(pe.inbox)
	pe.inbox = append(pe.inbox, simMsg{})
	for i > 0 && (pe.inbox[i-1].sentAt > m.sentAt ||
		(pe.inbox[i-1].sentAt == m.sentAt && pe.inbox[i-1].From > m.From)) {
		pe.inbox[i] = pe.inbox[i-1]
		i--
	}
	pe.inbox[i] = m
	return 0
}

// simMPIRun is the run state of the simulated mpi-ws baseline.
type simMPIRun struct {
	cfg Config
	cs  costs
	pes []*simMPIPE
}

// simMPIPE is one simulated MPI rank: the host (core.MsgHost) of the rank
// in virtual time.
type simMPIPE struct {
	simPE
	r     *simMPIRun
	rank  core.MsgRank
	inbox []simMsg
	wait  Stepper // Wait's stepped advance, built once
}

func simMPIWS(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, ps *policy.Set, finish func(*Proc)) sampler {
	r := &simMPIRun{cfg: cfg, cs: cs}
	sim.SetRemote(r.apply)
	r.pes = make([]*simMPIPE, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		pe := &simMPIPE{simPE: newSimPE(sp, cfg, res, ps, i), r: r}
		pe.rank = core.MsgRank{H: pe, PE: &pe.PE, Rng: pe.rng, Me: i, N: cfg.PEs, Chunk: cfg.Chunk}
		pe.wait = func() (time.Duration, uint8) {
			if pe.hasArrived() {
				return 0, StepDone
			}
			return pe.charge(cs.idlePoll), 0
		}
		r.pes[i] = pe
		if i == 0 {
			pe.Local.Push(uts.Root(sp))
		}
		pe.spawn(sim, pe.rank.Run, finish)
	}
	return func() (sources int) {
		for _, pe := range r.pes {
			// An MPI rank is a work source when it would grant a request.
			if pe.rank.Grantable() > 0 {
				sources++
			}
		}
		return
	}
}

// Send charges the sender the injection overhead and delivers the message
// after the transfer latency.
func (pe *simMPIPE) Send(to int, m msg.Message) {
	size := 16 + core.NodeBytes*stack.NodeCount(m.Chunks)
	adv := pe.charge(pe.r.cs.localRef) // injection overhead
	a := int64(uint32(pe.me)) | int64(m.Tag)<<32 | int64(m.Color)<<40
	b := int64(pe.p.Now() + adv)
	pe.p.RemoteSend(to, adv, pe.r.cs.bulk(size), opMPIDeliver, a, b, m.Chunks)
}

// Recv returns the oldest message that has arrived by now.
func (pe *simMPIPE) Recv() (msg.Message, bool) {
	now := pe.p.Now()
	for i, m := range pe.inbox {
		if m.arriveAt <= now {
			pe.inbox = append(pe.inbox[:i], pe.inbox[i+1:]...)
			return m.Message, true
		}
	}
	return msg.Message{}, false
}

// hasArrived reports whether any inbox message is visible at the current
// instant, without consuming it — the step-function form of a failed recv.
func (pe *simMPIPE) hasArrived() bool {
	now := pe.p.Now()
	for _, m := range pe.inbox {
		if m.arriveAt <= now {
			return true
		}
	}
	return false
}

// Wait for a response or the token is a stepped advance: one idle-poll
// quantum per check, committed inline until a message arrival event lands
// in the window.
func (pe *simMPIPE) Wait() { pe.p.AdvanceStepped(pe.wait) }

// Work explores nodes as one stepped advance: each cycle is a quantum of
// up to PollInterval nodes followed by a quantum for the MPI_Iprobe check,
// all committed inline while no message event intervenes. The advance
// ends when a message has arrived (handled on the rank's own goroutine,
// because replies send) or when the stack drains after its trailing probe.
func (pe *simMPIPE) Work() {
	cs := &pe.r.cs
	rank := &pe.rank
	poll := pe.Poll(pe.r.cfg.PollInterval)
	pending := 0
	const (
		wExplore = iota
		wIprobe
		wEval
	)
	ph := wExplore
	atPoll := false // this cycle's iprobe is the in-loop drain at since>=poll
	done := false
	step := func() (time.Duration, uint8) {
		switch ph {
		case wExplore:
			atPoll = false
			for !rank.Terminated() && pe.Visit() {
				pending++
				if pending >= poll {
					atPoll = true
					break
				}
			}
			d := time.Duration(pending) * cs.nodeCost
			pending = 0
			pe.FlushNodes()
			pe.NoteCtl(pe.Now())
			poll = pe.Poll(pe.r.cfg.PollInterval)
			ph = wIprobe
			return pe.charge(d), 0
		case wIprobe:
			// MPI_Iprobe costs library time on every check.
			ph = wEval
			return pe.charge(cs.iprobe), 0
		default: // wEval
			if pe.hasArrived() {
				return 0, StepDone
			}
			if pe.Ctl != nil {
				pe.Ctl.NotePoll(0) // an iprobe that found nothing
			}
			if atPoll && pe.Local.Len() > 0 && !rank.Terminated() {
				ph = wExplore
				return 0, 0
			}
			if atPoll {
				// The loop exits here; the trailing flush is empty, but its
				// drain still pays one more iprobe.
				atPoll = false
				ph = wIprobe
				return 0, 0
			}
			done = true
			return 0, StepDone
		}
	}
	for {
		pe.p.AdvanceStepped(step)
		if done {
			return
		}
		// A message arrived: consume it and keep draining exactly as the
		// original loop — one iprobe charge per further check.
		m, _ := pe.Recv()
		rank.Handle(m)
		got := 1
		for {
			pe.advance(cs.iprobe)
			m, ok := pe.Recv()
			if !ok {
				break
			}
			got++
			rank.Handle(m)
		}
		if pe.Ctl != nil {
			pe.Ctl.NotePoll(got)
		}
		if !atPoll {
			// The drain that saw the message was the trailing one.
			return
		}
		if pe.Local.Len() > 0 && !rank.Terminated() {
			ph = wExplore
			continue
		}
		// Stack drained (or terminated) at an in-loop poll: run the
		// trailing drain's iprobe before returning.
		atPoll = false
		ph = wIprobe
	}
}
