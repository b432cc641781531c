package des

import (
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// simMsg is one in-flight message: visible to the receiver once virtual
// time reaches arriveAt. The inbox is kept sorted by (sentAt, from) — the
// order in which a sequential engine executes the sends — so the sharded
// engine, whose deliveries apply at the arrival instant rather than the
// send instant, reconstructs exactly the sequential receive order.
type simMsg struct {
	arriveAt time.Duration
	sentAt   time.Duration
	from     int
	tag      msg.Tag
	chunks   []stack.Chunk
	color    msg.Color
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
		sentAt:   time.Duration(b),
		arriveAt: time.Duration(b) + r.cs.bulk(size),
		from:     int(a & 0xffffffff),
		tag:      msg.Tag((a >> 32) & 0xff),
		chunks:   chunks,
		color:    msg.Color((a >> 40) & 0xff),
	}
	// Sorted insert by (sentAt, from). Under the sequential engines sends
	// apply in exactly that order, so this is an append; under the sharded
	// engine a small message can be delivered before an earlier-sent bulky
	// one, and the insert restores send order.
	i := len(pe.inbox)
	pe.inbox = append(pe.inbox, simMsg{})
	for i > 0 && (pe.inbox[i-1].sentAt > m.sentAt ||
		(pe.inbox[i-1].sentAt == m.sentAt && pe.inbox[i-1].from > m.from)) {
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

// simMPIPE is one simulated MPI rank.
type simMPIPE struct {
	simPE
	r     *simMPIRun
	inbox []simMsg

	color       msg.Color
	haveToken   bool
	tokenColor  msg.Color
	firstPass   bool
	outstanding bool
	terminated  bool
}

// pollIntv returns the poll interval in effect.
func (pe *simMPIPE) pollIntv() int {
	if pe.Ctl != nil {
		return pe.Ctl.Poll()
	}
	return pe.r.cfg.PollInterval
}

func simMPIWS(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, ps *policy.Set, finish func(*Proc)) sampler {
	r := &simMPIRun{cfg: cfg, cs: cs}
	sim.SetRemote(r.apply)
	r.pes = make([]*simMPIPE, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		pe := &simMPIPE{simPE: newSimPE(sp, cfg, res, ps, i), r: r}
		r.pes[i] = pe
		if i == 0 {
			pe.Local.Push(uts.Root(sp))
			pe.haveToken = true
			pe.tokenColor = msg.Black
			pe.firstPass = true
		}
		pe.spawn(sim, pe.main, finish)
	}
	return func() (sources, working int) {
		for _, pe := range r.pes {
			// An MPI rank is a work source when it has enough stack to
			// satisfy a request (the 2k surplus rule of handle()).
			if pe.Local.Len() >= 2*r.cfg.Chunk {
				sources++
			}
			if pe.Local.Len() > 0 {
				working++
			}
		}
		return
	}
}

// send charges the sender the injection overhead and delivers the message
// after the transfer latency.
func (pe *simMPIPE) send(to int, tag msg.Tag, chunks []stack.Chunk, color msg.Color) {
	size := 16 + core.NodeBytes*stack.NodeCount(chunks)
	adv := pe.r.cs.localRef // injection overhead
	pe.T.AddState(pe.state, adv)
	a := int64(uint32(pe.me)) | int64(tag)<<32 | int64(color)<<40
	b := int64(pe.p.Now() + adv)
	pe.p.RemoteSend(to, adv, pe.r.cs.bulk(size), opMPIDeliver, a, b, chunks)
}

// recv returns the oldest message that has arrived by now.
func (pe *simMPIPE) recv() (simMsg, bool) {
	now := pe.p.Now()
	for i, m := range pe.inbox {
		if m.arriveAt <= now {
			pe.inbox = append(pe.inbox[:i], pe.inbox[i+1:]...)
			return m, true
		}
	}
	return simMsg{}, false
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

func (pe *simMPIPE) main() {
	for !pe.terminated {
		if pe.Local.Len() > 0 {
			pe.work()
		} else {
			pe.idle()
		}
	}
}

// work explores nodes as one stepped advance: each cycle is a quantum of
// up to PollInterval nodes followed by a quantum for the MPI_Iprobe check,
// all committed inline while no message event intervenes. The advance
// ends when a message has arrived (handled on the rank's own goroutine,
// because replies send) or when the stack drains after its trailing probe.
func (pe *simMPIPE) work() {
	cs := &pe.r.cs
	poll := pe.pollIntv()
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
			for !pe.terminated && pe.Visit() {
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
			poll = pe.pollIntv()
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
			if atPoll && pe.Local.Len() > 0 && !pe.terminated {
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
		m, _ := pe.recv()
		pe.handle(m)
		got := 1
		for {
			pe.advance(cs.iprobe)
			m, ok := pe.recv()
			if !ok {
				break
			}
			got++
			pe.handle(m)
		}
		if pe.Ctl != nil {
			pe.Ctl.NotePoll(got)
		}
		if !atPoll {
			// The drain that saw the message was the trailing one.
			return
		}
		if pe.Local.Len() > 0 && !pe.terminated {
			ph = wExplore
			continue
		}
		// Stack drained (or terminated) at an in-loop poll: run the
		// trailing drain's iprobe before returning.
		atPoll = false
		ph = wIprobe
	}
}

func (pe *simMPIPE) handle(m simMsg) {
	switch m.tag {
	case msg.TagStealRequest:
		pe.T.Requests++
		k := pe.Chunk(pe.r.cfg.Chunk)
		if pe.Local.Len() >= 2*k {
			chunk := pe.Local.TakeBottom(k)
			pe.color = msg.Black
			pe.T.Releases++
			pe.Rec(obs.KindStealGrant, int32(m.from), 1)
			pe.send(m.from, msg.TagWork, []stack.Chunk{chunk}, 0)
		} else {
			if pe.Ctl != nil && pe.Local.Len() > 0 {
				// Denied while holding work: victim-side evidence that the
				// 2k grant threshold is withholding work from demand.
				pe.Ctl.NoteDenied()
			}
			pe.Rec(obs.KindStealDeny, int32(m.from), 0)
			pe.send(m.from, msg.TagNoWork, nil, 0)
		}
	case msg.TagWork:
		pe.outstanding = false
		pe.T.Steals++
		pe.T.ChunksGot += int64(len(m.chunks))
		total := 0
		for _, c := range m.chunks {
			total += len(c)
			pe.Local.PushAll(c)
		}
		pe.Stolen = total
		pe.StealEnd(true, pe.Now())
		pe.Rec(obs.KindChunkTransfer, int32(m.from), int64(total))
	case msg.TagNoWork:
		pe.outstanding = false
		pe.T.FailedSteals++
		pe.StealEnd(false, pe.Now())
		pe.Rec(obs.KindStealFail, int32(m.from), 0)
	case msg.TagToken:
		pe.haveToken = true
		pe.tokenColor = m.color
	case msg.TagTerminate:
		pe.terminated = true
	}
}

func (pe *simMPIPE) idle() {
	pe.SetState(stats.Searching)
	defer pe.SetState(stats.Working)
	// The wait for a response or the token is a stepped advance: one
	// idle-poll quantum per check, committed inline until a message
	// arrival event lands in the window.
	wait := func() (time.Duration, uint8) {
		if pe.hasArrived() {
			return 0, StepDone
		}
		return pe.charge(pe.r.cs.idlePoll), 0
	}
	for pe.Local.Len() == 0 && !pe.terminated {
		if m, ok := pe.recv(); ok {
			pe.handle(m)
			continue
		}
		if len(pe.r.pes) == 1 {
			pe.terminated = true
			return
		}
		// Passive here: no work, nothing visible in the inbox.
		if pe.haveToken && !pe.outstanding {
			pe.passToken()
			continue
		}
		if !pe.outstanding {
			v := pe.rng.Victim(pe.me, len(pe.r.pes))
			pe.T.Probes++
			pe.StealBegin(pe.Now())
			pe.Rec(obs.KindStealRequest, int32(v), 0)
			pe.send(v, msg.TagStealRequest, nil, 0)
			pe.outstanding = true
			continue
		}
		pe.p.AdvanceStepped(wait)
		pe.NoteCtl(pe.Now())
	}
}

func (pe *simMPIPE) passToken() {
	pe.haveToken = false
	n := len(pe.r.pes)
	if pe.me == 0 {
		if !pe.firstPass && pe.tokenColor == msg.White && pe.color == msg.White {
			for j := 1; j < n; j++ {
				pe.send(j, msg.TagTerminate, nil, 0)
			}
			pe.terminated = true
			return
		}
		pe.firstPass = false
		pe.color = msg.White
		pe.send(1%n, msg.TagToken, nil, msg.White)
		return
	}
	c := pe.tokenColor
	if pe.color == msg.Black {
		c = msg.Black
	}
	pe.color = msg.White
	pe.send((pe.me+1)%n, msg.TagToken, nil, c)
}
