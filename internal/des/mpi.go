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
// order in which the event queue executes the sends — so a windowed run,
// which applies the sends of one window in any order, reconstructs exactly
// the receive order of one that does not.
type simMsg struct {
	msg.Message
	arriveAt time.Duration
	sentAt   time.Duration
}

// opMPIDeliver is the protocol's single remote operation: insert a message
// into rank dst's inbox. a packs (from, tag, color), b is the send-complete
// stamp; the arrival stamp is recomputed from the payload size, and
// visibility is gated on it by Recv — the contract StageSend requires of
// delayed effects.
const opMPIDeliver uint8 = 0

func (r *simMPIRun) apply(dst int, op uint8, a, b int64, chunks []stack.Chunk) int64 {
	pe := r.pes[dst]
	size := 16 + uts.NodeBytes*stack.NodeCount(chunks)
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
	// Sorted insert by (sentAt, From). Where sends apply in key order it is
	// an append; a windowed run applies the sends of one window in any order
	// — the insert restores send order.
	i := len(pe.inbox)
	pe.inbox = append(pe.inbox, simMsg{})
	for i > 0 && (pe.inbox[i-1].sentAt > m.sentAt ||
		(pe.inbox[i-1].sentAt == m.sentAt && pe.inbox[i-1].From > m.From)) {
		pe.inbox[i] = pe.inbox[i-1]
		i--
	}
	pe.inbox[i] = m
	pe.p.Notify(m.arriveAt) // the rank may be asleep, waiting for exactly this
	return 0
}

// simMPIRun is the run state of the simulated mpi-ws baseline.
type simMPIRun struct {
	cfg Config
	cs  costs
	pes []*simMPIPE
}

// simMPIPE is one simulated MPI rank: the host (core.MsgHost) of the rank
// in virtual time. The rank's step function is the PE's whole body — one
// stepped advance from spawn to finish, run inside the dispatcher — and Work
// is the part of it written here.
type simMPIPE struct {
	simPE
	r     *simMPIRun
	rank  core.MsgRank
	inbox []simMsg
	rx    msg.Message // what the last Recv took

	// Work's position in its cycle, between calls.
	ph     uint8
	atPoll bool // this cycle's iprobe is the in-loop drain at since>=poll
	poll   int  // the poll interval in effect
	got    int  // messages the current drain has handled
}

func simMPIWS(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, ps *policy.Set, finish func(*Proc)) sampler {
	r := &simMPIRun{cfg: cfg, cs: cs}
	sim.SetRemote(r.apply)
	r.pes = make([]*simMPIPE, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		pe := &simMPIPE{simPE: newSimPE(sp, cfg, res, ps, i), r: r}
		pe.rank = core.MsgRank{H: pe, PE: &pe.PE, Rng: pe.rng, Me: i, N: cfg.PEs, Chunk: cfg.Chunk}
		r.pes[i] = pe
		if i == 0 {
			pe.Local.Push(uts.Root(sp))
		}
		step := pe.rank.Start()
		pe.spawn(sim, func() { pe.p.AdvanceStepped(step) }, finish)
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

// Send charges the sender the injection overhead, the quantum it returns,
// and stages the message: on its way at that quantum's end, delivered after
// the transfer latency.
func (pe *simMPIPE) Send(to int, m msg.Message) time.Duration {
	size := 16 + uts.NodeBytes*stack.NodeCount(m.Chunks)
	adv := pe.charge(pe.r.cs.localRef) // injection overhead
	a := int64(uint32(pe.me)) | int64(m.Tag)<<32 | int64(m.Color)<<40
	b := int64(pe.p.Now() + adv)
	return pe.p.StageSend(to, adv, pe.r.cs.bulk(size), opMPIDeliver, a, b, m.Chunks)
}

// oldest walks the inbox once: the index of the oldest message that has
// arrived by now, or −1 and the earliest instant one still in flight will
// have (Never with none in flight).
func (pe *simMPIPE) oldest() (i int, due time.Duration) {
	now := pe.p.Now()
	due = Never
	for i := range pe.inbox {
		at := pe.inbox[i].arriveAt
		if at <= now {
			return i, 0
		}
		due = min(due, at)
	}
	return -1, due
}

// Recv takes the oldest message that has arrived by now. It is a rank's
// poll, so the polls the engine counted through a sleep instead of running
// (CountedPolls) are booked here, at the first one it did run.
func (pe *simMPIPE) Recv() *msg.Message {
	if k := pe.p.CountedPolls(); k > 0 {
		pe.charge(time.Duration(k) * pe.r.cs.idlePoll)
	}
	i, _ := pe.oldest()
	if i < 0 {
		return nil
	}
	pe.rx = pe.inbox[i].Message
	last := len(pe.inbox) - 1
	copy(pe.inbox[i:], pe.inbox[i+1:])
	pe.inbox[last] = simMsg{} // the vacated slot must not pin a stolen chunk
	pe.inbox = pe.inbox[:last]
	return &pe.rx
}

// Sleep is one idle poll, and the promise that the polls after it see
// nothing before the earliest message in flight arrives or apply brings
// another.
func (pe *simMPIPE) Sleep() time.Duration {
	_, due := pe.oldest()
	return pe.p.StageSleep(pe.charge(pe.r.cs.idlePoll), due)
}

// Work's phases: the poll interval is read on entry, then each cycle is a
// quantum of up to poll nodes, a quantum for the MPI_Iprobe check, and the
// evaluation of what it found.
const (
	wEnter = iota
	wExplore
	wIprobe
	wEval
)

// Work is one quantum of exploring. A message the iprobe finds is handled
// here, in the step — its reply is a staged send, the quantum returned — and
// costs one more iprobe to look for the next; the cycle ends when the stack
// has drained (or the rank terminated) and the trailing probe found nothing
// more.
func (pe *simMPIPE) Work() (time.Duration, bool) {
	cs := &pe.r.cs
	rank := &pe.rank
	switch pe.ph {
	case wEnter:
		pe.poll = pe.Poll(pe.r.cfg.PollInterval)
		pe.ph = wExplore
		fallthrough
	case wExplore:
		pe.atPoll = false
		pending := 0
		for !rank.Terminated() && pe.Visit(1) == 1 {
			pending++
			if pending >= pe.poll {
				pe.atPoll = true
				break
			}
		}
		pe.FlushNodes()
		pe.NoteCtl(pe.Now())
		pe.poll = pe.Poll(pe.r.cfg.PollInterval)
		pe.ph = wIprobe
		return pe.charge(time.Duration(pending) * cs.nodeCost), false
	case wIprobe:
		// MPI_Iprobe costs library time on every check.
		pe.ph = wEval
		return pe.charge(cs.iprobe), false
	}
	// wEval
	if m := pe.Recv(); m != nil {
		pe.got++
		pe.ph = wIprobe
		return rank.Handle(m), false
	}
	if pe.Ctl != nil {
		pe.Ctl.NotePoll(pe.got) // the iprobes of one drain are one poll
	}
	pe.got = 0
	switch {
	case pe.atPoll && pe.Local.Len() > 0 && !rank.Terminated():
		pe.ph = wExplore
	case pe.atPoll:
		// The loop exits here; the trailing flush is empty, but its drain
		// still pays one more iprobe.
		pe.atPoll = false
		pe.ph = wIprobe
	default:
		pe.ph = wEnter
		return 0, true
	}
	return 0, false
}
