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

// simMPIRun is the run state of the simulated mpi-ws baseline.
type simMPIRun struct {
	cfg Config
	cs  costs
	pes []*simMPIPE
}

// simMPIPE is one simulated MPI rank: the host (core.MsgHost) of the rank
// in virtual time. The rank's step function is the PE's whole body — one
// stepped advance from spawn to finish, run inside the dispatcher with no
// coroutine of its own; what its quanta cost is written here.
type simMPIPE struct {
	simPE
	r     *simMPIRun
	rank  core.MsgRank
	inbox []simMsg
	rx    msg.Message // what the last Recv took

	// The message Send staged against the current quantum, and its rank.
	out simMsg
	to  int
}

func simMPIWS(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, ps *policy.Set, log *sourceLog, finish func(*Proc)) {
	r := &simMPIRun{cfg: cfg, cs: cs}
	r.pes = make([]*simMPIPE, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		pe := &simMPIPE{simPE: newSimPE(sp, cfg, res, ps, i), r: r}
		pe.rank = core.MsgRank{H: pe, PE: &pe.PE, Rng: pe.rng, Me: i, N: cfg.PEs, Chunk: cfg.Chunk, Poll: cfg.PollInterval}
		r.pes[i] = pe
		if i == 0 {
			pe.Local.Push(uts.Root(sp))
		}
		step := pe.rank.Start()
		if log != nil {
			// A rank is a work source while it would grant a request, and its
			// stack changes inside its step alone: a traced run logs the steps
			// after which that flips, at their instants.
			inner, was := step, false
			step = func() (time.Duration, uint8) {
				d, fl := inner()
				if is := pe.rank.Grantable() > 0; is != was {
					was = is
					log.add(pe.p.Now(), is)
				}
				return d, fl
			}
		}
		pe.spawnStepped(sim, step, pe.deliver, finish)
	}
}

// Send charges the sender the injection overhead, the quantum it returns,
// and stages the message: on its way at that quantum's end, delivered after
// the transfer latency.
func (pe *simMPIPE) Send(to int, m msg.Message) time.Duration {
	adv := pe.charge(pe.r.cs.localRef) // injection overhead
	lat := pe.r.cs.bulk(16 + uts.NodeBytes*stack.NodeCount(m.Chunks))
	m.From = pe.me
	sent := pe.p.Now() + adv
	pe.out, pe.to = simMsg{Message: m, sentAt: sent, arriveAt: sent + lat}, to
	return pe.p.Stage(adv, lat)
}

// deliver is the rank's boundary effect: the message Send staged enters the
// receiver's inbox, sorted by (sentAt, From). Where sends apply in key order
// that is an append; a windowed run applies the sends of one window in any
// order — the insert restores send order. Recv and Sleep gate on arriveAt.
func (pe *simMPIPE) deliver() {
	m, dst := pe.out, pe.r.pes[pe.to]
	pe.out = simMsg{} // the sender must not pin a stolen chunk
	i := len(dst.inbox)
	dst.inbox = append(dst.inbox, simMsg{})
	for i > 0 && (dst.inbox[i-1].sentAt > m.sentAt ||
		(dst.inbox[i-1].sentAt == m.sentAt && dst.inbox[i-1].From > m.From)) {
		dst.inbox[i] = dst.inbox[i-1]
		i--
	}
	dst.inbox[i] = m
	dst.p.Notify(m.arriveAt) // the rank may be asleep, waiting for exactly this
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
// nothing before the earliest message in flight arrives or a delivery brings
// another.
func (pe *simMPIPE) Sleep() time.Duration {
	_, due := pe.oldest()
	return pe.p.StageSleep(pe.charge(pe.r.cs.idlePoll), due)
}

// Explore is one quantum of up to most nodes, node by node at nodeCost,
// after which the controller is fed.
func (pe *simMPIPE) Explore(most int) (time.Duration, bool) {
	d, edge := pe.working(most, 0, pe.r.cs.nodeCost)
	pe.NoteCtl(pe.Now())
	return d, edge == core.Yielded
}

// Iprobe: MPI_Iprobe costs library time on every check.
func (pe *simMPIPE) Iprobe() time.Duration { return pe.charge(pe.r.cs.iprobe) }
