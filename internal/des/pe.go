package des

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/uts"
)

// simPE is the per-PE shell of internal/core on the virtual clock: what
// every simulated PE embeds. Time is charged to the PE's current Figure-1
// state as it is consumed, and trace events (core.PE.Rec through Virt) and
// controller feedback are stamped with Proc.Now, so neither can perturb a
// schedule.
type simPE struct {
	core.PE
	p     *Proc
	me    int
	rng   *core.ProbeOrder
	state stats.State // Working at start, the zero value

	// The quantum the host operation under way waits for (then, Busy), and
	// a lock acquisition's progress through it (acquire).
	busy     bool
	waitFl   uint8
	waitD    time.Duration
	locking  uint8
	queuedAt time.Duration
}

// newSimPE builds PE i's shell for a simulated run; spawnStepped binds p.
func newSimPE(sp *uts.Spec, cfg Config, res *core.Result, ps *policy.Set, i int) simPE {
	return simPE{
		PE:  core.NewPE(sp, &res.Threads[i], cfg.Tracer.Lane(i), ps.Controller(i)),
		me:  i,
		rng: core.NewProbeOrder(cfg.Seed, i),
	}
}

// spawnStepped registers a PE whose whole body is the step function step,
// and binds pe.p at once — in a windowed run another PE can deliver to this
// one before its first step — and with it effect, what the host does at the
// boundary of a quantum it staged (Proc.Stage): it enters the Working state
// at spawn, the instant 0 its first step runs at, and finish runs at the
// boundary that ends the advance.
func (pe *simPE) spawnStepped(sim *Sim, step core.Stepper, effect func(), finish func(*Proc)) {
	pe.p = sim.spawnStepped(step, finish)
	pe.p.effect = effect
	pe.Virt = pe.p.Now
	pe.Rec(obs.KindStateChange, -1, int64(stats.Working))
}

// Now is the virtual timestamp controller feedback is stamped with.
func (pe *simPE) Now() int64 { return int64(pe.p.Now()) }

// charge books d of virtual time against the PE's current state without
// advancing the clock — used by step functions, where the engine advances.
func (pe *simPE) charge(d time.Duration) time.Duration {
	pe.T.AddState(pe.state, d)
	return d
}

// working is one quantum of Figure 1's Working state in virtual time, up to
// one of WallPE.Working's edges: Drained when Visit(1) finds the stack
// empty, Surplus once it holds 2k nodes (never at k = 0), Yielded after
// batch nodes. The quantum, n nodes' work, is booked to the current state;
// the lane's node count is flushed at Drained and Yielded, not at Surplus,
// whose release follows at the same instant.
func (pe *simPE) working(batch, k int, nodeCost time.Duration) (time.Duration, core.Edge) {
	for n := 1; ; n++ {
		if pe.Visit(1) == 0 {
			pe.FlushNodes()
			return pe.charge(time.Duration(n-1) * nodeCost), core.Drained
		}
		if k > 0 && pe.Local.Len() >= 2*k {
			return pe.charge(time.Duration(n) * nodeCost), core.Surplus
		}
		if n >= batch {
			pe.FlushNodes()
			return pe.charge(time.Duration(n) * nodeCost), core.Yielded
		}
	}
}

// SetState pairs the stats state charge target with the tracer's state
// event.
func (pe *simPE) SetState(s stats.State) {
	pe.state = s
	pe.Rec(obs.KindStateChange, -1, int64(s))
}

// BeginSteal enters the Stealing state and opens the steal window.
func (pe *simPE) BeginSteal() {
	pe.SetState(stats.Stealing)
	pe.StealBegin(pe.Now())
}

// EndSteal closes the steal window and moves to state back.
func (pe *simPE) EndSteal(ok bool, back stats.State) {
	pe.StealEnd(ok, pe.Now())
	pe.SetState(back)
}

// The engine third of the machine's Host (core.Host) in virtual time. A
// host operation that takes time waits for it a quantum at a time (wait,
// then) and the machine, told so by Busy, returns the quantum from its step
// and calls the operation again at its end; the simulator steps the machine
// itself (spawnStepped). Interrupted is the protocol's: a UPC PE reads its
// request word (upcPE.Interrupted).

// wait makes the host operation under way wait for a quantum of d with
// flags fl before the machine calls it again.
func (pe *simPE) wait(d time.Duration, fl uint8) {
	pe.busy, pe.waitD, pe.waitFl = true, d, fl
}

// then waits for d of virtual time charged to the PE's current state: the
// operation goes on at the end of d, with no service point there.
func (pe *simPE) then(d time.Duration) { pe.wait(pe.charge(d), StepNoPoll) }

// Busy reports the quantum the last operation waits for.
func (pe *simPE) Busy() (time.Duration, uint8, bool) {
	if !pe.busy {
		return 0, 0, false
	}
	pe.busy = false
	return pe.waitD, pe.waitFl, true
}

// acquire takes l for an acquisition round trip of cost, a call per quantum
// from inside a host operation: true while the operation must wait — for
// the round trip, then, if l is held, to be handed it (stepBlock) — false
// holding it, the time spent queued charged to the current state.
func (pe *simPE) acquire(l *Lock, cost time.Duration) bool {
	switch pe.locking {
	case 0:
		pe.locking = 1
		pe.then(cost)
		return true
	case 1:
		if pe.p.take(l) {
			break
		}
		pe.locking, pe.queuedAt = 2, pe.p.Now()
		pe.wait(0, stepBlock)
		return true
	default: // handed over by the holder's release
		pe.charge(pe.p.Now() - pe.queuedAt)
	}
	pe.locking = 0
	return false
}

// release lets go of l, to its oldest waiter if any, for a release round trip
// of cost that the operation then waits for.
func (pe *simPE) release(l *Lock, cost time.Duration) {
	pe.p.handOver(l)
	pe.then(cost)
}

// Settle: a simulated PE hands out no work that could come back unfetched.
func (pe *simPE) Settle(bool) bool { return false }
