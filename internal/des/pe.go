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
}

// newSimPE builds PE i's shell for a simulated run; spawn binds p.
func newSimPE(sp *uts.Spec, cfg Config, res *core.Result, ps *policy.Set, i int) simPE {
	return simPE{
		PE:  core.NewPE(sp, &res.Threads[i], cfg.Tracer.Lane(i), ps.Controller(i)),
		me:  i,
		rng: core.NewProbeOrder(cfg.Seed, i),
	}
}

// spawn registers the PE's process with the simulation and binds pe.p at
// once — in a windowed run another PE can deliver to this one before its
// body has started — and with it effect, what the host does at the boundary
// of a quantum it staged (Proc.Stage); then body runs on it from the Working
// state, and finish records its end.
func (pe *simPE) spawn(sim *Sim, body, effect func(), finish func(*Proc)) {
	pe.p = sim.Spawn(func(p *Proc) {
		pe.Rec(obs.KindStateChange, -1, int64(stats.Working))
		body()
		finish(p)
	})
	pe.p.effect = effect
	pe.Virt = pe.p.Now
}

// spawnStepped is spawn for a PE whose whole body is the stepped advance
// step: it enters the Working state at spawn, the instant 0 its first step
// runs at, and finish runs at the boundary that ends the advance.
func (pe *simPE) spawnStepped(sim *Sim, step core.Stepper, effect func(), finish func(*Proc)) {
	pe.p = sim.spawnStepped(step, finish)
	pe.p.effect = effect
	pe.Virt = pe.p.Now
	pe.Rec(obs.KindStateChange, -1, int64(stats.Working))
}

// Now is the virtual timestamp controller feedback is stamped with.
func (pe *simPE) Now() int64 { return int64(pe.p.Now()) }

// advance consumes virtual time, charging it to the PE's current state.
func (pe *simPE) advance(d time.Duration) {
	pe.T.AddState(pe.state, d)
	pe.p.Advance(d)
}

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

// Steps: the engine third of the machine's Host (core.Host) in virtual time
// is the stepped advance itself. A service point is a quantum boundary at
// which the dispatcher finds a posted interrupt.
func (pe *simPE) Steps(step core.Stepper) bool { return pe.p.AdvanceStepped(step) != 0 }

// Settle and Stopped: a simulated PE hands out no work that could come
// back unfetched, and a simulation is never abandoned midway.
func (pe *simPE) Settle(bool) bool { return false }
func (pe *simPE) Stopped() bool    { return false }
