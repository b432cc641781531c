package des

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/uts"
)

// simStatic is the simulated no-load-balancing baseline: the root's
// children are dealt round-robin and each PE explores its share to
// completion in isolation. Its makespan is the largest share — on critical
// binomial trees, essentially the whole tree on one PE — which is the
// quantitative form of the paper's premise that UTS cannot be statically
// partitioned. Nothing is ever stealable, so a trace records no work source.
func simStatic(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, finish func(*Proc)) {
	st := sp.Stream()
	root := uts.Root(sp)
	kids := uts.Children(sp, st, &root, nil)

	for i := 0; i < cfg.PEs; i++ {
		pe := &simStaticPE{simPE: newSimPE(sp, cfg, res, nil, i), cs: cs, batch: cfg.batch()}
		if i == 0 {
			pe.T.Nodes++ // the root
			if root.NumKids == 0 {
				pe.T.Leaves++
			}
		}
		for j := i; j < len(kids); j += cfg.PEs {
			pe.Local.Push(kids[j])
		}
		// The whole share is one stepped advance: one quantum per batch of
		// node work, committed inline whenever no other PE's boundary lands
		// earlier — a statically partitioned PE never interacts, so its
		// entire traversal typically costs a handful of events.
		pe.spawnStepped(sim, pe.step, nil, func(p *Proc) {
			pe.Rec(obs.KindStateChange, -1, int64(stats.Idle))
			finish(p)
		})
	}
}

type simStaticPE struct {
	simPE
	cs      costs
	batch   int
	pending int // nodes explored since the last quantum
}

// step is one quantum: a batch of node work, or the rest of the share.
func (pe *simStaticPE) step() (time.Duration, uint8) {
	for {
		if pe.Visit(1) == 0 {
			return pe.quantum(), StepDone
		}
		pe.pending++
		if pe.pending >= pe.batch {
			return pe.quantum(), 0
		}
	}
}

// quantum charges the pending nodes' work and flushes their count.
func (pe *simStaticPE) quantum() time.Duration {
	d := time.Duration(pe.pending) * pe.cs.nodeCost
	pe.pending = 0
	pe.FlushNodes()
	return pe.charge(d)
}
