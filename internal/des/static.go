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

	batch := cfg.batch()
	for i := 0; i < cfg.PEs; i++ {
		pe := new(simPE)
		*pe = newSimPE(sp, cfg, res, nil, i)
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
		step := func() (time.Duration, uint8) {
			d, e := pe.working(batch, 0, cs.nodeCost)
			if e == core.Drained {
				return d, StepDone
			}
			return d, 0
		}
		pe.spawnStepped(sim, step, nil, func(p *Proc) {
			pe.Rec(obs.KindStateChange, -1, int64(stats.Idle))
			finish(p)
		})
	}
}
