package core

import (
	"math"

	"repro/internal/stats"
	"repro/internal/uts"
)

// runStatic executes the no-load-balancing baseline: the root's children
// are dealt round-robin to the threads up front and each thread searches
// its share with no stealing and no further coordination. This is the
// strategy the paper's introduction rules out — "the state space often has
// unpredictable and irregular structure that can not be statically
// partitioned" — and it exists here to quantify that: on the critical
// binomial trees, one subtree usually holds >99% of the nodes, so static
// partitioning approaches sequential performance regardless of thread
// count while every work-stealing implementation stays near-linear.
func runStatic(sp *uts.Spec, opt Options, res *Result) error {
	st := sp.Stream()
	root := uts.Root(sp)
	kids := uts.Children(sp, st, &root, nil)

	eachThread(sp, opt, res, func(me int, w WallPE) {
		w.Start()
		defer w.Stop()
		if me == 0 {
			w.T.Nodes++ // the root itself
			if root.NumKids == 0 {
				w.T.Leaves++
			}
		}
		for i := me; i < len(kids); i += opt.Threads {
			w.Local.Push(kids[i])
		}
		w.Explore(math.MaxInt) // to the empty stack
		w.SetState(stats.Idle)
	})
	return nil
}
