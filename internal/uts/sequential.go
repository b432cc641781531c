package uts

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Count summarizes one complete traversal of a UTS tree. All parallel
// implementations in internal/core must reproduce Nodes and Leaves exactly;
// MaxDepth is schedule-independent as well.
type Count struct {
	Nodes    int64 // total nodes visited (including the root)
	Leaves   int64 // nodes with zero children
	MaxDepth int32 // maximum height observed
	Elapsed  time.Duration
}

// Rate returns the exploration rate in nodes per second.
func (c Count) Rate() float64 {
	if c.Elapsed <= 0 {
		return 0
	}
	return float64(c.Nodes) / c.Elapsed.Seconds()
}

// SearchSequential explores the whole tree depth-first on the calling
// goroutine and returns the exact node count. It is the correctness oracle
// and the denominator of every speedup number in this repository (the
// paper's Section 4.1 sequential baseline), so it runs the node kernel the
// wall-clock schedulers run, Expand with room to fill the spawn kernel's
// lanes: a baseline left on the narrow kernel would flatter every speedup.
func SearchSequential(sp *Spec) Count {
	c, _ := SearchSequentialCtx(context.Background(), sp)
	return c
}

// seqStacks pools the DFS stacks of sequential traversals so repeated
// searches (tuning sweeps, benchmark iterations) run with zero steady-state
// allocations. Stacks that ballooned on a huge tree are dropped rather than
// pinned (see seqStackKeep).
var seqStacks = sync.Pool{New: func() any {
	s := make([]Node, 0, 4096)
	return &s
}}

// seqStackKeep is the largest stack capacity, in nodes, returned to the
// pool. Above it (≈7 MB of nodes) the memory is left to the GC.
const seqStackKeep = 1 << 18

// SearchSequentialCtx is SearchSequential with cooperative cancellation:
// the context is polled every few thousand nodes so that runaway trees
// (e.g. the full 157-billion-node paper tree) can be abandoned. The partial
// count accumulated so far is returned along with ctx.Err().
func SearchSequentialCtx(ctx context.Context, sp *Spec) (Count, error) {
	const pollEvery = 4096
	st := sp.Stream()
	// Elapsed-time reporting only (Count.Elapsed); never feeds traversal
	// order or results.
	start := time.Now()

	var c Count
	sp0 := seqStacks.Get().(*[]Node)
	stack := (*sp0)[:0]
	defer func() {
		if cap(stack) <= seqStackKeep {
			*sp0 = stack[:0]
			seqStacks.Put(sp0)
		}
	}()
	stack = append(stack, Root(sp))
	sincePoll := 0
	for len(stack) > 0 {
		var nodes, leaves int
		var deepest int32
		stack, nodes, leaves, deepest = Expand(sp, st, stack, 0, pollEvery-sincePoll)
		c.Nodes += int64(nodes)
		c.Leaves += int64(leaves)
		c.MaxDepth = max(c.MaxDepth, deepest)
		if sincePoll += nodes; sincePoll >= pollEvery {
			sincePoll = 0
			if err := ctx.Err(); err != nil {
				c.Elapsed = time.Since(start)
				return c, err
			}
		}
	}
	c.Elapsed = time.Since(start)
	return c, nil
}

// RootShares returns the sizes of the subtrees under each root child,
// sorted descending, plus the total node count. It quantifies the
// imbalance claim of Section 4.1 ("over 99.9% of the work is contained in
// just one of the 2000 subtrees below the root"): on critical binomial
// trees the largest share dominates utterly, which is why static
// partitioning fails and chunk-level stealing succeeds.
func RootShares(sp *Spec) (shares []int64, total int64) {
	st := sp.Stream()
	root := Root(sp)
	total = 1
	kids := Children(sp, st, &root, nil)
	shares = make([]int64, 0, len(kids))
	stack := make([]Node, 0, 4096)
	for _, kid := range kids {
		var n int64
		stack = append(stack[:0], kid)
		for len(stack) > 0 {
			var nodes int
			stack, nodes, _, _ = Expand(sp, st, stack, 0, FrontierScan)
			n += int64(nodes)
		}
		shares = append(shares, n)
		total += n
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i] > shares[j] })
	return shares, total
}
