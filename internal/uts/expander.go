package uts

import "repro/internal/rng"

// Expander is a per-traversal child generator for callers that want a
// node's children as a detached slice: it resolves the spec's stream once
// and owns a capacity-managed scratch buffer that Children calls reuse, so
// a steady-state loop over it performs zero heap allocations. The
// traversal loops of this repository do not go through it: the sequential
// oracle and the schedulers' node kernel (stack.Deque.PopExpand) both run
// Expand, which writes children straight onto their own DFS stack and,
// under the 16-lane BRG kernel, spawns a frontier of nodes per call, which
// keeps the Figure 3 comparison apples-to-apples. Children is one node at a
// time on the strict pair kernel, so a loop over it pays 3–4× the traversal
// loops' cost a node on an AVX-512 host (194–208 ms against 47–63 ms on a
// 1,697,661-node tree); it stays for callers that want detached slices.
//
// An Expander is owned by a single goroutine; create one per worker.
type Expander struct {
	sp  *Spec
	st  rng.Stream
	buf []Node
}

// NewExpander returns an Expander for sp. The scratch buffer starts at the
// MaxChildren cap, so only a wide root (binomial B0 above the cap) ever
// grows it; after that one growth it is never reallocated.
func NewExpander(sp *Spec) *Expander {
	return &Expander{sp: sp, st: sp.Stream(), buf: make([]Node, 0, MaxChildren)}
}

// Spec returns the tree spec the Expander was built for.
func (e *Expander) Spec() *Spec { return e.sp }

// Children returns the children of n in the Expander's scratch buffer.
// The slice is valid only until the next Children call: callers copy the
// nodes onto their own stack (e.g. Deque.PushAll) before expanding any of
// them. It returns an empty slice for leaves.
func (e *Expander) Children(n *Node) []Node {
	e.buf = Children(e.sp, e.st, n, e.buf[:0])
	return e.buf
}

// Root returns the root node of the Expander's tree.
func (e *Expander) Root() Node { return Root(e.sp) }
