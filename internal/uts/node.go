package uts

import (
	"math"
	"slices"

	"repro/internal/rng"
)

// Node is one tree node. It is self-describing: the RNG state plus the
// spec determine the node's children completely, so traversals keep nodes
// only while they sit on a depth-first stack — exactly the property that
// makes UTS cheap to steal (a stolen chunk is just an array of Node values,
// NodeBytes each).
type Node struct {
	State  rng.State
	Height int32 // depth below the root; the root has height 0
	// NumKids caches the child count, computed once when the node is
	// generated. −1 means "not yet computed".
	NumKids int32
}

// NodeBytes is the size of one Node — the 20-byte RNG state, the height and
// the child count — in memory and, nominally, on the wire: the figure every
// substrate charges bandwidth by.
const NodeBytes = 28

// Root returns the root node of the tree described by sp.
func Root(sp *Spec) Node {
	st := sp.Stream()
	n := Node{State: st.Init(sp.Seed), Height: 0, NumKids: -1}
	n.NumKids = int32(numChildren(sp, st, &n))
	return n
}

// Children appends the children of n to dst and returns the extended slice.
// The append order is child index 0..k−1, so a depth-first traversal that
// pops from the end of dst explores the highest-index subtree first — any
// fixed convention is fine; this one matches pushing onto a LIFO stack.
//
// This is the traversal hot path: for the built-in stream families it runs
// entirely on concrete code (the paired spawn of either family: two SHA-1
// lanes for BRG, two finalizer chains for ALFG) and performs no heap allocation
// beyond amortized growth of dst — in particular n never escapes, so
// callers can keep their current node in a stack variable. Third-party
// Stream implementations take a generic path that costs two short-lived
// allocations per expansion (state copies made so the interface calls
// cannot leak n).
func Children(sp *Spec, st rng.Stream, n *Node, dst []Node) []Node {
	k := int(n.NumKids)
	if k < 0 {
		k = numChildren(sp, st, n)
		n.NumKids = int32(k)
	}
	if k == 0 {
		return dst
	}
	g := sp.Granularity
	if g < 1 {
		g = 1
	}

	// Grow dst once up front, by append's amortized policy, then fill the
	// new tail in place.
	base := len(dst)
	dst = slices.Grow(dst, k)[:base+k]
	kids := dst[base:]
	h := n.Height + 1

	switch st.(type) {
	case rng.BRG:
		// Fast path: one Spawner loads the parent once and walks the k·g
		// spawn sequence of this node two at a time — the interior of the
		// paper's trees is binary, so an expansion is one SpawnPair.
		var z rng.Spawner
		z.Reset(&n.State)
		if g == 1 {
			// The common case, kept apart from the general walk below for
			// its two idx/g divisions per pair (≈2 % of a traversal). A
			// fan-out that fills lanes by itself — the root's B0 — goes
			// sixteen to a call where the CPU can.
			i := 0
			if k >= rng.MinLanes {
				i = z.SpawnWide(&kids[0].State, nodeStride, k, 0)
			}
			for ; i+1 < k; i += 2 {
				z.SpawnPair(&kids[i].State, &kids[i+1].State, i)
			}
			if i < k {
				z.SpawnInto(&kids[i].State, i)
			}
		} else {
			// Compute granularity (UTS -g): g spawns per child, the child
			// taking the state of the last one, index i·g+g−1. The first
			// g−1 evaluations are the knob that scales per-node computation;
			// they must run in full, so spawn idx lands in child idx/g and
			// is overwritten there by the next one in sequence.
			idx, total := 0, k*g
			for ; idx+1 < total; idx += 2 {
				z.SpawnPair(&kids[idx/g].State, &kids[(idx+1)/g].State, idx)
			}
			if idx < total {
				z.SpawnInto(&kids[idx/g].State, idx)
			}
		}
		for i := range kids {
			c := &kids[i]
			c.Height = h
			c.NumKids = int32(childCount(sp, h, rng.StateRand(&c.State)))
		}
	case rng.ALFG:
		// Two siblings per call, as above: a spawn is one serial chain of
		// finalizers, and two chains overlap almost for free.
		var a rng.ALFG
		if g == 1 {
			i := 0
			for ; i+1 < k; i += 2 {
				a.SpawnPairInto(&kids[i].State, &kids[i+1].State, &n.State, i)
			}
			if i < k {
				a.SpawnInto(&kids[i].State, &n.State, i)
			}
		} else {
			for idx := 0; idx < k*g; idx++ {
				a.SpawnInto(&kids[idx/g].State, &n.State, idx)
			}
		}
		for i := range kids {
			c := &kids[i]
			c.Height = h
			c.NumKids = int32(childCount(sp, h, rng.StateRand(&c.State)))
		}
	default:
		// Generic streams: work on copies so the interface calls leak the
		// copies, not n or the dst backing array.
		ps := n.State
		var tmp rng.State
		idx := 0
		for i := range kids {
			c := &kids[i]
			s := st.Spawn(&ps, idx)
			idx++
			for j := 1; j < g; j++ {
				s = st.Spawn(&ps, idx)
				idx++
			}
			tmp = s
			c.State = s
			c.Height = h
			c.NumKids = int32(childCount(sp, h, st.Rand(&tmp)))
		}
	}
	return dst
}

// numChildren computes the child count for a node under the spec.
func numChildren(sp *Spec, st rng.Stream, n *Node) int {
	switch st.(type) {
	case rng.BRG, rng.ALFG:
		// Both built-in families expose the node's draw in the trailing
		// state bytes; reading it directly keeps n on the caller's stack.
		return childCount(sp, n.Height, rng.StateRand(&n.State))
	}
	tmp := n.State
	return childCount(sp, n.Height, st.Rand(&tmp))
}

// childCount maps a node's height and 31-bit random draw to its child
// count under the spec. The draw is consulted only by the kinds that use
// one (binomial non-root, geometric, the hybrid mix of the two).
func childCount(sp *Spec, height, r int32) int {
	var k int
	switch sp.Kind {
	case Binomial:
		if height == 0 {
			k = sp.B0
		} else {
			k = binomialCount(sp, r)
		}
	case Geometric:
		k = geometricCount(sp, height, r)
	case Hybrid:
		cut := int32(sp.Shift * float64(sp.GenMx))
		if height < cut {
			k = geometricCount(sp, height, r)
		} else if height == 0 {
			k = sp.B0
		} else {
			k = binomialCount(sp, r)
		}
	case Balanced:
		if int(height) < sp.GenMx {
			k = sp.B0
		}
	}
	if k > MaxChildren && sp.Kind != Binomial {
		// Binomial B0/M are validated against the cap up front; geometric
		// draws are unbounded and must be clipped, as in the UTS sources.
		k = MaxChildren
	}
	return k
}

// binomialCount draws M with probability Q, else 0, by comparing the node's
// 31-bit random value against Q scaled to the RNG range.
func binomialCount(sp *Spec, r int32) int {
	if float64(r) < sp.binomialCut() {
		return sp.M
	}
	return 0
}

// binomialCut is the binomial draw's threshold, Q·2³¹: a node below the
// root has M children when its draw r has float64(r) < binomialCut, which
// is UTS's r/2³¹ < Q.
func (sp *Spec) binomialCut() float64 { return sp.Q * rng.RandMax }

// binomialBelow is binomialCut as a bound on an integer draw: r < below
// exactly when float64(r) < binomialCut.
func (sp *Spec) binomialBelow() int64 { return int64(math.Ceil(sp.binomialCut())) }

// geometricCount draws from a geometric distribution with mean geoBranch(d):
// with p = 1/(1+b) and u = r/2³¹ in [0, 1), UTS's count
// floor(log(1−u)/log(1−p)) has mean b. Where the shape cuts the tree b is
// 0 and the node a leaf; so it is where b is NaN, which exp-dec gives below
// depth 1 for B0 = GenMx = 1 (0/0 in its exponent).
func geometricCount(sp *Spec, height, r int32) int {
	b := sp.geoBranch(int(height))
	if !(b >= 1e-12) {
		return 0
	}
	p := 1 / (1 + b)
	u := float64(r) / float64(rng.RandMax)
	return int(math.Log(1-u) / math.Log(1-p)) // a ratio ≥ 0: the conversion is the floor
}
