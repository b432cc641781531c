package uts

import (
	"slices"
	"unsafe"

	"repro/internal/rng"
)

// FrontierScan is the most nodes one Expand call visits: the scan for a
// frontier looks no further down the stack than this, so a run of leaves
// cannot stretch a visit — and what a caller does between visits (a yield,
// a poll) — without bound.
const FrontierScan = 32

// nodeStride is the distance between the states of neighbouring nodes of a
// stack.
const nodeStride = unsafe.Sizeof(Node{})

// Expand is the node kernel of a depth-first traversal whose stack is the
// slice stack: it visits at least one and at most most of the top nodes —
// none at an index below floor; the caller holds len(stack) > floor — and
// returns the stack with their children in their place, how many nodes it
// visited, how many of those were leaves, and the greatest height among
// them.
//
// With most = 1 it pops the top node and appends that node's children,
// index 0..k−1: strict depth-first order, the order a virtual-time schedule
// is defined over, and the only order on a CPU whose widest spawn kernel is
// the pair (rng.Lanes). Given room and a lane kernel — sixteen SHA-1 lanes
// for BRG, 32 ALFG lanes for ALFG, both where the CPU has AVX-512 — it
// visits a frontier instead: strict order spawns a node's two children and
// then needs one of them before it can spawn anything else, so it would
// fill two to four lanes a call; popping nodes off the top for as long as
// their children — the cached NumKids — still fit the lanes fills them. All
// those children are spawned in one call and written in place from the
// lowest popped slot up, the old top's children last, so they are the new
// top and the stack stays as deep as depth-first keeps it. The visited set
// is the same whatever the order, and so is every count. A node that does
// not fit the lanes alone (a root's fan-out), a granularity above 1, a
// third-party stream and a frontier under the family's fewest worthwhile
// lanes (rng.MinLanes, rng.ALFGMinLanes: a fine-grained scheduler's
// two-node stack) take the strict step.
func Expand(sp *Spec, st rng.Stream, stack []Node, floor, most int) (out []Node, nodes, leaves int, deepest int32) {
	if most > 1 && sp.Granularity <= 1 && rng.Lanes() == rng.MaxLanes {
		var width, least int
		switch st.(type) {
		case rng.BRG:
			width, least = rng.MaxLanes, rng.MinLanes
		case rng.ALFG:
			width, least = rng.ALFGLanes, rng.ALFGMinLanes
		}
		if width > 0 {
			if out, nodes, leaves, deepest = expandFrontier(sp, stack, floor, most, width, least); nodes > 0 {
				return out, nodes, leaves, deepest
			}
		}
	}
	top := len(stack) - 1
	n := stack[top] // a copy: child 0 lands in this slot
	stack = stack[:top]
	if n.NumKids == 0 {
		return stack, 1, 1, n.Height
	}
	return Children(sp, st, &n, stack), 1, 0, n.Height
}

// expandFrontier is Expand's wide step on a tree of granularity 1 whose
// stream has a lane kernel width lanes wide: rng.SpawnLanes for BRG (16),
// rng.ALFG.SpawnLanes for ALFG (32). It reports nodes = 0, having touched
// nothing, when the nodes it may take have fewer than least children
// between them.
func expandFrontier(sp *Spec, stack []Node, floor, most, width, least int) (out []Node, nodes, leaves int, deepest int32) {
	lo := max(floor, len(stack)-min(most, FrontierScan))
	first, lanes := len(stack), 0
	for first > lo {
		k := int(stack[first-1].NumKids)
		if lanes+k > width {
			break
		}
		lanes += k
		first--
	}
	if lanes < least {
		return stack, 0, 0, 0
	}

	// A lane per child: its parent's offset from the lowest popped slot,
	// its index, and its height, which the parent's slot will not hold for
	// long. Whether a node of a critical tree is a leaf is a coin toss, so
	// the loop does not branch on it: every parent writes two lanes and
	// advances by its child count, and the next parent overwrites what a
	// leaf or an only child left over (hence the two spare entries).
	var off, idx [rng.ALFGLanes + 2]uint32
	var height [rng.ALFGLanes + 2]int32
	parents := stack[first:]
	lane := 0
	for p := range parents {
		n := &parents[p]
		o, h, k := uint32(p)*uint32(nodeStride), n.Height+1, int(n.NumKids)
		deepest = max(deepest, n.Height)
		leaves += int(uint(k-1) >> 63) // k == 0
		off[lane], idx[lane], height[lane] = o, 0, h
		off[lane+1], idx[lane+1], height[lane+1] = o, 1, h
		for c := 2; c < k; c++ {
			off[lane+c], idx[lane+c], height[lane+c] = o, uint32(c), h
		}
		lane += k
	}

	// Grown as in Children; the leaves among the parents can leave total
	// below len(stack).
	total := first + lanes
	out = slices.Grow(stack, max(0, total-len(stack)))[:total]
	kids := out[first:]
	// Parents and children share the slots from first up; the kernel reads
	// every parent before it writes any child.
	if width == rng.ALFGLanes {
		rng.ALFG{}.SpawnLanes(&kids[0].State, nodeStride, &kids[0].State, (*[rng.ALFGLanes]uint32)(off[:]), (*[rng.ALFGLanes]uint32)(idx[:]), lanes)
	} else {
		rng.SpawnLanes(&kids[0].State, nodeStride, &kids[0].State, (*[rng.MaxLanes]uint32)(off[:]), (*[rng.MaxLanes]uint32)(idx[:]), lanes)
	}
	if sp.Kind == Binomial {
		// No child is a root, so a child count is the one comparison of
		// binomialCount, its threshold computed once for the call — and
		// taken as a sign bit, not a branch: the draw is a coin toss again.
		below, m := sp.binomialBelow(), int32(sp.M)
		for j := range kids {
			c := &kids[j]
			c.Height = height[j]
			c.NumKids = m & int32((int64(rng.StateRand(&c.State))-below)>>63) // draw < below ? M : 0
		}
		return out, len(parents), leaves, deepest
	}
	for j := range kids {
		c := &kids[j]
		c.Height = height[j]
		c.NumKids = int32(childCount(sp, height[j], rng.StateRand(&c.State)))
	}
	return out, len(parents), leaves, deepest
}
