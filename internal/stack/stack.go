// Package stack provides the depth-first-search stack structures of the UTS
// work-stealing implementations.
//
// Following Section 3.1 of the paper, a thread's stack has two regions: a
// local region, touched only by the owner with no synchronization, and a
// shared (steal) region holding whole chunks of k nodes that other threads
// may take. release() moves the k oldest local nodes into the shared
// region; reacquire() moves a chunk back; steal() removes chunks on behalf
// of another thread. The types here are pure data structures — safe for a
// single accessor only. The real-concurrency layer (internal/core) guards
// them with locks or ownership protocols exactly as each algorithm
// prescribes, and the simulator (internal/des) uses them single-threaded
// under virtual-time locks; keeping them unsynchronized is what lets both
// modes share one implementation.
package stack

import (
	"repro/internal/rng"
	"repro/internal/uts"
)

// Deque is a DFS node stack with O(1) amortized removal from the bottom.
// The owner pushes and pops at the top while exploring; releases take from
// the bottom, where the nodes closest to the root — statistically the
// largest subtrees — live.
type Deque struct {
	buf  []uts.Node
	base int // index of the bottom-most live node in buf
}

// Len returns the number of nodes on the stack.
func (d *Deque) Len() int { return len(d.buf) - d.base }

// Push places n on top of the stack.
func (d *Deque) Push(n uts.Node) { d.buf = append(d.buf, n) }

// PushAll places nodes on top of the stack in order (the last element of
// nodes becomes the new top).
func (d *Deque) PushAll(nodes []uts.Node) { d.buf = append(d.buf, nodes...) }

// Pop removes and returns the top node. It reports false on an empty stack.
func (d *Deque) Pop() (uts.Node, bool) {
	if d.Len() == 0 {
		return uts.Node{}, false
	}
	n := d.buf[len(d.buf)-1]
	d.buf = d.buf[:len(d.buf)-1]
	if d.Len() == 0 {
		d.reset()
	}
	return n, true
}

// PopExpand is the node kernel of a depth-first traversal of sp on this
// stack: it visits at most most nodes from the top and leaves their children
// in their place, written once, where the next PopExpand reads them. It
// returns how many nodes it visited and how many of them were leaves; 0 and
// nothing touched on an empty stack. (Not the popped nodes: 28 bytes returned
// by value are copied four times on the way to the caller, each copy reading
// behind the narrower stores of the last — 17 % of a traversal, DESIGN.md
// §7.)
//
// With most = 1 it pops the top node and has uts.Children write that node's
// children, index 0..k−1, straight onto the stack, which ends with the
// contents Pop followed by PushAll(children) would leave, whatever its
// capacity. With room for more, uts.Expand may visit a frontier of the top
// nodes instead — the same nodes in another order — but the bottom-most
// live node is only ever popped here, alone: the pop that empties the stack
// resets it first, which drops the dead prefix and an oversized backing
// array before the children land.
func (d *Deque) PopExpand(sp *uts.Spec, st rng.Stream, most int) (nodes, leaves int) {
	top := len(d.buf) - 1
	if most > 1 && top > d.base {
		d.buf, nodes, leaves, _ = uts.Expand(sp, st, d.buf, d.base+1, most)
		return nodes, leaves
	}
	if top < d.base {
		return 0, 0
	}
	n := d.buf[top] // a copy: child 0 lands in this slot
	d.buf = d.buf[:top]
	if top == d.base {
		d.reset()
	}
	if n.NumKids == 0 {
		return 1, 1
	}
	d.buf = uts.Children(sp, st, &n, d.buf)
	return 1, 0
}

// TakeBottomAppend removes the k oldest nodes and appends them to dst,
// oldest first, so callers holding a recycled buffer avoid the per-release
// allocation. It panics if k exceeds Len; callers check Len first.
func (d *Deque) TakeBottomAppend(dst []uts.Node, k int) []uts.Node {
	if k > d.Len() {
		panic("stack: TakeBottomAppend beyond length")
	}
	dst = append(dst, d.buf[d.base:d.base+k]...)
	d.base += k
	if d.Len() == 0 {
		d.reset()
	} else if d.base > len(d.buf)/2 {
		// Compact whenever the dead prefix outweighs the live suffix, so a
		// long-lived deque that releases steadily without ever draining
		// keeps its footprint proportional to Len. The copy moves fewer
		// elements than were removed since the last compaction, so the
		// amortized cost per take stays O(k).
		n := copy(d.buf, d.buf[d.base:])
		d.buf = d.buf[:n]
		d.base = 0
	}
	return dst
}

// reset drops the backing array once empty if it has grown large, so a
// thread that briefly held a huge subtree does not pin the memory forever.
func (d *Deque) reset() {
	if cap(d.buf) > 1<<16 {
		d.buf = nil
	} else {
		d.buf = d.buf[:0]
	}
	d.base = 0
}

// Chunk is a fixed group of nodes moved between threads as a unit. The
// chunk size k is the paper's central tuning parameter (Section 4.2.1).
type Chunk = []uts.Node

// Pool is the shared (steal) region: an ordered collection of chunks,
// oldest first. Thieves take from the oldest end (work nearest the root);
// the owner reacquires from the newest end (work nearest its current
// exploration).
type Pool struct {
	chunks []Chunk
	head   int // index of oldest live chunk
}

// Len returns the number of chunks in the pool.
func (p *Pool) Len() int { return len(p.chunks) - p.head }

// Nodes returns the total node count across chunks.
func (p *Pool) Nodes() int { return NodeCount(p.chunks[p.head:]) }

// NodeCount returns the number of nodes held by chunks.
func NodeCount(chunks []Chunk) int {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	return n
}

// Put appends a chunk at the newest end. A full slice behind a dead prefix
// is compacted in place rather than regrown, dead slots and all.
func (p *Pool) Put(c Chunk) {
	if p.head > 0 && len(p.chunks) == cap(p.chunks) {
		p.compact()
	}
	p.chunks = append(p.chunks, c)
}

// TakeOldest removes and returns the oldest chunk, reporting false if the
// pool is empty.
func (p *Pool) TakeOldest() (Chunk, bool) {
	if p.Len() == 0 {
		return nil, false
	}
	c := p.chunks[p.head]
	p.chunks[p.head] = nil // release for GC
	p.head++
	p.maybeReset()
	return c, true
}

// TakeNewest removes and returns the newest chunk, reporting false if the
// pool is empty.
func (p *Pool) TakeNewest() (Chunk, bool) {
	if p.Len() == 0 {
		return nil, false
	}
	c := p.chunks[len(p.chunks)-1]
	p.chunks[len(p.chunks)-1] = nil
	p.chunks = p.chunks[:len(p.chunks)-1]
	p.maybeReset()
	return c, true
}

// TakeHalf removes ceil(Len/2) chunks from the oldest end — the rapid-
// diffusion steal of Section 3.3.2 ("half the available chunks if more
// than one chunk is available, or one chunk otherwise"). It returns nil
// if the pool is empty.
func (p *Pool) TakeHalf() []Chunk {
	if p.Len() == 0 {
		return nil
	}
	return p.TakeHalfAppend(nil)
}

// TakeHalfAppend is TakeHalf appending into dst, so callers holding a
// recycled buffer avoid the per-steal allocation. An empty pool returns
// dst unchanged.
func (p *Pool) TakeHalfAppend(dst []Chunk) []Chunk {
	n := p.Len()
	if n == 0 {
		return dst
	}
	take := (n + 1) / 2
	dst = append(dst, p.chunks[p.head:p.head+take]...)
	for i := p.head; i < p.head+take; i++ {
		p.chunks[i] = nil
	}
	p.head += take
	p.maybeReset()
	return dst
}

func (p *Pool) maybeReset() {
	if p.Len() == 0 {
		p.chunks = p.chunks[:0]
		p.head = 0
	} else if p.head > 256 && p.head > len(p.chunks)/2 {
		p.compact()
	}
}

// compact moves the live chunks to the front of the slice.
func (p *Pool) compact() {
	n := copy(p.chunks, p.chunks[p.head:])
	clear(p.chunks[n:]) // release for GC
	p.chunks = p.chunks[:n]
	p.head = 0
}
