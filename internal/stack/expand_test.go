package stack

import (
	"math/rand"
	"testing"

	"repro/internal/rng"
	"repro/internal/uts"
)

// The in-place node kernel (Deque.PopExpand) against the composition it
// replaced in the shell: Pop, Expander.Children into a scratch slice,
// PushAll. At one node a call — strict depth-first order — two deques are
// driven through one sequence of operations and must hold the same nodes,
// bottom to top, after every one; with room for a frontier the visited nodes
// and what replaces them are checked call by call (TestPopExpandFrontier).

// kernelSpecs covers both built-in stream families at granularity 1 (the
// pair walk) and 3 (pairs straddle children), a geometric tree (odd child
// counts, the one-lane tail) and a root wider than uts.MaxChildren.
func kernelSpecs() []*uts.Spec {
	brg3, alfg, alfg3, wide := uts.BenchTiny, uts.BenchTiny, uts.BenchTiny, uts.T3Small
	brg3.Name, brg3.Granularity = "brg-g3", 3
	alfg.Name, alfg.RNG = "alfg", "ALFG"
	alfg3.Name, alfg3.RNG, alfg3.Granularity = "alfg-g3", "ALFG", 3
	wide.Name, wide.B0 = "b0-2000", 2000
	return []*uts.Spec{&uts.BenchTiny, &brg3, &alfg, &alfg3, &uts.GeoLinear, &wide}
}

// refVisit is the old node kernel on d.
func refVisit(d *Deque, ex *uts.Expander) (nodes, leaves int) {
	n, ok := d.Pop()
	if !ok {
		return 0, 0
	}
	d.PushAll(ex.Children(&n))
	if n.NumKids == 0 {
		return 1, 1
	}
	return 1, 0
}

func live(d *Deque) []uts.Node { return d.buf[d.base:] }

func sameNodes(a, b []uts.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// corners counts the states the kernel has a branch or a copy for, so a
// run of the differential can say it met them.
type corners struct {
	emptiedWithBase int // a pop of an interior node emptied a stack whose base was > 0
	grewWithPrefix  int // the children outgrew the backing array over a dead prefix
	droppedBig      int // the emptying pop dropped a > 64 K-node backing array
}

// visitBoth runs one node through both kernels and books the corner it
// was, if any.
func visitBoth(t *testing.T, got, want *Deque, sp *uts.Spec, ex *uts.Expander, seen *corners) bool {
	t.Helper()
	if got.Len() > 0 {
		top := got.buf[len(got.buf)-1]
		last := got.Len() == 1
		switch {
		case last && top.NumKids > 0 && got.base > 0:
			seen.emptiedWithBase++
		case !last && got.base > 0 && len(got.buf)-1+int(top.NumKids) > cap(got.buf):
			seen.grewWithPrefix++
		}
		if last && cap(got.buf) > 1<<16 {
			seen.droppedBig++
		}
	}
	gn, gl := got.PopExpand(sp, ex.Spec().Stream(), 1)
	wn, wl := refVisit(want, ex)
	if gn != wn || gl != wl {
		t.Fatalf("PopExpand = (%d, %d), Pop+Children+PushAll = (%d, %d)", gn, gl, wn, wl)
	}
	return gn == 1
}

// TestPopExpandDifferential: seeded random sequences of visit, TakeBottom(k)
// and PushAll(chunk) — what a worker's stack sees from its owner: explore,
// release, reacquire or land a steal — until the tree is exhausted.
func TestPopExpandDifferential(t *testing.T) {
	var seen corners
	for _, sp := range kernelSpecs() {
		for seed := int64(1); seed <= 2; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			ex := uts.NewExpander(sp)
			var got, want Deque
			got.Push(ex.Root())
			want.Push(ex.Root())
			var held [][2]Chunk // released and not yet pushed back: got's, want's
			var visited int64
			for step := 0; got.Len() > 0 || len(held) > 0; step++ {
				switch op := rnd.Intn(16); {
				case op == 0 && got.Len() > 0:
					// A release, at times of all but the top node: what leaves
					// one node over a dead prefix.
					k := 1 + rnd.Intn(got.Len())
					if k == got.Len() && k > 1 {
						k--
					}
					held = append(held, [2]Chunk{got.TakeBottomAppend(nil, k), want.TakeBottomAppend(nil, k)})
				case op == 1 && len(held) > 0 || got.Len() == 0:
					i := rnd.Intn(len(held))
					c := held[i]
					held = append(held[:i], held[i+1:]...)
					if !sameNodes(c[0], c[1]) {
						t.Fatalf("%s seed %d step %d: released chunks differ", sp.Name, seed, step)
					}
					got.PushAll(c[0])
					want.PushAll(c[1])
				default:
					if visitBoth(t, &got, &want, sp, ex, &seen) {
						visited++
					}
				}
				if !sameNodes(live(&got), live(&want)) {
					t.Fatalf("%s seed %d step %d: stacks differ: %d nodes in place, %d through scratch",
						sp.Name, seed, step, got.Len(), want.Len())
				}
			}
			if all := uts.SearchSequential(sp).Nodes; visited != all {
				t.Errorf("%s seed %d: visited %d nodes, the tree has %d", sp.Name, seed, visited, all)
			}
		}
	}
	if seen.emptiedWithBase == 0 || seen.grewWithPrefix == 0 {
		t.Errorf("corners never met: %+v", seen)
	}
}

// TestPopExpandCorners drives each corner by hand.
func TestPopExpandCorners(t *testing.T) {
	sp := &uts.BenchSmall
	ex := uts.NewExpander(sp)
	var seen corners
	// interior returns the first interior node found under the root.
	interior := func() uts.Node {
		root := ex.Root()
		for _, n := range ex.Children(&root) {
			if n.NumKids > 0 {
				return n
			}
		}
		t.Fatal("no interior child under the root")
		return uts.Node{}
	}()

	t.Run("an interior pop empties a stack with base > 0", func(t *testing.T) {
		var got, want Deque
		for _, d := range []*Deque{&got, &want} {
			d.Push(interior)
			d.Push(interior)
			d.TakeBottomAppend(nil, 1)
		}
		if got.base != 1 || got.Len() != 1 {
			t.Fatalf("base %d, Len %d: the set-up no longer leaves one node over a dead prefix", got.base, got.Len())
		}
		visitBoth(t, &got, &want, sp, ex, &seen)
		if got.base != 0 || !sameNodes(live(&got), live(&want)) || got.Len() != int(interior.NumKids) {
			t.Errorf("base %d, %d nodes; want the dead prefix gone and the %d children", got.base, got.Len(), interior.NumKids)
		}
		if seen.emptiedWithBase != 1 {
			t.Errorf("corner not met: %+v", seen)
		}
	})

	t.Run("growth over a dead prefix", func(t *testing.T) {
		var got, want Deque
		got.buf = make([]uts.Node, 0, 4) // room for the four below and not a child more
		for _, d := range []*Deque{&got, &want} {
			for i := 0; i < 4; i++ {
				d.Push(interior)
			}
			d.TakeBottomAppend(nil, 1)
		}
		before := seen.grewWithPrefix
		visitBoth(t, &got, &want, sp, ex, &seen)
		if seen.grewWithPrefix != before+1 {
			t.Fatalf("corner not met: %+v (cap %d)", seen, cap(got.buf))
		}
		if !sameNodes(live(&got), live(&want)) || got.Len() != 2+int(interior.NumKids) {
			t.Errorf("%d nodes after growing, want %d and the same ones", got.Len(), 2+int(interior.NumKids))
		}
		for got.Len() > 0 { // and the grown stack still drains to the same nodes
			visitBoth(t, &got, &want, sp, ex, &seen)
			if !sameNodes(live(&got), live(&want)) {
				t.Fatal("stacks differ while draining")
			}
		}
	})

	t.Run("the emptying pop drops a backing array above 64 K nodes", func(t *testing.T) {
		var got, want Deque
		big := make([]uts.Node, 1<<16+1) // leaves
		big[len(big)-1] = interior
		got.PushAll(big)
		want.PushAll(big)
		got.TakeBottomAppend(nil, len(big)-1) // compacts: one node, base 0, the big array kept
		want.TakeBottomAppend(nil, len(big)-1)
		if cap(got.buf) <= 1<<16 || got.Len() != 1 {
			t.Fatalf("cap %d, Len %d: the set-up no longer holds one node in a big array", cap(got.buf), got.Len())
		}
		visitBoth(t, &got, &want, sp, ex, &seen)
		if seen.droppedBig != 1 {
			t.Errorf("corner not met: %+v", seen)
		}
		if cap(got.buf) > 1<<16 {
			t.Errorf("backing array of %d nodes survived the emptying pop", cap(got.buf))
		}
		if !sameNodes(live(&got), live(&want)) || got.Len() != int(interior.NumKids) {
			t.Errorf("%d nodes after the drop, want the %d children", got.Len(), interior.NumKids)
		}
	})

	t.Run("an empty stack is left alone", func(t *testing.T) {
		var got Deque
		for _, most := range []int{1, uts.FrontierScan} {
			if n, l := got.PopExpand(sp, sp.Stream(), most); n != 0 || l != 0 || got.buf != nil {
				t.Errorf("PopExpand(most %d) on an empty deque = (%d, %d), buf %v", most, n, l, got.buf)
			}
		}
	})
}

// TestPopExpandFrontier: given room for more than one node a call the
// kernel may visit a frontier of the top nodes — the same tree in another
// order. Through seeded visits of every width, releases and reacquires: a
// call visits at most what it was given and never more than the live nodes,
// no node twice; the nodes under the visited ones stay where they were
// (nothing is popped below base, nothing below the frontier moves); the
// visited nodes' children replace them, the lowest's first and the old
// top's on top; a call takes the last live node only alone, and then the
// deque has been reset under its children; and every node of the tree is
// visited by the end. On a CPU without the sixteen-lane kernel every call
// visits one node and this is the strict order's test again.
func TestPopExpandFrontier(t *testing.T) {
	widest := 0
	for _, sp := range kernelSpecs() {
		for seed := int64(1); seed <= 2; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			ex := uts.NewExpander(sp)
			st := sp.Stream()
			var d Deque
			d.Push(ex.Root())
			var held []Chunk
			visited := map[uts.Node]bool{}
			var leaves int64
			for step := 0; d.Len() > 0 || len(held) > 0; step++ {
				switch op := rnd.Intn(16); {
				case op == 0 && d.Len() > 1:
					held = append(held, d.TakeBottomAppend(nil, 1+rnd.Intn(d.Len()-1)))
				case op == 1 && len(held) > 0 || d.Len() == 0:
					i := rnd.Intn(len(held))
					d.PushAll(held[i])
					held = append(held[:i], held[i+1:]...)
				default:
					most := 1 + rnd.Intn(uts.FrontierScan+8)
					before := append([]uts.Node(nil), live(&d)...)
					nodes, nleaves := d.PopExpand(sp, st, most)
					if nodes < 1 || nodes > most || nodes > len(before) {
						t.Fatalf("%s seed %d step %d: visited %d of %d live nodes, given %d", sp.Name, seed, step, nodes, len(before), most)
					}
					widest = max(widest, nodes)
					kept, popped := before[:len(before)-nodes], before[len(before)-nodes:]
					if len(kept) == 0 && (nodes > 1 || d.base != 0 || cap(d.buf) > 1<<16) {
						t.Fatalf("%s seed %d step %d: the last live node went with %d others, base %d, cap %d: not the emptying pop's reset",
							sp.Name, seed, step, nodes-1, d.base, cap(d.buf))
					}
					want := append([]uts.Node(nil), kept...)
					for i := range popped {
						if visited[popped[i]] {
							t.Fatalf("%s seed %d step %d: a node visited twice", sp.Name, seed, step)
						}
						visited[popped[i]] = true
						if popped[i].NumKids == 0 {
							nleaves--
							leaves++
						}
						want = append(want, ex.Children(&popped[i])...)
					}
					if nleaves != 0 || !sameNodes(live(&d), want) {
						t.Fatalf("%s seed %d step %d: after visiting %d nodes the stack is not the kept nodes and the visited ones' children in order (leaf count off by %d)",
							sp.Name, seed, step, nodes, nleaves)
					}
				}
			}
			if c := uts.SearchSequential(sp); int64(len(visited)) != c.Nodes || leaves != c.Leaves {
				t.Errorf("%s seed %d: visited %d nodes / %d leaves, the tree has %d / %d", sp.Name, seed, len(visited), leaves, c.Nodes, c.Leaves)
			}
		}
	}
	if rng.Lanes() == rng.MaxLanes && widest < 2 {
		t.Errorf("the widest visit took %d node on a CPU with the sixteen-lane kernel: no frontier was exercised", widest)
	}
}

// TestPopExpandAllocatesNothing: in steady state — the backing array grown
// once — a visit allocates nothing, whatever the family and the order.
func TestPopExpandAllocatesNothing(t *testing.T) {
	for _, sp := range kernelSpecs() {
		for _, most := range []int{1, uts.FrontierScan} {
			st := sp.Stream()
			root := uts.Root(sp)
			var d Deque
			d.Push(root)
			for {
				if n, _ := d.PopExpand(sp, st, most); n == 0 {
					break
				}
			}
			if n := testing.AllocsPerRun(2000, func() {
				if n, _ := d.PopExpand(sp, st, most); n == 0 {
					d.Push(root)
				}
			}); n != 0 {
				t.Errorf("%s, most %d: PopExpand allocates %v times per call", sp.Name, most, n)
			}
		}
	}
}
