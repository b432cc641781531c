package stack

import (
	"math/rand"
	"testing"

	"repro/internal/uts"
)

// The in-place node kernel (Deque.PopExpand) against the composition it
// replaced in the shell: Pop, Expander.Children into a scratch slice,
// PushAll. Two deques are driven through one sequence of operations and
// must hold the same nodes, bottom to top, after every one.

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
func refVisit(d *Deque, ex *uts.Expander) (kids int, ok bool) {
	n, ok := d.Pop()
	if !ok {
		return 0, false
	}
	d.PushAll(ex.Children(&n))
	return int(n.NumKids), true
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
	gk, gok := got.PopExpand(sp, ex.Spec().Stream())
	wk, wok := refVisit(want, ex)
	if gk != wk || gok != wok {
		t.Fatalf("PopExpand = (%d, %v), Pop+Children+PushAll = (%d, %v)", gk, gok, wk, wok)
	}
	return gok
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
					held = append(held, [2]Chunk{got.TakeBottom(k), want.TakeBottom(k)})
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
			d.TakeBottom(1)
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
			d.TakeBottom(1)
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
		got.TakeBottom(len(big) - 1) // compacts: one node, base 0, the big array kept
		want.TakeBottom(len(big) - 1)
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
		if k, ok := got.PopExpand(sp, sp.Stream()); ok || k != 0 || got.buf != nil {
			t.Errorf("PopExpand on an empty deque = (%d, %v), buf %v", k, ok, got.buf)
		}
	})
}

// TestPopExpandAllocatesNothing: in steady state — the backing array grown
// once — a visit allocates nothing, whatever the family.
func TestPopExpandAllocatesNothing(t *testing.T) {
	for _, sp := range kernelSpecs() {
		st := sp.Stream()
		root := uts.Root(sp)
		var d Deque
		d.Push(root)
		for {
			if _, ok := d.PopExpand(sp, st); !ok {
				break
			}
		}
		if n := testing.AllocsPerRun(2000, func() {
			if _, ok := d.PopExpand(sp, st); !ok {
				d.Push(root)
			}
		}); n != 0 {
			t.Errorf("%s: PopExpand allocates %v times per node", sp.Name, n)
		}
	}
}
