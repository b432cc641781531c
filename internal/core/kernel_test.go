package core

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// The shell's node kernel and its chunk buffers: PE.Visit against the
// copy-through-scratch kernel it replaced, who owns a released chunk's
// buffer, and what a whole run allocates.

// kernelSpecs: both stream families at granularity 1 and 3, a geometric
// tree, and a root wider than uts.MaxChildren.
func kernelSpecs() []*uts.Spec {
	brg3, alfg, alfg3, wide := uts.BenchTiny, uts.BenchTiny, uts.BenchTiny, uts.T3Small
	brg3.Name, brg3.Granularity = "brg-g3", 3
	alfg.Name, alfg.RNG = "alfg", "ALFG"
	alfg3.Name, alfg3.RNG, alfg3.Granularity = "alfg-g3", "ALFG", 3
	wide.Name, wide.B0 = "b0-2000", 2000
	return []*uts.Spec{&uts.BenchTiny, &brg3, &alfg, &alfg3, &uts.GeoLinear, &wide}
}

// refPE is the shell's node kernel and release as they were: pop, expand
// into the Expander's scratch, copy onto the stack; a fresh slice a release.
type refPE struct {
	T     stats.Thread
	Local stack.Deque
	ex    *uts.Expander
}

// visit notes the node it pops in seen.
func (r *refPE) visit(seen map[visitKey]bool) bool {
	n, ok := r.Local.Pop()
	if !ok {
		return false
	}
	seen[visitKey{n.State, n.Height}] = true
	r.T.Nodes++
	if n.NumKids == 0 {
		r.T.Leaves++
	} else {
		r.Local.PushAll(r.ex.Children(&n))
	}
	r.T.NoteDepth(r.Local.Len())
	return true
}

// visitKey is what identifies a node of a tree: no two nodes share a state.
type visitKey struct {
	State  rng.State
	Height int32
}

// TestVisitDifferential drives a PE and the reference through one seeded
// sequence of visits, releases and reacquires. One node a visit — strict
// depth-first order, what the simulator runs: the same counters and depth
// after every step, the same nodes in every released chunk, and at the end
// the sequential traversal's counts. Then the same sequence with room for a
// frontier in every visit, what a wall-clock worker gives it (the frontier
// leg below).
func TestVisitDifferential(t *testing.T) {
	for _, sp := range kernelSpecs() {
		tree := map[visitKey]bool{} // every node the strict order visits
		for seed := int64(1); seed <= 3; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			var th stats.Thread
			pe := NewPE(sp, &th, nil, nil)
			ref := refPE{ex: uts.NewExpander(sp)}
			pe.Local.Push(uts.Root(sp))
			ref.Local.Push(uts.Root(sp))
			var got, want stack.Pool
			for step := 0; pe.Local.Len() > 0 || got.Len() > 0; step++ {
				switch op := rnd.Intn(8); {
				case op == 0 && pe.Local.Len() >= 2:
					k := 1 + rnd.Intn(pe.Local.Len()-1)
					g, w := pe.Release(k), ref.Local.TakeBottomAppend(nil, k)
					for i := range w {
						if g[i] != w[i] {
							t.Fatalf("%s seed %d step %d: released node %d of %d differs", sp.Name, seed, step, i, k)
						}
					}
					got.Put(g)
					want.Put(w)
				case op == 1 && got.Len() > 0 || pe.Local.Len() == 0:
					g, _ := got.TakeNewest()
					w, _ := want.TakeNewest()
					pe.Reacquired(g)
					ref.Local.PushAll(w)
				default:
					if (pe.Visit(1) == 1) != ref.visit(tree) {
						t.Fatalf("%s seed %d step %d: Visit and the reference disagree on an empty stack", sp.Name, seed, step)
					}
				}
				if th.Nodes != ref.T.Nodes || th.Leaves != ref.T.Leaves || th.MaxStackDepth != ref.T.MaxStackDepth ||
					pe.Local.Len() != ref.Local.Len() {
					t.Fatalf("%s seed %d step %d: nodes/leaves/max depth/depth %d/%d/%d/%d, reference %d/%d/%d/%d", sp.Name, seed, step,
						th.Nodes, th.Leaves, th.MaxStackDepth, pe.Local.Len(),
						ref.T.Nodes, ref.T.Leaves, ref.T.MaxStackDepth, ref.Local.Len())
				}
			}
			if c := uts.SearchSequential(sp); th.Nodes != c.Nodes || th.Leaves != c.Leaves {
				t.Errorf("%s seed %d: %d nodes / %d leaves, sequential %d / %d", sp.Name, seed, th.Nodes, th.Leaves, c.Nodes, c.Leaves)
			}
			visitFrontiers(t, sp, seed, tree)
		}
	}
}

// visitFrontiers is the frontier leg of TestVisitDifferential. The only
// freedom a visit has is how many of the top nodes it takes, and it reports
// that; so a model stack follows the PE — the top n nodes visited, their
// children in their place, the lowest's first — and every released chunk
// must be the model's oldest nodes. On top of that: no node is visited
// twice, a released chunk holds only unvisited nodes (so nothing was popped
// from under the live ones), the visited set is the strict order's, and the
// end counts are the sequential traversal's.
func visitFrontiers(t *testing.T, sp *uts.Spec, seed int64, tree map[visitKey]bool) {
	rnd := rand.New(rand.NewSource(seed))
	var th stats.Thread
	pe := NewPE(sp, &th, nil, nil)
	ex := uts.NewExpander(sp)
	pe.Local.Push(uts.Root(sp))
	model := []uts.Node{uts.Root(sp)}
	visited := map[visitKey]bool{}
	var pool stack.Pool
	widest := 0
	for step := 0; pe.Local.Len() > 0 || pool.Len() > 0; step++ {
		switch op := rnd.Intn(8); {
		case op == 0 && pe.Local.Len() >= 2:
			k := 1 + rnd.Intn(pe.Local.Len()-1)
			c := pe.Release(k)
			for i := range c {
				if c[i] != model[i] {
					t.Fatalf("%s seed %d step %d: released node %d of %d is not the model's", sp.Name, seed, step, i, k)
				}
				if visited[visitKey{c[i].State, c[i].Height}] {
					t.Fatalf("%s seed %d step %d: a released chunk holds a visited node", sp.Name, seed, step)
				}
			}
			model = model[k:]
			pool.Put(append(stack.Chunk(nil), c...)) // the PE recycles c's buffer
		case op == 1 && pool.Len() > 0 || pe.Local.Len() == 0:
			c, _ := pool.TakeNewest()
			model = append(model, c...)
			pe.Reacquired(c)
		default:
			most := 1 + rnd.Intn(uts.FrontierScan+8)
			n := pe.Visit(most)
			if n < 1 || n > most || n > len(model) {
				t.Fatalf("%s seed %d step %d: visited %d of %d nodes, given %d", sp.Name, seed, step, n, len(model), most)
			}
			widest = max(widest, n)
			popped := append([]uts.Node(nil), model[len(model)-n:]...)
			model = model[:len(model)-n]
			for i := range popped {
				key := visitKey{popped[i].State, popped[i].Height}
				if visited[key] || !tree[key] {
					t.Fatalf("%s seed %d step %d: visited a node twice, or one the strict order never visits", sp.Name, seed, step)
				}
				visited[key] = true
				model = append(model, ex.Children(&popped[i])...)
			}
		}
		if pe.Local.Len() != len(model) || th.Nodes != int64(len(visited)) {
			t.Fatalf("%s seed %d step %d: depth %d, %d nodes counted; the model holds %d, %d visited", sp.Name, seed, step,
				pe.Local.Len(), th.Nodes, len(model), len(visited))
		}
	}
	if c := uts.SearchSequential(sp); th.Nodes != c.Nodes || th.Leaves != c.Leaves || len(visited) != len(tree) {
		t.Errorf("%s seed %d: %d nodes / %d leaves by frontiers, sequential %d / %d, strict order %d", sp.Name, seed,
			th.Nodes, th.Leaves, c.Nodes, c.Leaves, len(tree))
	}
	if sp.Granularity <= 1 && rng.Lanes() == rng.MaxLanes && widest < 2 {
		t.Errorf("%s seed %d: no visit took more than one node on a CPU with the lane kernels", sp.Name, seed)
	}
}

// bufOf identifies a chunk's backing array.
func bufOf(c stack.Chunk) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(c)) }

// TestReleaseRecycling: a chunk's buffer is recycled by whoever read the
// chunk last — the owner that reacquired it or the thief it landed on, never
// the victim it was stolen from — so no buffer is ever on two free lists.
// The first leg is eight shells trading chunks on one goroutine with every
// buffer accounted for; the second is whole eight-thread runs at k = 1,
// where a buffer with two owners is two unsynchronized writers for the race
// detector (go test -race) and a wrong count without it.
func TestReleaseRecycling(t *testing.T) {
	t.Run("every buffer has one owner", func(t *testing.T) {
		const pes, k = 8, 2
		sp := &uts.BenchSmall
		rnd := rand.New(rand.NewSource(1))
		th := make([]stats.Thread, pes)
		pe := make([]PE, pes)
		pool := make([]stack.Pool, pes)
		for i := range pe {
			pe[i] = NewPE(sp, &th[i], nil, nil)
		}
		pe[0].Local.Push(uts.Root(sp))
		made, reused, thefts := 0, 0, 0
		// check counts the buffers held anywhere — a free list or a pool —
		// failing on the first one held twice.
		check := func(step int) int {
			held := map[unsafe.Pointer]int{}
			note := func(c stack.Chunk, who int) {
				if prev, dup := held[bufOf(c)]; dup {
					t.Fatalf("step %d: one buffer held by PE %d and PE %d", step, prev, who)
				}
				held[bufOf(c)] = who
			}
			for i := range pe {
				for _, c := range pe[i].free {
					note(c, i)
				}
				for n := pool[i].Len(); n > 0; n-- { // once round, order kept
					c, _ := pool[i].TakeOldest()
					note(c, i)
					pool[i].Put(c)
				}
			}
			return len(held)
		}
		work := func() bool {
			for i := range pe {
				if pe[i].Local.Len() > 0 || pool[i].Len() > 0 {
					return true
				}
			}
			return false
		}
		for step := 0; work(); step++ {
			i := rnd.Intn(pes)
			switch {
			case pe[i].Local.Len() >= 2*k:
				if len(pe[i].free) > 0 {
					reused++
				} else {
					made++
				}
				pool[i].Put(pe[i].Release(k))
			case pe[i].Local.Len() > 0:
				pe[i].Visit(1 + rnd.Intn(uts.FrontierScan))
			case pool[i].Len() > 0:
				c, _ := pool[i].TakeNewest()
				pe[i].Reacquired(c)
			default:
				v := rnd.Intn(pes)
				if chunks := pool[v].TakeHalf(); len(chunks) > 0 {
					thefts++
					first := bufOf(chunks[0])
					for _, c := range pe[i].Landed(v, chunks) {
						pool[i].Put(c)
					}
					if last := pe[i].free[len(pe[i].free)-1]; bufOf(last) != first {
						t.Fatalf("step %d: the landed chunk's buffer is not on the thief's free list", step)
					}
					for _, c := range pe[v].free {
						if bufOf(c) == first {
							t.Fatalf("step %d: the victim kept the buffer of a chunk it lost", step)
						}
					}
				}
			}
			if step%64 == 0 {
				check(step)
			}
		}
		var nodes int64
		for i := range th {
			nodes += th[i].Nodes
		}
		if all := uts.SearchSequential(sp).Nodes; nodes != all {
			t.Errorf("visited %d nodes, the tree has %d", nodes, all)
		}
		// Every buffer ever made is on exactly one free list at the end, and
		// the releases that did not make one reused one.
		if held := check(-1); held != made || thefts == 0 || reused == 0 {
			t.Errorf("%d buffers made, %d held at the end; %d releases reused one; %d thefts", made, held, reused, thefts)
		}
		t.Logf("%d releases: %d buffers made, %d reused; %d thefts", made+reused, made, reused, thefts)
	})

	t.Run("a shared chunk is never reused", func(t *testing.T) {
		var th stats.Thread
		pe := NewPE(&uts.BenchTiny, &th, nil, nil)
		pe.SharedChunks = true // what the relaxed ring's worker sets
		back, stolen := make(stack.Chunk, 4), make(stack.Chunk, 4)
		pe.Reacquired(back)
		pe.Landed(1, []stack.Chunk{stolen})
		if len(pe.free) != 0 {
			t.Fatalf("%d buffers kept of chunks another thread may still be reading", len(pe.free))
		}
		if c := pe.Release(4); bufOf(c) == bufOf(back) || bufOf(c) == bufOf(stolen) {
			t.Error("a release wrote into a buffer it had handed out before")
		}
	})

	want := uts.SearchSequential(&uts.BenchSmall)
	for _, alg := range []Algorithm{UPCTerm, UPCDistMem} {
		t.Run(string(alg), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				res, err := Run(&uts.BenchSmall, Options{Algorithm: alg, Threads: 8, Chunk: 1, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if res.Nodes() != want.Nodes || res.Leaves() != want.Leaves {
					t.Errorf("seed %d: %d nodes / %d leaves, sequential %d / %d", seed, res.Nodes(), res.Leaves(), want.Nodes, want.Leaves)
				}
			}
		})
	}
}

// mallocsOf returns the heap allocations f makes, all goroutines counted.
func mallocsOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAllocationsPerRun pins the allocation count of a whole run at the
// finest grain, a release every other node: a buffer for every chunk that
// is in a pool at once (the tree's depth bounds that), two closures a probe
// cycle, the set-up — not one allocation a release, which is what a run
// made (nodes/2 ≈ 31,800 on this tree) while every release took a fresh
// slice.
func TestAllocationsPerRun(t *testing.T) {
	sp := &uts.BenchSmall
	const bound = 6000
	for _, alg := range []Algorithm{UPCTerm, UPCDistMem} {
		opt := Options{Algorithm: alg, Threads: 2, Chunk: 1, Seed: 1}
		var res *Result
		n := mallocsOf(func() {
			var err error
			if res, err = Run(sp, opt); err != nil {
				t.Fatal(err)
			}
		})
		var releases int64
		for i := range res.Threads {
			releases += res.Threads[i].Releases
		}
		if releases < 5*bound {
			t.Fatalf("%s: only %d releases: the run no longer releases at every other node", alg, releases)
		}
		if n > bound {
			t.Errorf("%s: %d allocations in a run of %d releases, want at most %d", alg, n, releases, bound)
		}
		t.Logf("%s: %d allocations, %d releases, %d nodes", alg, n, releases, res.Nodes())
	}
}
