package des

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/uts"
)

// refLess is the event order spelled out — time, then proc ID, then the
// proc's sequence number, one branch each — over the unpacked fields. The
// packed comparison and siftDown's selection are held to it.
func refLess(a, b ev) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.p.id != b.p.id {
		return a.p.id < b.p.id
	}
	return a.key&seqMax < b.key&seqMax
}

// tiedEvents draws n events with distinct (id, seq) whose keys collide as
// often as they can: spread time values (0 puts them all at one instant, so
// every comparison falls through to the id) over a few procs, so runs of
// equal (t, id) differ in seq alone. Times and ids include the extremes of
// their fields.
func tiedEvents(r *rand.Rand, procs []*Proc, n int, spread int64) []ev {
	evs := make([]ev, n)
	for i := range evs {
		p := procs[r.Intn(len(procs))]
		t := int64(1) << 40
		if spread > 0 {
			t += r.Int63n(spread)
		}
		if r.Intn(16) == 0 {
			t = int64(r.Intn(2)) * (1<<63 - 1) // 0 or the largest instant
		}
		evs[i] = ev{t: t, key: p.nextKey(), p: p}
	}
	return evs
}

// heapProcs is a handful of procs for tiedEvents, ids and sequence counters
// from both ends of their fields — so the two fields meet with all bits set
// on either side of the boundary.
func heapProcs(r *rand.Rand) []*Proc {
	procs := []*Proc{{id: 0}, {id: 1}, {id: 2}, {id: MaxPEs / 2}, {id: MaxPEs - 2}, {id: MaxPEs - 1}}
	for _, p := range procs {
		if r.Intn(2) == 0 {
			p.seq = seqMax - 200 // tiedEvents draws fewer than that
		}
	}
	return procs
}

// TestPackedOrderMatchesReference holds the one-subtraction comparison to
// the three-branch one on every pair of a heavily tied event set, and the
// inline-commit test to its definition over the same fields.
func TestPackedOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, spread := range []int64{0, 3, 1 << 40} {
		evs := tiedEvents(r, heapProcs(r), 120, spread)
		for i := range evs {
			for j := range evs {
				a, b := evs[i], evs[j]
				if got, want := a.less(&b), refLess(a, b); got != want {
					t.Fatalf("less((%d,%d,%d), (%d,%d,%d)) = %v, want %v",
						a.t, a.p.id, a.key&seqMax, b.t, b.p.id, b.key&seqMax, got, want)
				}
				h := flatHeap{a: []ev{a}}
				want := a.t > b.t || (a.t == b.t && a.p.id > b.p.id)
				if got := h.rootAfter(b.t, b.p.id); got != want {
					t.Fatalf("root (%d,%d) after (%d,%d) = %v, want %v", a.t, a.p.id, b.t, b.p.id, got, want)
				}
			}
		}
	}
}

// TestFlatHeapMatchesReferenceOrder drains random, heavily tied event
// streams through push, pop and exchange and checks every event that comes
// off against the reference order, at every heap size from 0 to 70 — so
// that each shape of the partial last group (0–3 children, at the root, one
// and two levels down) and the full groups above it are all sifted through.
func TestFlatHeapMatchesReferenceOrder(t *testing.T) {
	for size := 0; size <= 70; size++ {
		for _, spread := range []int64{0, 3, 1 << 40} {
			r := rand.New(rand.NewSource(int64(size)*7 + spread))
			evs := tiedEvents(r, heapProcs(r), 2*size+8, spread)
			name := fmt.Sprintf("size=%d spread=%d", size, spread)

			var h flatHeap
			live := append([]ev(nil), evs[:size]...) // what the heap should hold
			for _, e := range live {
				h.push(e)
			}
			takeMin := func() ev {
				sort.Slice(live, func(i, j int) bool { return refLess(live[i], live[j]) })
				m := live[0]
				live = live[1:]
				return m
			}

			// Exchanges at constant size: the newcomer must order at or after
			// the root (the park condition), so it is the later of the two.
			for _, e := range evs[size:] {
				if size == 0 {
					break
				}
				live = append(live, e)
				want := takeMin()
				if refLess(e, h.a[0]) {
					// Not a legal exchange: push then pop instead.
					h.push(e)
					if got, ok := h.pop(); !ok || got != want {
						t.Fatalf("%s: push+pop gave %+v, want %+v", name, got, want)
					}
					continue
				}
				if got := h.exchange(e); got != want {
					t.Fatalf("%s: exchange gave %+v, want %+v", name, got, want)
				}
			}
			// Then drain: every size from here down to zero.
			for len(live) > 0 {
				want := takeMin()
				if got, ok := h.pop(); !ok || got != want {
					t.Fatalf("%s: pop at %d left gave %+v, want %+v", name, len(live)+1, got, want)
				}
			}
			if _, ok := h.pop(); ok || !h.empty() {
				t.Fatalf("%s: heap not empty after the drain", name)
			}
		}
	}
}

// TestKeyFieldBounds: the packed key's two field widths fail loudly. A
// configuration past MaxPEs is an error before anything is spawned, a raw
// Spawn past it panics, and so does a sequence number that would carry into
// the id.
func TestKeyFieldBounds(t *testing.T) {
	if _, err := Run(&uts.BenchTiny, Config{PEs: MaxPEs + 1}); err == nil {
		t.Errorf("Run accepted %d PEs, more than the key's id field orders", MaxPEs+1)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	full := New()
	full.nprocs = MaxPEs
	mustPanic("Spawn past MaxPEs", func() { full.Spawn(func(*Proc) {}) })

	p := &Proc{id: 3, seq: seqMax - 1}
	if k := p.nextKey(); k != 3<<seqBits|seqMax {
		t.Errorf("last key of PE 3 = %#x, want %#x", k, uint64(3<<seqBits|seqMax))
	}
	mustPanic("a sequence number past its field", func() { p.nextKey() })
	if p.seq != seqMax {
		t.Errorf("the refused draw moved seq to %#x", p.seq)
	}
}

// BenchmarkHeapExchange is the engine's hottest heap operation — the
// minimum replaced by a later event, one sift-down — at the heap sizes of a
// 256- and a 4096-PE run, with every event at its own instant and with
// eight PEs to an instant, where comparisons fall through to the tie-break.
func BenchmarkHeapExchange(b *testing.B) {
	for _, size := range []int{256, 4096} {
		for _, tc := range []struct {
			name string
			tie  int64 // instants are multiples of it
		}{{"no-ties", 1}, {"ties", 8}} {
			tie := tc.tie
			b.Run(fmt.Sprintf("n=%d/%s", size, tc.name), func(b *testing.B) {
				r := rand.New(rand.NewSource(1))
				var h flatHeap
				procs := make([]*Proc, size)
				for i := range procs {
					procs[i] = &Proc{id: i}
					h.push(ev{t: r.Int63n(int64(size)) / tie * tie, key: procs[i].nextKey(), p: procs[i]})
				}
				// Each proc resumes a random while after it ran, as a PE
				// taking a steal or a batch of nodes does.
				delays := make([]int64, 1024)
				for i := range delays {
					delays[i] = (1 + r.Int63n(int64(size))) / tie * tie
				}
				b.ReportAllocs()
				b.ResetTimer()
				e, _ := h.pop()
				for i := 0; i < b.N; i++ {
					p := e.p
					e = ev{t: e.t + delays[i&1023], key: p.nextKey(), p: p}
					if !h.rootAfter(e.t, p.id) { // else it runs again at once: an inline commit
						e = h.exchange(e)
					}
				}
			})
		}
	}
}
