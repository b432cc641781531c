package rng

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// maxChildren mirrors uts.MaxChildren (not imported to keep this package
// dependency-free); SpawnMany batches in the tree generator never exceed it
// times the granularity.
const maxChildren = 100

// refSpawn is the single definition every kernel must match: SHA-1 (via
// crypto/sha1) of the 24-byte parent-state‖big-endian-child-index message.
func refSpawn(s *State, i int) State {
	var msg [StateSize + 4]byte
	copy(msg[:], s[:])
	binary.BigEndian.PutUint32(msg[StateSize:], uint32(i))
	return State(sha1.Sum(msg[:]))
}

// eachKernel runs check once per spawn kernel by setting the dispatch
// variables for the duration of a subtest. The SHA-NI and AVX-512 legs are
// skipped, with the reason logged, where the CPU does not have them.
func eachKernel(t *testing.T, check func(t *testing.T)) {
	for _, k := range Kernels {
		t.Run(k.String(), func(t *testing.T) {
			if !k.Available() {
				t.Skipf("CPUID reports no %v: that kernel cannot run on this host", k)
			}
			defer ForceKernel(k)()
			check(t)
		})
	}
}

// checkSpawnKernels asserts every entry point of the active kernel against
// refSpawn for one (parent, index) input: one lane, the pair, SpawnMany of
// odd and even length on both sides of MinLanes and of sixteen, the legal
// aliasings (dst == parent for all three, dst0 == dst1 for the pair), and
// under the sixteen-lane kernel every lane count of it.
func checkSpawnKernels(t *testing.T, s State, i int) {
	t.Helper()
	var want [33]State
	for j := range want {
		want[j] = refSpawn(&s, i+j)
	}
	var z Spawner
	z.Reset(&s)

	var got, got1 State
	z.SpawnInto(&got, i)
	if got != want[0] {
		t.Fatalf("SpawnInto(%x, %d) = %x, want %x", s, i, got, want[0])
	}
	if v := (BRG{}).Spawn(&s, i); v != want[0] {
		t.Fatalf("Spawn(%x, %d) = %x, want %x", s, i, v, want[0])
	}
	z.SpawnPair(&got, &got1, i)
	if got != want[0] || got1 != want[1] {
		t.Fatalf("SpawnPair(%x, %d) = %x, %x, want %x, %x", s, i, got, got1, want[0], want[1])
	}
	z.SpawnPair(&got, &got, i)
	if got != want[1] {
		t.Fatalf("SpawnPair(%x, %d) into one destination = %x, want child i+1 %x", s, i, got, want[1])
	}
	for _, n := range []int{4, 5, MinLanes, MaxLanes - 1, MaxLanes, MaxLanes + 1, 33} {
		many := make([]State, n)
		BRG{}.SpawnMany(many, &s, i)
		for j := range many {
			if many[j] != want[j] {
				t.Fatalf("SpawnMany(%x, base %d, len %d)[%d] = %x, want %x", s, i, n, j, many[j], want[j])
			}
		}
	}

	// Destination aliasing the parent: the parent is read in full before
	// anything is stored.
	alias := s
	BRG{}.SpawnInto(&alias, &alias, i)
	if alias != want[0] {
		t.Fatalf("SpawnInto(&s, &s, %d) = %x, want %x", i, alias, want[0])
	}
	many := [3]State{s}
	BRG{}.SpawnMany(many[:], &many[0], i)
	if many != [3]State{want[0], want[1], want[2]} {
		t.Fatalf("SpawnMany(dst, &dst[0], %d) = %x, want %x", i, many, want[:3])
	}
	if use16 {
		checkSpawnLanes(t, s, uint32(i))
	}
	if useNI {
		alias, got1 = s, State{}
		spawnPairNI(&alias, &got1, &alias, uint32(i))
		if alias != want[0] || got1 != want[1] {
			t.Fatalf("spawnPairNI(&s, _, &s, %d) = %x, %x, want %x, %x", i, alias, got1, want[0], want[1])
		}
		alias = s
		spawnPairNI(&got, &alias, &alias, uint32(i))
		if got != want[0] || alias != want[1] {
			t.Fatalf("spawnPairNI(_, &s, &s, %d) = %x, %x, want %x, %x", i, got, alias, want[0], want[1])
		}
	}
}

// checkSpawnLanes holds SpawnLanes to refSpawn at every lane count, with
// lanes that mix four parents (s, two of its descendants, its complement)
// and indices on both sides of i, through records of 20 and of 28 bytes.
func checkSpawnLanes(t *testing.T, s State, i uint32) {
	t.Helper()
	parents := [4]State{s, refSpawn(&s, 1), refSpawn(&s, int(i)), s}
	for b := range parents[3] {
		parents[3][b] ^= 0xff
	}
	var off, idx [MaxLanes]uint32
	for j := range off {
		off[j] = uint32(j*7%len(parents)) * StateSize
		idx[j] = i + uint32(j/2) - 3 // wraps through 0 and 2^32-1 at the boundary seeds
	}
	for _, stride := range []uintptr{StateSize, 28} {
		for n := 1; n <= MaxLanes; n++ {
			var dst [MaxLanes * 28]byte
			SpawnLanes((*State)(dst[:]), stride, &parents[0], &off, &idx, n)
			for j := 0; j < n; j++ {
				got := State(dst[uintptr(j)*stride:])
				if want := refSpawn(&parents[off[j]/StateSize], int(idx[j])); got != want {
					t.Fatalf("SpawnLanes n=%d stride=%d lane %d (parent %d, index %d) = %x, want %x",
						n, stride, j, off[j]/StateSize, idx[j], got, want)
				}
			}
		}
	}
}

// TestSpawnLanesInPlace is the layout the traversal uses: parents are
// records on a stack, the children land from the lowest parent's slot up
// and so on top of parents other lanes still have to read — and, with a
// record wider than a state, between the states nothing is written.
func TestSpawnLanesInPlace(t *testing.T) {
	if !AVX512.Available() {
		t.Skip("CPUID reports no avx512: the sixteen-lane kernel cannot run on this host")
	}
	const rec = 28
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		// np parents in the first np records, kids[p] children each, n lanes.
		np := 1 + r.Intn(MaxLanes)
		var buf, before [(MaxLanes + 1) * rec]byte
		r.Read(buf[:])
		before = buf
		var off, idx [MaxLanes]uint32
		var want [MaxLanes]State
		n := 0
		for p := 0; p < np && n < MaxLanes; p++ {
			parent := State(before[p*rec:])
			for c := 0; c < 1+r.Intn(3) && n < MaxLanes; c++ {
				off[n], idx[n] = uint32(p*rec), uint32(c)
				if r.Intn(8) == 0 {
					idx[n] = 1<<32 - 1 - uint32(c)
				}
				want[n] = refSpawn(&parent, int(idx[n]))
				n++
			}
		}
		for j := n; j < MaxLanes; j++ { // what a masked lane must not follow
			off[j], idx[j] = 1<<31-64, 0xdeadbeef
		}
		SpawnLanes((*State)(buf[:]), rec, (*State)(buf[:]), &off, &idx, n)
		for j := 0; j < MaxLanes+1; j++ {
			slot := buf[j*rec : (j+1)*rec]
			if j < n && State(slot) != want[j] {
				t.Fatalf("trial %d: %d parents, %d lanes: lane %d = %x, want %x", trial, np, n, j, slot[:StateSize], want[j])
			}
			keep := before[j*rec : (j+1)*rec]
			if j < n {
				slot, keep = slot[StateSize:], keep[StateSize:]
			}
			if string(slot) != string(keep) {
				t.Fatalf("trial %d: %d lanes: record %d written outside a live lane's 20 bytes", trial, n, j)
			}
		}
	}
}

// FuzzSpawnKernels is the differential fuzz target of all three kernels (make
// fuzz-smoke). The seeded corpus is the states and indices where a
// padding, carry or byte-order slip would hide from random inputs.
func FuzzSpawnKernels(f *testing.F) {
	var zero, ones State
	for j := range ones {
		ones[j] = 0xff
	}
	for _, s := range []State{zero, ones, BRG{}.Init(0)} {
		for _, i := range []uint32{0, 1, 1<<31 - 1, 1<<32 - 1} {
			f.Add(s[:], i)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, i uint32) {
		var s State
		copy(s[:], raw)
		eachKernel(t, func(t *testing.T) { checkSpawnKernels(t, s, int(i)) })
	})
}

// TestSpawnFastAgainstStdlib is the differential property test of the
// kernels: on random states and child indices across the whole uint32
// range, each must agree bit-for-bit with crypto/sha1 on the 24-byte spawn
// message, through every entry point.
func TestSpawnFastAgainstStdlib(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		f := func(raw [StateSize]byte, i uint32) bool {
			checkSpawnKernels(t, State(raw), int(i))
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
			t.Error(err)
		}
	})
}

// TestSpawnFastBoundaryIndices exercises the child-index word at its
// boundary values, where a padding or byte-order slip would hide from
// random testing.
func TestSpawnFastBoundaryIndices(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(7))
		indices := []int{0, 1, 2, maxChildren - 1, maxChildren, 255, 256, 65535, 65536,
			1<<31 - 1, int(uint32(1 << 31)), int(uint32(0xffffffff))}
		for trial := 0; trial < 50; trial++ {
			var s State
			r.Read(s[:])
			for _, i := range indices {
				checkSpawnKernels(t, s, i)
			}
		}
	})
}

// TestSpawnIntoMatchesSpawn checks the in-place form against the value
// form, including that repeated SpawnInto calls into the same destination
// fully overwrite it.
func TestSpawnIntoMatchesSpawn(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(11))
		var dst State
		for trial := 0; trial < 200; trial++ {
			var s State
			r.Read(s[:])
			i := int(uint32(r.Int63()))
			BRG{}.SpawnInto(&dst, &s, i)
			if want := (BRG{}).Spawn(&s, i); dst != want {
				t.Fatalf("SpawnInto diverges from Spawn at index %d", i)
			}
		}
	})
}

// TestSpawnManyMatchesSpawn cross-checks the batched kernel against the
// reference for every batch width up to MaxChildren and for the root
// fan-out of the full-scale trees, at both base 0 and a granularity-style
// nonzero base.
func TestSpawnManyMatchesSpawn(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(13))
		var s State
		r.Read(s[:])
		const rootFan = 2000 // B0 of the full-scale trees: 125 sixteen-lane calls
		dst := make([]State, rootFan)
		widths := []int{rootFan}
		for k := 1; k <= maxChildren; k++ {
			widths = append(widths, k)
		}
		for _, k := range widths {
			for _, base := range []int{0, 7 * k, 1 << 20} {
				batch := dst[:k]
				BRG{}.SpawnMany(batch, &s, base)
				for j, got := range batch {
					if want := refSpawn(&s, base+j); got != want {
						t.Fatalf("k=%d base=%d child %d: batch %x, want %x", k, base, j, got, want)
					}
				}
			}
		}
	})
}

// TestSpawnerReuse checks that one Reset serves SpawnInto and SpawnPair
// calls in any order and any number — the property the per-node hoisting
// relies on — and that the Spawner holds a copy of the parent, not a
// reference to it.
func TestSpawnerReuse(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(17))
		var s State
		r.Read(s[:])
		parent := s
		var z Spawner
		z.Reset(&parent)
		parent = State{} // the Spawner must not see this
		for n, i := range r.Perm(300) {
			var got, got1 State
			if n%2 == 0 {
				z.SpawnInto(&got, i)
			} else {
				z.SpawnPair(&got, &got1, i)
				if want := refSpawn(&s, i+1); got1 != want {
					t.Fatalf("reused Spawner wrong at pair index %d+1", i)
				}
			}
			if want := refSpawn(&s, i); got != want {
				t.Fatalf("reused Spawner wrong at index %d", i)
			}
		}
	})
}

// TestSpawnAllocatesNothing holds the Spawner entry points to zero heap
// allocations under every kernel.
func TestSpawnAllocatesNothing(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		s := BRG{}.Init(1)
		var kids [MaxLanes + 3]State
		if n := testing.AllocsPerRun(1000, func() {
			var z Spawner
			z.Reset(&s)
			z.SpawnPair(&kids[0], &kids[1], 0)
			z.SpawnMany(kids[:], 2)
			s = kids[2]
		}); n != 0 {
			t.Errorf("Reset+SpawnPair+SpawnMany: %v allocs per run, want 0", n)
		}
	})
}

// TestKernelName pins the names the CLIs print.
func TestKernelName(t *testing.T) {
	narrow := map[bool]string{true: "sha-ni x2", false: "go-unrolled"}
	eachKernel(t, func(t *testing.T) {
		want := narrow[useNI]
		if use16 {
			want = "avx512 x16 + " + want
		}
		if got := KernelName(); got != want {
			t.Errorf("KernelName() = %q with useNI=%v use16=%v, want %q", got, useNI, use16, want)
		}
	})
}

// BenchmarkSpawn measures the spawn entry points under each kernel.
// "one" is the one-shot value form, "into" removes the return copy, "pair"
// is one binary expansion, "many" a full MaxChildren batch (the one entry
// point the avx512 leg does not share with the narrow kernel under it);
// "lanes16" and "lanes6" are SpawnLanes full and at its break-even;
// "crypto-sha1"
// is the stdlib on the same message, the reference the kernels are pinned
// to. All report ns per spawned child.
func BenchmarkSpawn(b *testing.B) {
	s := BRG{}.Init(0)
	for _, k := range Kernels {
		if !k.Available() {
			continue
		}
		restore := ForceKernel(k)
		name := k.String()
		b.Run(name+"/one", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s = sha1Spawn(&s, i&1)
			}
		})
		b.Run(name+"/into", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BRG{}.SpawnInto(&s, &s, i&1)
			}
		})
		b.Run(name+"/pair", func(b *testing.B) {
			var z Spawner
			var kids [2]State
			b.ReportAllocs()
			for i := 0; i < b.N; i += 2 {
				z.Reset(&s)
				z.SpawnPair(&kids[0], &kids[1], 0)
				s = kids[i>>1&1]
			}
		})
		b.Run(name+"/many", func(b *testing.B) {
			var dst [maxChildren]State
			b.ReportAllocs()
			for i := 0; i < b.N; i += maxChildren {
				BRG{}.SpawnMany(dst[:], &s, 0)
				s = dst[i/maxChildren%maxChildren]
			}
		})
		if k == AVX512 {
			// Sixteen parents' pairs of children in place, the traversal's
			// call; and the same call six lanes full, where it breaks even
			// with three SpawnPairs.
			for _, lanes := range []int{MaxLanes, MinLanes} {
				b.Run(fmt.Sprintf("%s/lanes%d", name, lanes), func(b *testing.B) {
					var rec [MaxLanes][28]byte
					var off, idx [MaxLanes]uint32
					for j := range off {
						off[j], idx[j] = uint32(j/2*28), uint32(j&1)
					}
					for i := 0; i < b.N; i += lanes {
						SpawnLanes((*State)(rec[0][:]), 28, (*State)(rec[0][:]), &off, &idx, lanes)
					}
				})
			}
		}
		restore()
	}
	b.Run("crypto-sha1", func(b *testing.B) {
		var msg [StateSize + 4]byte
		copy(msg[:], s[:])
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			msg[StateSize+3] = byte(i)
			d := sha1.Sum(msg[:])
			copy(s[:], d[:])
		}
	})
}
