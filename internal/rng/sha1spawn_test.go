package rng

import (
	"crypto/sha1"
	"encoding/binary"
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
// variable for the duration of a subtest. The SHA-NI leg is skipped, with
// the reason logged, where the CPU does not have it.
func eachKernel(t *testing.T, check func(t *testing.T)) {
	for _, ni := range []bool{true, false} {
		name := "go-unrolled"
		if ni {
			name = "sha-ni"
		}
		t.Run(name, func(t *testing.T) {
			if ni && !niAvailable {
				t.Skip("CPUID reports no SHA/SSSE3/SSE4.1: the SHA-NI kernel cannot run on this host")
			}
			defer ForceKernel(ni)()
			check(t)
		})
	}
}

// checkSpawnKernels asserts every entry point of the active kernel against
// refSpawn for one (parent, index) input: one lane, the pair, SpawnMany of
// odd and even length, and the legal aliasings (dst == parent for all
// three, dst0 == dst1 for the pair).
func checkSpawnKernels(t *testing.T, s State, i int) {
	t.Helper()
	var want [5]State
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
	for _, n := range []int{4, 5} {
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
	if niAvailable && useNI {
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

// FuzzSpawnKernels is the differential fuzz target of both kernels (make
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
// reference for every batch width up to MaxChildren, at both base 0 and a
// granularity-style nonzero base.
func TestSpawnManyMatchesSpawn(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(13))
		var s State
		r.Read(s[:])
		dst := make([]State, maxChildren)
		for k := 1; k <= maxChildren; k++ {
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
// allocations under both kernels.
func TestSpawnAllocatesNothing(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		s := BRG{}.Init(1)
		var kids [3]State
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

// TestKernelName pins the two names the CLIs print.
func TestKernelName(t *testing.T) {
	want := map[bool]string{true: "sha-ni x2", false: "go-unrolled"}
	eachKernel(t, func(t *testing.T) {
		if got := KernelName(); got != want[useNI] {
			t.Errorf("KernelName() = %q with useNI=%v, want %q", got, useNI, want[useNI])
		}
	})
}

// BenchmarkSpawn measures the spawn entry points under each kernel.
// "one" is the one-shot value form, "into" removes the return copy, "pair"
// is one binary expansion, "many" a full MaxChildren batch; "crypto-sha1"
// is the stdlib on the same message, the reference the kernels are pinned
// to. All report ns per spawned child.
func BenchmarkSpawn(b *testing.B) {
	s := BRG{}.Init(0)
	for _, ni := range []bool{true, false} {
		if ni && !niAvailable {
			continue
		}
		restore := ForceKernel(ni)
		name := KernelName()
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
