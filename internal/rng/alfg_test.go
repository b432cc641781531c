package rng

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// refALFGValue is the register evaluation spelled out, the way every ALFG
// tree in the repository was first generated: fill 17 words from a
// SplitMix64 chain, force the first odd, clock twice around. It is the
// definition alfgValue's linear map is held to.
func refALFGValue(key uint64) uint64 {
	var reg [alfgLong]uint64
	s := key
	for i := range reg {
		s = splitmix64(s)
		reg[i] = s
	}
	reg[0] |= 1
	return refALFGClock(&reg)
}

// refALFGClock is the clocking half on its own, so TestALFGLinearMap can
// feed it basis vectors.
func refALFGClock(reg *[alfgLong]uint64) uint64 {
	const short, warm = 5, 2 * alfgLong
	j, k := alfgLong-short-1, 0
	var v uint64
	for i := 0; i < warm; i++ {
		v = reg[j] + reg[k]
		reg[k] = v
		j = (j + 1) % alfgLong
		k = (k + 1) % alfgLong
	}
	return v
}

// refALFGSpawn is the original Spawn over the reference register.
func refALFGSpawn(s *State, i int) State {
	key := binary.BigEndian.Uint64(s[0:8])
	pos := binary.BigEndian.Uint64(s[8:16])
	child := splitmix64(key ^ splitmix64(uint64(i)+1))
	var c State
	binary.BigEndian.PutUint64(c[0:8], child)
	binary.BigEndian.PutUint64(c[8:16], pos+1)
	binary.BigEndian.PutUint32(c[16:20], uint32(refALFGValue(child))&posMask)
	return c
}

// TestALFGKnownAnswer pins the generator to literal bytes, independently of
// the reference above: two roots, two children of one, and a grandchild.
func TestALFGKnownAnswer(t *testing.T) {
	root := ALFG{}.Init(0)
	c1 := ALFG{}.Spawn(&root, 1)
	for _, tc := range []struct {
		name string
		got  State
		want string
	}{
		{"Init(0)", root, "e220a8397b1dcdaf000000000000000018a9752d"},
		{"Init(42)", ALFG{}.Init(42), "bdd732262feb6e9500000000000000007c091a11"},
		{"Init(0).Spawn(0)", ALFG{}.Spawn(&root, 0), "d300120a5ea35cac00000000000000016e6b3405"},
		{"Init(0).Spawn(1)", c1, "d4993d56a5f40fb6000000000000000120db43ea"},
		{"Init(0).Spawn(1).Spawn(1999)", ALFG{}.Spawn(&c1, 1999), "2ab1c1560a28200400000000000000020bd7d4ae"},
	} {
		if got := hex.EncodeToString(tc.got[:]); got != tc.want {
			t.Errorf("ALFG %s = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestALFGLinearMap derives the seventeen coefficients from the register
// loop — its output on each basis vector — and holds alfgCoef to them. The
// loop is linear mod 2⁶⁴, so the vector is the whole of it.
func TestALFGLinearMap(t *testing.T) {
	var derived [alfgLong]uint64
	for i := range derived {
		var reg [alfgLong]uint64
		reg[i] = 1
		derived[i] = refALFGClock(&reg)
	}
	if derived != alfgCoef {
		t.Fatalf("register loop's linear map is %v, alfgCoef says %v", derived, alfgCoef)
	}
	if alfgCoef[0] != 0 {
		t.Errorf("x[0] reaches the output (coefficient %d): the forced low bit must be applied", alfgCoef[0])
	}
}

// checkALFGKernels asserts every ALFG entry point against the reference
// for one (parent, index) input, with the legal aliasings: dst == parent
// for both forms, dst0 == dst1 for the pair.
func checkALFGKernels(t *testing.T, s State, i int) {
	t.Helper()
	want0, want1 := refALFGSpawn(&s, i), refALFGSpawn(&s, i+1)
	var a ALFG

	if got := a.Spawn(&s, i); got != want0 {
		t.Fatalf("Spawn(%x, %d) = %x, want %x", s, i, got, want0)
	}
	var got0, got1 State
	a.SpawnInto(&got0, &s, i)
	if got0 != want0 {
		t.Fatalf("SpawnInto(%x, %d) = %x, want %x", s, i, got0, want0)
	}
	got0 = State{}
	a.SpawnPairInto(&got0, &got1, &s, i)
	if got0 != want0 || got1 != want1 {
		t.Fatalf("SpawnPairInto(%x, %d) = %x, %x, want %x, %x", s, i, got0, got1, want0, want1)
	}
	a.SpawnPairInto(&got0, &got0, &s, i)
	if got0 != want1 {
		t.Fatalf("SpawnPairInto(%x, %d) into one destination = %x, want child i+1 %x", s, i, got0, want1)
	}

	alias := s
	a.SpawnInto(&alias, &alias, i)
	if alias != want0 {
		t.Fatalf("SpawnInto(&s, &s, %d) = %x, want %x", i, alias, want0)
	}
	alias, got1 = s, State{}
	a.SpawnPairInto(&alias, &got1, &alias, i)
	if alias != want0 || got1 != want1 {
		t.Fatalf("SpawnPairInto(&s, _, &s, %d) = %x, %x, want %x, %x", i, alias, got1, want0, want1)
	}
	alias, got0 = s, State{}
	a.SpawnPairInto(&got0, &alias, &alias, i)
	if got0 != want0 || alias != want1 {
		t.Fatalf("SpawnPairInto(_, &s, &s, %d) = %x, %x, want %x, %x", i, got0, alias, want0, want1)
	}
}

// TestALFGFastAgainstReference is the differential property test: random
// states and child indices over the whole int32 range and beyond, every
// entry point, plus the roots of random seeds.
func TestALFGFastAgainstReference(t *testing.T) {
	f := func(raw [StateSize]byte, i uint32, seed int32) bool {
		checkALFGKernels(t, State(raw), int(i))
		key := splitmix64(uint64(uint32(seed)))
		if got, want := alfgValue(key), refALFGValue(key); got != want {
			t.Fatalf("alfgValue(%#x) = %#x, want %#x", key, got, want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var s State
		r.Read(s[:])
		for _, i := range []int{0, 1, 2, maxChildren - 1, maxChildren, 1<<31 - 1, -1, -2} {
			checkALFGKernels(t, s, i)
		}
	}
}

// FuzzALFGKernels is the differential fuzz target of the ALFG entry points
// (make fuzz-smoke), in the shape of FuzzSpawnKernels.
func FuzzALFGKernels(f *testing.F) {
	var zero, ones State
	for j := range ones {
		ones[j] = 0xff
	}
	for _, s := range []State{zero, ones, ALFG{}.Init(0)} {
		for _, i := range []uint32{0, 1, 1<<31 - 1, 1<<32 - 1} {
			f.Add(s[:], i)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, i uint32) {
		var s State
		copy(s[:], raw)
		checkALFGKernels(t, s, int(i))
		checkALFGKernels(t, s, int(int32(i))) // negative indices reach uint64(i)+1 sign-extended
	})
}

// BenchmarkSpawnALFGPair is one binary expansion through SpawnPairInto, per
// spawned child; BenchmarkSpawnALFG beside it is the single spawn.
func BenchmarkSpawnALFGPair(b *testing.B) {
	s := ALFG{}.Init(0)
	var kids [2]State
	b.ReportAllocs()
	for i := 0; i < b.N; i += 2 {
		ALFG{}.SpawnPairInto(&kids[0], &kids[1], &s, 0)
		s = kids[i>>1&1]
	}
}
