package rng

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// checkALFGLanes holds ALFG.SpawnLanes to SpawnInto at every lane count
// from 1 to ALFGLanes, called as expandFrontier calls it: the parents are
// the first records of a stack of 28-byte records (uts.Node's layout) and
// the children land from the first record up, on top of parents other lanes
// still read. Lanes mix four parents (s, two of its children, its
// complement) and indices on both sides of i, so the boundary seeds wrap
// through 0 and 2³²−1; nothing outside a live lane's 20 bytes is written.
func checkALFGLanes(t *testing.T, s State, i uint32) {
	t.Helper()
	const rec = 28
	parents := [4]State{s, ALFG{}.Spawn(&s, 1), ALFG{}.Spawn(&s, int(i)), s}
	for b := range parents[3] {
		parents[3][b] ^= 0xff
	}
	var off, idx [ALFGLanes]uint32
	for j := range off {
		off[j] = uint32(j*7%len(parents)) * rec
		idx[j] = i + uint32(j/2) - 3
	}
	for n := 1; n <= ALFGLanes; n++ {
		var buf [(ALFGLanes + 1) * rec]byte
		for b := range buf {
			buf[b] = byte(b)
		}
		for p := range parents {
			copy(buf[p*rec:], parents[p][:])
		}
		before := buf
		ALFG{}.SpawnLanes((*State)(buf[:]), rec, (*State)(buf[:]), &off, &idx, n)
		for j := 0; j <= ALFGLanes; j++ {
			slot, keep := buf[j*rec:(j+1)*rec], before[j*rec:(j+1)*rec]
			if j < n {
				var want State
				ALFG{}.SpawnInto(&want, &parents[off[j]/rec], int(idx[j]))
				if got := State(slot); got != want {
					t.Fatalf("SpawnLanes n=%d lane %d (parent %d, index %d) = %x, want %x", n, j, off[j]/rec, idx[j], got, want)
				}
				slot, keep = slot[StateSize:], keep[StateSize:]
			}
			if string(slot) != string(keep) {
				t.Fatalf("SpawnLanes n=%d: record %d written outside a live lane's 20 bytes", n, j)
			}
		}
	}
}

// TestALFGLanesAgainstSpawnInto runs checkALFGLanes on random states and
// on the indices where a zero-extension or carry slip would show.
func TestALFGLanesAgainstSpawnInto(t *testing.T) {
	if !AVX512.Available() {
		t.Skip("CPUID reports no avx512: the ALFG lane kernel cannot run on this host")
	}
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		var s State
		r.Read(s[:])
		for _, i := range []uint32{0, 3, maxChildren, 1<<31 - 1, 1 << 31, 1<<32 - 1} {
			checkALFGLanes(t, s, i)
		}
	}
}

// FuzzALFGKernels is the differential fuzz target of the ALFG entry points
// (make fuzz-smoke), in the shape of FuzzSpawnKernels; the lane entry point
// joins them where the CPU has it.
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
		if AVX512.Available() {
			checkALFGLanes(t, s, i)
		}
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

// BenchmarkSpawnALFGLanes is ALFG.SpawnLanes in place on 28-byte records,
// parents' pairs of children as a frontier lays them out, per spawned child,
// at full width and at a few narrower counts — where a call breaks even
// with pairs is ALFGMinLanes.
func BenchmarkSpawnALFGLanes(b *testing.B) {
	if !AVX512.Available() {
		b.Skip("CPUID reports no avx512: the ALFG lane kernel cannot run on this host")
	}
	for _, lanes := range []int{ALFGLanes, 16, ALFGMinLanes, 4} {
		b.Run(fmt.Sprintf("lanes%d", lanes), func(b *testing.B) {
			var rec [ALFGLanes][28]byte
			var off, idx [ALFGLanes]uint32
			for j := range off {
				off[j], idx[j] = uint32(j/2*28), uint32(j&1)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i += lanes {
				ALFG{}.SpawnLanes((*State)(rec[0][:]), 28, (*State)(rec[0][:]), &off, &idx, lanes)
			}
		})
	}
}
