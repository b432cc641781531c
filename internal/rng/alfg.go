package rng

import (
	"encoding/binary"
	"unsafe"
)

// ALFG is a splittable stream in the spirit of the additive
// lagged-Fibonacci generator option of the UTS distribution. It exists for
// the same reason the original did: on very large trees SHA-1 dominated the
// sequential cost, and a generator without it let the simulator explore
// larger trees in the same wall time. What a spawn costs is a serial chain
// of 19 SplitMix64 finalizers (two for the child key, alfgValue's 17):
// ~105 ns for one child, ~55 ns per child when two siblings' chains run
// side by side (SpawnPairInto) — a little over a SHA-NI BRG child, well
// under half the portable BRG kernel's — and ~16 ns per child when 32
// children's chains run side by side in the AVX-512 lanes of alfg32_amd64.s
// (SpawnLanes, the frontier's kernel; the rng.* rows of benchmark/ and
// DESIGN.md §7 hold the figures).
//
// Layout of the 20-byte state: bytes [0:8] hold a 64-bit stream key, bytes
// [8:16] a 64-bit position word, bytes [16:20] the cached 31-bit random value
// (so Rand is a pure read, exactly as with BRG). Spawning mixes the parent
// key with the child index through a SplitMix64 finalizer and then takes the
// child's random value from an additive Fibonacci register seeded from the
// mixed key and clocked twice around. The register evaluation is what makes
// child values statistically well-behaved even for adjacent child indices.
//
// ALFG is safe for concurrent use; it holds no state.
type ALFG struct{}

// alfgLong is the register length. The register is filled with alfgLong
// successive SplitMix64 outputs x[0..16] and clocked 2·alfgLong times by
// x[n] = x[n−17] + x[n−6] (mod 2⁶⁴); the value is the last word, x[50].
// The tap is 6, not the 5 of the classic (17,5) pair: trees generated this
// way are pinned all over the repository, so the construction is described
// as it computes, not corrected.
const alfgLong = 17

// alfgCoef is that clocking as what it is, a fixed linear map: x[50] =
// Σ alfgCoef[i]·x[i] mod 2⁶⁴. Seven words of the fill reach the output; x[0],
// into which the register loop ORs a 1 (alfg_test.go), is not one of them,
// so that bit never reached a tree. TestALFGLinearMap derives the vector
// from the loop itself.
var alfgCoef = [alfgLong]uint64{0, 0, 0, 1, 3, 0, 0, 0, 0, 1, 2, 0, 0, 0, 1, 4, 1}

// splitmix64 is the SplitMix64 finalizer: an invertible 64-bit mixer with
// full avalanche, used to derive child keys and to seed the register.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// alfgValue is the register output for key: the fill's 17 finalizers, each
// feeding the next, with the words that reach the output summed as they
// pass. The chain is the cost — ~13 cycles a link, nothing to overlap it
// with.
func alfgValue(key uint64) uint64 {
	var v uint64
	for _, c := range alfgCoef {
		key = splitmix64(key)
		v += c * key
	}
	return v
}

// alfgValuePair is alfgValue of two keys at once: the two chains are
// independent, so the second runs in the first one's latency shadow.
func alfgValuePair(k0, k1 uint64) (v0, v1 uint64) {
	for _, c := range alfgCoef {
		k0, k1 = splitmix64(k0), splitmix64(k1)
		v0 += c * k0
		v1 += c * k1
	}
	return v0, v1
}

// alfgPut writes the state of the node with the given key, position and
// register output.
func alfgPut(dst *State, key, pos, v uint64) {
	binary.BigEndian.PutUint64(dst[0:8], key)
	binary.BigEndian.PutUint64(dst[8:16], pos)
	binary.BigEndian.PutUint32(dst[16:20], uint32(v)&posMask)
}

// alfgChildKey mixes the parent key with child index i.
func alfgChildKey(key uint64, i int) uint64 {
	return splitmix64(key ^ splitmix64(uint64(i)+1))
}

// Init returns the root state for the seed.
func (ALFG) Init(seed int32) State {
	var s State
	key := splitmix64(uint64(uint32(seed)))
	alfgPut(&s, key, 0, alfgValue(key))
	return s
}

// Spawn derives child i's state by mixing the parent key with the child
// index and advancing the position word.
func (a ALFG) Spawn(s *State, i int) State {
	var c State
	a.SpawnInto(&c, s, i)
	return c
}

// SpawnInto is the write-in-place form of Spawn, mirroring BRG.SpawnInto so
// traversal loops can use either family without heap traffic. dst may be s.
func (ALFG) SpawnInto(dst *State, s *State, i int) {
	key := alfgChildKey(binary.BigEndian.Uint64(s[0:8]), i)
	pos := binary.BigEndian.Uint64(s[8:16]) + 1
	alfgPut(dst, key, pos, alfgValue(key))
}

// SpawnPairInto computes children i and i+1 of s into *dst0 and *dst1 in
// one call, the two register chains interleaved — the shape of
// Spawner.SpawnPair, and like it the form the binary interior of a tree is
// expanded with. The parent is read in full before anything is stored, so
// either destination may be s; if both are one State it ends up child i+1.
func (ALFG) SpawnPairInto(dst0, dst1 *State, s *State, i int) {
	key := binary.BigEndian.Uint64(s[0:8])
	pos := binary.BigEndian.Uint64(s[8:16]) + 1
	k0, k1 := alfgChildKey(key, i), alfgChildKey(key, i+1)
	v0, v1 := alfgValuePair(k0, k1)
	alfgPut(dst0, k0, pos, v0)
	alfgPut(dst1, k1, pos, v1)
}

// ALFGLanes is the width of the ALFG lane kernel (ALFG.SpawnLanes), and
// ALFGMinLanes the fewest spawns worth one call of it: a call costs
// ≈400 ns and ≈3.5 more a lane it carries, a pair ≈110, so from eight
// lanes up the wide call is the cheaper (DESIGN.md §7).
const (
	ALFGLanes    = 32
	ALFGMinLanes = 8
)

// SpawnLanes is SpawnInto for ALFGLanes (parent state, child index) pairs
// at once: for every j < n it writes child idx[j] of the state at byte
// offset off[j] from src to the 20 bytes at dst + j*stride. All parents
// are read before anything is stored, so destinations may overlap the
// parents; lanes from n up are neither read nor written. Go gathers the
// parents' keys and positions and writes the children; alfg32 runs the
// finalizer chains of all the lanes side by side. It may be called only
// where Lanes reports MaxLanes (the one CPUID decision covers both
// families' lane kernels), with 1 <= n <= ALFGLanes.
func (ALFG) SpawnLanes(dst *State, stride uintptr, src *State, off, idx *[ALFGLanes]uint32, n int) {
	var key, val, pos [ALFGLanes]uint64
	for j := range key[:n] {
		p := (*State)(unsafe.Add(unsafe.Pointer(src), off[j]))
		key[j] = binary.BigEndian.Uint64(p[0:8])
		pos[j] = binary.BigEndian.Uint64(p[8:16]) + 1
	}
	alfg32(&key, &val, idx)
	for j := range key[:n] {
		alfgPut((*State)(unsafe.Add(unsafe.Pointer(dst), uintptr(j)*stride)), key[j], pos[j], val[j])
	}
}

// Rand returns the cached 31-bit value computed at spawn time.
func (ALFG) Rand(s *State) int32 {
	return StateRand(s)
}

// Name reports "ALFG".
func (ALFG) Name() string { return "ALFG" }
