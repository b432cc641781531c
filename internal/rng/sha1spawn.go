package rng

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// This file is the portable spawn kernel: SHA-1 specialized for the one
// message shape the tree generator ever hashes — the 24-byte concatenation
// of a 20-byte parent state and a 4-byte big-endian child index. That
// message always fits one 64-byte block, so the padding is known at compile
// time and baked into the round constants: word 6 is 0x80000000 (the 0x80
// terminator), words 7..14 are zero (folded away entirely), and word 15 is
// 192 (the bit length). The 80 rounds are fully unrolled with the message
// schedule kept in named locals, so there is no pad buffer, no message
// copy, no schedule array and no per-round branch — and nothing escapes to
// the heap.
//
// The kernel is additionally split around an algebraic property of the
// message: rounds 0..4 consume only words 0..4 (the parent state), so for
// a fixed parent the chaining registers after round 4 are the same for
// every child index. Spawner caches that prefix once per parent; each
// SpawnInto then runs only rounds 5..79.
//
// On amd64 CPUs with the SHA extensions the same Spawner methods run the
// two-lane kernel of sha1spawn_amd64.s instead (useNI, decided once from
// CPUID — there is no knob), and where there is AVX-512 the spawns that
// come sixteen at a time run the multi-buffer kernel of
// sha1spawn16_amd64.s (use16, decided the same way); this Go kernel is then
// the fallback for every other machine and the third oracle of the
// differential tests, which pin all three kernels bit-for-bit to
// crypto/sha1 (refSpawn in sha1spawn_test.go).

// SHA-1 initial chaining value and the round constant of rounds 0..19
// (FIPS 180-1 §7); the later round constants appear literally below.
const (
	sha1Init0 = 0x67452301
	sha1Init1 = 0xefcdab89
	sha1Init2 = 0x98badcfe
	sha1Init3 = 0x10325476
	sha1Init4 = 0xc3d2e1f0

	sha1K0 = 0x5a827999
)

// KernelName reports which spawn kernels this process runs, BRG's and
// then ALFG's: for BRG "sha-ni x2" (SHA extensions, two sibling lanes per
// call) or "go-unrolled", behind "avx512 x16 + " where spawns that come
// sixteen at a time have the AVX-512 kernel; for ALFG "avx512 x32" where
// they come 32 at a time, else "pair x2". A sequential rate means nothing
// without it.
func KernelName() string {
	brg, alfg := "go-unrolled", "pair x2"
	if useNI {
		brg = "sha-ni x2"
	}
	if use16 {
		brg, alfg = "avx512 x16 + "+brg, "avx512 x32"
	}
	return "BRG " + brg + ", ALFG " + alfg
}

// MaxLanes is the width of the widest SHA-1 kernel, and MinLanes the
// fewest spawns worth one call of it (ALFG's are ALFGLanes and
// ALFGMinLanes): a sixteen-lane call costs ≈170 ns whatever it carries, a
// SHA-NI pair ≈62 ns, so from six lanes up the wide call is the cheaper
// (DESIGN.md §7 has the measurement).
const (
	MaxLanes = 16
	MinLanes = 6
)

// Lanes reports how many SHA-1 spawns one kernel call of this process
// computes side by side: MaxLanes where the CPU has AVX-512 (SpawnLanes,
// and then ALFG.SpawnLanes too), else the 2 of SpawnPair. A traversal that
// can pick its order fills them.
func Lanes() int {
	if use16 {
		return MaxLanes
	}
	return 2
}

// SpawnLanes is the sixteen-lane kernel with a lane being any (parent
// state, child index) pair: for every j < n it writes child idx[j] of the
// state at byte offset off[j] from src to the 20 bytes at dst + j*stride.
// All parents are read before anything is stored, so destinations may
// overlap the parents; lanes from n up are neither read nor written. It is
// for callers that hold their states inside larger records (uts.Node) and
// may be called only where Lanes reports MaxLanes, with 1 <= n <= MaxLanes.
func SpawnLanes(dst *State, stride uintptr, src *State, off, idx *[MaxLanes]uint32, n int) {
	spawn16(dst, stride, src, off, idx, n)
}

// Spawner holds what the spawn kernel keeps per parent: a copy of the
// parent state (all the SHA-NI kernel reads) and, for the portable kernel,
// the five parent message words and the SHA-1 chaining registers after the
// five rounds that consume them. The zero value is meaningless; call Reset
// first. A Spawner is a plain value (no heap state) intended to live on
// the caller's stack for the duration of one node expansion; because it
// copies the parent, any destination may alias the state it was Reset to.
type Spawner struct {
	parent             State
	w0, w1, w2, w3, w4 uint32 // parent state as big-endian message words
	a, b, c, d, e      uint32 // chaining registers after rounds 0..4
}

// Reset loads the parent state s. For the portable kernel it also runs
// the child-independent rounds 0..4; the SHA-NI kernel does four rounds
// per instruction and has no use for them.
func (z *Spawner) Reset(s *State) {
	z.parent = *s
	if useNI {
		return
	}
	w0 := binary.BigEndian.Uint32(s[0:4])
	w1 := binary.BigEndian.Uint32(s[4:8])
	w2 := binary.BigEndian.Uint32(s[8:12])
	w3 := binary.BigEndian.Uint32(s[12:16])
	w4 := binary.BigEndian.Uint32(s[16:20])
	a, b, c, d, e := uint32(sha1Init0), uint32(sha1Init1), uint32(sha1Init2), uint32(sha1Init3), uint32(sha1Init4)
	e += bits.RotateLeft32(a, 5) + (((c ^ d) & b) ^ d) + sha1K0 + w0
	b = bits.RotateLeft32(b, 30)
	d += bits.RotateLeft32(e, 5) + (((b ^ c) & a) ^ c) + sha1K0 + w1
	a = bits.RotateLeft32(a, 30)
	c += bits.RotateLeft32(d, 5) + (((a ^ b) & e) ^ b) + sha1K0 + w2
	e = bits.RotateLeft32(e, 30)
	b += bits.RotateLeft32(c, 5) + (((e ^ a) & d) ^ a) + sha1K0 + w3
	d = bits.RotateLeft32(d, 30)
	a += bits.RotateLeft32(b, 5) + (((d ^ e) & c) ^ e) + sha1K0 + w4
	c = bits.RotateLeft32(c, 30)
	z.w0, z.w1, z.w2, z.w3, z.w4 = w0, w1, w2, w3, w4
	z.a, z.b, z.c, z.d, z.e = a, b, c, d, e
}

// SpawnPair writes the states of children i and i+1 of the Reset parent
// into *dst0 and *dst1, in that order (dst0 == dst1 keeps child i+1). The
// paper's trees are binary in the interior, so one call is one expansion:
// the SHA-NI kernel runs the two hash chains interleaved, each filling the
// other's instruction latency.
func (z *Spawner) SpawnPair(dst0, dst1 *State, i int) {
	if useNI {
		spawnPairNI(dst0, dst1, &z.parent, uint32(i))
		return
	}
	z.SpawnInto(dst0, i)
	z.SpawnInto(dst1, i+1)
}

// SpawnWide writes children base, base+1, … of the Reset parent to dst,
// dst+stride, …, sixteen to a kernel call for as long as at least MinLanes
// of the n remain, and returns how many it wrote: a multiple of sixteen or
// n where the CPU has the kernel, 0 where it has not. The caller spawns the
// rest in pairs.
func (z *Spawner) SpawnWide(dst *State, stride uintptr, n, base int) int {
	if !use16 {
		return 0
	}
	var off, idx [MaxLanes]uint32 // off stays zero: every lane's parent is z.parent
	done := 0
	for n-done >= MinLanes {
		for l := range idx {
			idx[l] = uint32(base + done + l)
		}
		lanes := min(n-done, MaxLanes)
		spawn16((*State)(unsafe.Add(unsafe.Pointer(dst), uintptr(done)*stride)), stride, &z.parent, &off, &idx, lanes)
		done += lanes
	}
	return done
}

// SpawnMany fills dst[j] with the state of child base+j of the Reset
// parent: sixteen at a time where the CPU can, then pairs, then the odd
// one out.
func (z *Spawner) SpawnMany(dst []State, base int) {
	j := 0
	if len(dst) >= MinLanes {
		j = z.SpawnWide(&dst[0], StateSize, len(dst), base)
	}
	for ; j+1 < len(dst); j += 2 {
		z.SpawnPair(&dst[j], &dst[j+1], base+j)
	}
	if j < len(dst) {
		z.SpawnInto(&dst[j], base+j)
	}
}

// SpawnInto writes the state of child number i of the Reset parent into
// *dst. It does not modify the Spawner, so one Reset serves any number of
// calls. The portable kernel runs rounds 5..79 of the specialized block.
func (z *Spawner) SpawnInto(dst *State, i int) {
	if useNI {
		spawnNI(dst, &z.parent, uint32(i))
		return
	}
	w5 := uint32(i)
	w0, w1, w2, w3, w4 := z.w0, z.w1, z.w2, z.w3, z.w4
	a, b, c, d, e := z.a, z.b, z.c, z.d, z.e
	e += bits.RotateLeft32(a, 5) + (((c ^ d) & b) ^ d) + 0x5a827999 + w5
	b = bits.RotateLeft32(b, 30)
	d += bits.RotateLeft32(e, 5) + (((b ^ c) & a) ^ c) + 0xda827999
	a = bits.RotateLeft32(a, 30)
	c += bits.RotateLeft32(d, 5) + (((a ^ b) & e) ^ b) + 0x5a827999
	e = bits.RotateLeft32(e, 30)
	b += bits.RotateLeft32(c, 5) + (((e ^ a) & d) ^ a) + 0x5a827999
	d = bits.RotateLeft32(d, 30)
	a += bits.RotateLeft32(b, 5) + (((d ^ e) & c) ^ e) + 0x5a827999
	c = bits.RotateLeft32(c, 30)
	e += bits.RotateLeft32(a, 5) + (((c ^ d) & b) ^ d) + 0x5a827999
	b = bits.RotateLeft32(b, 30)
	d += bits.RotateLeft32(e, 5) + (((b ^ c) & a) ^ c) + 0x5a827999
	a = bits.RotateLeft32(a, 30)
	c += bits.RotateLeft32(d, 5) + (((a ^ b) & e) ^ b) + 0x5a827999
	e = bits.RotateLeft32(e, 30)
	b += bits.RotateLeft32(c, 5) + (((e ^ a) & d) ^ a) + 0x5a827999
	d = bits.RotateLeft32(d, 30)
	a += bits.RotateLeft32(b, 5) + (((d ^ e) & c) ^ e) + 0x5a827999
	c = bits.RotateLeft32(c, 30)
	e += bits.RotateLeft32(a, 5) + (((c ^ d) & b) ^ d) + 0x5a827a59
	b = bits.RotateLeft32(b, 30)
	x16 := bits.RotateLeft32(w2^w0, 1)
	d += bits.RotateLeft32(e, 5) + (((b ^ c) & a) ^ c) + 0x5a827999 + x16
	a = bits.RotateLeft32(a, 30)
	x17 := bits.RotateLeft32(w3^w1, 1)
	c += bits.RotateLeft32(d, 5) + (((a ^ b) & e) ^ b) + 0x5a827999 + x17
	e = bits.RotateLeft32(e, 30)
	x18 := bits.RotateLeft32(w4^w2^0xc0, 1)
	b += bits.RotateLeft32(c, 5) + (((e ^ a) & d) ^ a) + 0x5a827999 + x18
	d = bits.RotateLeft32(d, 30)
	x19 := bits.RotateLeft32(x16^w5^w3, 1)
	a += bits.RotateLeft32(b, 5) + (((d ^ e) & c) ^ e) + 0x5a827999 + x19
	c = bits.RotateLeft32(c, 30)
	x20 := bits.RotateLeft32(x17^w4^0x80000000, 1)
	e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + 0x6ed9eba1 + x20
	b = bits.RotateLeft32(b, 30)
	x21 := bits.RotateLeft32(x18^w5, 1)
	d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + 0x6ed9eba1 + x21
	a = bits.RotateLeft32(a, 30)
	x22 := bits.RotateLeft32(x19^0x80000000, 1)
	c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + 0x6ed9eba1 + x22
	e = bits.RotateLeft32(e, 30)
	x23 := bits.RotateLeft32(x20^0xc0, 1)
	b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + 0x6ed9eba1 + x23
	d = bits.RotateLeft32(d, 30)
	x24 := bits.RotateLeft32(x21^x16, 1)
	a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + 0x6ed9eba1 + x24
	c = bits.RotateLeft32(c, 30)
	x25 := bits.RotateLeft32(x22^x17, 1)
	e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + 0x6ed9eba1 + x25
	b = bits.RotateLeft32(b, 30)
	x26 := bits.RotateLeft32(x23^x18, 1)
	d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + 0x6ed9eba1 + x26
	a = bits.RotateLeft32(a, 30)
	x27 := bits.RotateLeft32(x24^x19, 1)
	c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + 0x6ed9eba1 + x27
	e = bits.RotateLeft32(e, 30)
	x28 := bits.RotateLeft32(x25^x20, 1)
	b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + 0x6ed9eba1 + x28
	d = bits.RotateLeft32(d, 30)
	x29 := bits.RotateLeft32(x26^x21^0xc0, 1)
	a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + 0x6ed9eba1 + x29
	c = bits.RotateLeft32(c, 30)
	x30 := bits.RotateLeft32(x27^x22^x16, 1)
	e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + 0x6ed9eba1 + x30
	b = bits.RotateLeft32(b, 30)
	x31 := bits.RotateLeft32(x28^x23^x17^0xc0, 1)
	d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + 0x6ed9eba1 + x31
	a = bits.RotateLeft32(a, 30)
	x32 := bits.RotateLeft32(x29^x24^x18^x16, 1)
	c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + 0x6ed9eba1 + x32
	e = bits.RotateLeft32(e, 30)
	x33 := bits.RotateLeft32(x30^x25^x19^x17, 1)
	b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + 0x6ed9eba1 + x33
	d = bits.RotateLeft32(d, 30)
	x34 := bits.RotateLeft32(x31^x26^x20^x18, 1)
	a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + 0x6ed9eba1 + x34
	c = bits.RotateLeft32(c, 30)
	x35 := bits.RotateLeft32(x32^x27^x21^x19, 1)
	e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + 0x6ed9eba1 + x35
	b = bits.RotateLeft32(b, 30)
	x36 := bits.RotateLeft32(x33^x28^x22^x20, 1)
	d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + 0x6ed9eba1 + x36
	a = bits.RotateLeft32(a, 30)
	x37 := bits.RotateLeft32(x34^x29^x23^x21, 1)
	c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + 0x6ed9eba1 + x37
	e = bits.RotateLeft32(e, 30)
	x38 := bits.RotateLeft32(x35^x30^x24^x22, 1)
	b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + 0x6ed9eba1 + x38
	d = bits.RotateLeft32(d, 30)
	x39 := bits.RotateLeft32(x36^x31^x25^x23, 1)
	a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + 0x6ed9eba1 + x39
	c = bits.RotateLeft32(c, 30)
	x40 := bits.RotateLeft32(x37^x32^x26^x24, 1)
	e += bits.RotateLeft32(a, 5) + (((b | c) & d) | (b & c)) + 0x8f1bbcdc + x40
	b = bits.RotateLeft32(b, 30)
	x41 := bits.RotateLeft32(x38^x33^x27^x25, 1)
	d += bits.RotateLeft32(e, 5) + (((a | b) & c) | (a & b)) + 0x8f1bbcdc + x41
	a = bits.RotateLeft32(a, 30)
	x42 := bits.RotateLeft32(x39^x34^x28^x26, 1)
	c += bits.RotateLeft32(d, 5) + (((e | a) & b) | (e & a)) + 0x8f1bbcdc + x42
	e = bits.RotateLeft32(e, 30)
	x43 := bits.RotateLeft32(x40^x35^x29^x27, 1)
	b += bits.RotateLeft32(c, 5) + (((d | e) & a) | (d & e)) + 0x8f1bbcdc + x43
	d = bits.RotateLeft32(d, 30)
	x44 := bits.RotateLeft32(x41^x36^x30^x28, 1)
	a += bits.RotateLeft32(b, 5) + (((c | d) & e) | (c & d)) + 0x8f1bbcdc + x44
	c = bits.RotateLeft32(c, 30)
	x45 := bits.RotateLeft32(x42^x37^x31^x29, 1)
	e += bits.RotateLeft32(a, 5) + (((b | c) & d) | (b & c)) + 0x8f1bbcdc + x45
	b = bits.RotateLeft32(b, 30)
	x46 := bits.RotateLeft32(x43^x38^x32^x30, 1)
	d += bits.RotateLeft32(e, 5) + (((a | b) & c) | (a & b)) + 0x8f1bbcdc + x46
	a = bits.RotateLeft32(a, 30)
	x47 := bits.RotateLeft32(x44^x39^x33^x31, 1)
	c += bits.RotateLeft32(d, 5) + (((e | a) & b) | (e & a)) + 0x8f1bbcdc + x47
	e = bits.RotateLeft32(e, 30)
	x48 := bits.RotateLeft32(x45^x40^x34^x32, 1)
	b += bits.RotateLeft32(c, 5) + (((d | e) & a) | (d & e)) + 0x8f1bbcdc + x48
	d = bits.RotateLeft32(d, 30)
	x49 := bits.RotateLeft32(x46^x41^x35^x33, 1)
	a += bits.RotateLeft32(b, 5) + (((c | d) & e) | (c & d)) + 0x8f1bbcdc + x49
	c = bits.RotateLeft32(c, 30)
	x50 := bits.RotateLeft32(x47^x42^x36^x34, 1)
	e += bits.RotateLeft32(a, 5) + (((b | c) & d) | (b & c)) + 0x8f1bbcdc + x50
	b = bits.RotateLeft32(b, 30)
	x51 := bits.RotateLeft32(x48^x43^x37^x35, 1)
	d += bits.RotateLeft32(e, 5) + (((a | b) & c) | (a & b)) + 0x8f1bbcdc + x51
	a = bits.RotateLeft32(a, 30)
	x52 := bits.RotateLeft32(x49^x44^x38^x36, 1)
	c += bits.RotateLeft32(d, 5) + (((e | a) & b) | (e & a)) + 0x8f1bbcdc + x52
	e = bits.RotateLeft32(e, 30)
	x53 := bits.RotateLeft32(x50^x45^x39^x37, 1)
	b += bits.RotateLeft32(c, 5) + (((d | e) & a) | (d & e)) + 0x8f1bbcdc + x53
	d = bits.RotateLeft32(d, 30)
	x54 := bits.RotateLeft32(x51^x46^x40^x38, 1)
	a += bits.RotateLeft32(b, 5) + (((c | d) & e) | (c & d)) + 0x8f1bbcdc + x54
	c = bits.RotateLeft32(c, 30)
	x55 := bits.RotateLeft32(x52^x47^x41^x39, 1)
	e += bits.RotateLeft32(a, 5) + (((b | c) & d) | (b & c)) + 0x8f1bbcdc + x55
	b = bits.RotateLeft32(b, 30)
	x56 := bits.RotateLeft32(x53^x48^x42^x40, 1)
	d += bits.RotateLeft32(e, 5) + (((a | b) & c) | (a & b)) + 0x8f1bbcdc + x56
	a = bits.RotateLeft32(a, 30)
	x57 := bits.RotateLeft32(x54^x49^x43^x41, 1)
	c += bits.RotateLeft32(d, 5) + (((e | a) & b) | (e & a)) + 0x8f1bbcdc + x57
	e = bits.RotateLeft32(e, 30)
	x58 := bits.RotateLeft32(x55^x50^x44^x42, 1)
	b += bits.RotateLeft32(c, 5) + (((d | e) & a) | (d & e)) + 0x8f1bbcdc + x58
	d = bits.RotateLeft32(d, 30)
	x59 := bits.RotateLeft32(x56^x51^x45^x43, 1)
	a += bits.RotateLeft32(b, 5) + (((c | d) & e) | (c & d)) + 0x8f1bbcdc + x59
	c = bits.RotateLeft32(c, 30)
	x60 := bits.RotateLeft32(x57^x52^x46^x44, 1)
	e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + 0xca62c1d6 + x60
	b = bits.RotateLeft32(b, 30)
	x61 := bits.RotateLeft32(x58^x53^x47^x45, 1)
	d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + 0xca62c1d6 + x61
	a = bits.RotateLeft32(a, 30)
	x62 := bits.RotateLeft32(x59^x54^x48^x46, 1)
	c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + 0xca62c1d6 + x62
	e = bits.RotateLeft32(e, 30)
	x63 := bits.RotateLeft32(x60^x55^x49^x47, 1)
	b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + 0xca62c1d6 + x63
	d = bits.RotateLeft32(d, 30)
	x64 := bits.RotateLeft32(x61^x56^x50^x48, 1)
	a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + 0xca62c1d6 + x64
	c = bits.RotateLeft32(c, 30)
	x65 := bits.RotateLeft32(x62^x57^x51^x49, 1)
	e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + 0xca62c1d6 + x65
	b = bits.RotateLeft32(b, 30)
	x66 := bits.RotateLeft32(x63^x58^x52^x50, 1)
	d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + 0xca62c1d6 + x66
	a = bits.RotateLeft32(a, 30)
	x67 := bits.RotateLeft32(x64^x59^x53^x51, 1)
	c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + 0xca62c1d6 + x67
	e = bits.RotateLeft32(e, 30)
	x68 := bits.RotateLeft32(x65^x60^x54^x52, 1)
	b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + 0xca62c1d6 + x68
	d = bits.RotateLeft32(d, 30)
	x69 := bits.RotateLeft32(x66^x61^x55^x53, 1)
	a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + 0xca62c1d6 + x69
	c = bits.RotateLeft32(c, 30)
	x70 := bits.RotateLeft32(x67^x62^x56^x54, 1)
	e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + 0xca62c1d6 + x70
	b = bits.RotateLeft32(b, 30)
	x71 := bits.RotateLeft32(x68^x63^x57^x55, 1)
	d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + 0xca62c1d6 + x71
	a = bits.RotateLeft32(a, 30)
	x72 := bits.RotateLeft32(x69^x64^x58^x56, 1)
	c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + 0xca62c1d6 + x72
	e = bits.RotateLeft32(e, 30)
	x73 := bits.RotateLeft32(x70^x65^x59^x57, 1)
	b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + 0xca62c1d6 + x73
	d = bits.RotateLeft32(d, 30)
	x74 := bits.RotateLeft32(x71^x66^x60^x58, 1)
	a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + 0xca62c1d6 + x74
	c = bits.RotateLeft32(c, 30)
	x75 := bits.RotateLeft32(x72^x67^x61^x59, 1)
	e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + 0xca62c1d6 + x75
	b = bits.RotateLeft32(b, 30)
	x76 := bits.RotateLeft32(x73^x68^x62^x60, 1)
	d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + 0xca62c1d6 + x76
	a = bits.RotateLeft32(a, 30)
	x77 := bits.RotateLeft32(x74^x69^x63^x61, 1)
	c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + 0xca62c1d6 + x77
	e = bits.RotateLeft32(e, 30)
	x78 := bits.RotateLeft32(x75^x70^x64^x62, 1)
	b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + 0xca62c1d6 + x78
	d = bits.RotateLeft32(d, 30)
	x79 := bits.RotateLeft32(x76^x71^x65^x63, 1)
	a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + 0xca62c1d6 + x79
	c = bits.RotateLeft32(c, 30)
	binary.BigEndian.PutUint32(dst[0:4], sha1Init0+a)
	binary.BigEndian.PutUint32(dst[4:8], sha1Init1+b)
	binary.BigEndian.PutUint32(dst[8:12], sha1Init2+c)
	binary.BigEndian.PutUint32(dst[12:16], sha1Init3+d)
	binary.BigEndian.PutUint32(dst[16:20], sha1Init4+e)
}

// sha1Spawn is the one-shot form: the child state of s at child index i,
// equal to SHA-1(s ‖ bigendian32(i)).
func sha1Spawn(s *State, i int) State {
	var z Spawner
	z.Reset(s)
	var out State
	z.SpawnInto(&out, i)
	return out
}
