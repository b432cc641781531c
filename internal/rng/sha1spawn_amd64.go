package rng

// useNI selects the SHA-NI kernel of sha1spawn_amd64.s over the portable
// one in every Spawner method. The CPU decides, once, at init; only the
// tests assign it afterwards, to run both kernels in one binary.
var useNI = cpuHasNI()

// cpuHasNI reports whether CPUID advertises SHA, SSSE3 and SSE4.1.
func cpuHasNI() bool

// spawnNI writes SHA-1(parent ‖ bigendian32(idx)) into *dst.
//
//go:noescape
func spawnNI(dst, parent *State, idx uint32)

// spawnPairNI is spawnNI for idx into *dst0 and idx+1 into *dst1, the two
// chains interleaved. It loads all of *parent before it stores anything
// and stores *dst0 first.
//
//go:noescape
func spawnPairNI(dst0, dst1, parent *State, idx uint32)

// use16 selects the sixteen-lane AVX-512 kernel of sha1spawn16_amd64.s for
// the spawns that come many at a time (SpawnLanes, and SpawnWide under
// SpawnMany and a wide node's expansion, from MinLanes up); the narrower
// spawns stay on the kernel useNI picked. Decided once from CPUID and XCR0, assigned only by the tests.
var use16 = cpuHasAVX512()

// cpuHasAVX512 reports AVX512F and AVX512BW with the operating system
// saving the ZMM and opmask state.
func cpuHasAVX512() bool

// spawn16 writes, for every lane j < n, SHA-1(parent ‖ bigendian32(idx[j]))
// to the 20 bytes at dst + j*stride, the parent being the 20 bytes at src +
// off[j]. It reads every parent before it stores anything, and touches
// nothing of the lanes from n up. 1 <= n <= 16.
//
//go:noescape
func spawn16(dst *State, stride uintptr, src *State, off, idx *[16]uint32, n int)
