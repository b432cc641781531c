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
