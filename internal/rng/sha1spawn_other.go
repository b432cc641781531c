//go:build !amd64

package rng

// No accelerated kernel off amd64: useNI and use16 stay false (variables
// only so the tests build everywhere) and the stubs are never reached.
var useNI, use16 = false, false

func spawnNI(dst, parent *State, idx uint32) { panic("rng: no SHA-NI kernel on this architecture") }

func spawnPairNI(dst0, dst1, parent *State, idx uint32) {
	panic("rng: no SHA-NI kernel on this architecture")
}

func spawn16(dst *State, stride uintptr, src *State, off, idx *[16]uint32, n int) {
	panic("rng: no AVX-512 kernel on this architecture")
}
