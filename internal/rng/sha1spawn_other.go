//go:build !amd64

package rng

// No accelerated kernel off amd64: useNI stays false (a variable only so
// the tests build everywhere) and the stubs are never reached.
var useNI = false

func spawnNI(dst, parent *State, idx uint32) { panic("rng: no SHA-NI kernel on this architecture") }

func spawnPairNI(dst0, dst1, parent *State, idx uint32) {
	panic("rng: no SHA-NI kernel on this architecture")
}
