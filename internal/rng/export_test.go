package rng

// ForceKernel sets the spawn-kernel dispatch variable for a test — true is
// the SHA-NI kernel, which the caller must know the CPU has — and returns
// the function that puts the previous setting back. It is exported here,
// in a _test file, so the package's external tests (traversal_test.go)
// can reach it too; the program has no such knob.
func ForceKernel(ni bool) (restore func()) {
	prev := useNI
	useNI = ni
	return func() { useNI = prev }
}

// niAvailable is what CPUID decided, read before any test flips useNI.
var niAvailable = useNI

// NIAvailable reports it to the external tests.
func NIAvailable() bool { return niAvailable }
