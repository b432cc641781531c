package rng

// Kernel names a spawn-kernel configuration for ForceKernel.
type Kernel int

const (
	GoUnrolled Kernel = iota // the portable kernel alone
	SHANI                    // the SHA-NI pair kernel, nothing wider
	AVX512                   // the sixteen-lane kernel over whichever narrow kernel CPUID picked
)

func (k Kernel) String() string { return [...]string{"go-unrolled", "sha-ni", "avx512"}[k] }

// Kernels is every configuration, for tests to range over.
var Kernels = []Kernel{GoUnrolled, SHANI, AVX512}

// What CPUID decided, read before any test assigns the dispatch variables.
var niAvailable, wideAvailable = useNI, use16

// Available reports whether the CPU can run k.
func (k Kernel) Available() bool {
	return k == GoUnrolled || k == SHANI && niAvailable || k == AVX512 && wideAvailable
}

// ForceKernel sets the spawn-kernel dispatch variables for a test — k must
// be Available — and returns the function that puts the previous setting
// back. It is exported here, in a _test file, so the package's external
// tests (traversal_test.go) can reach it too; the program has no such knob.
func ForceKernel(k Kernel) (restore func()) {
	ni, wide := useNI, use16
	useNI, use16 = k == SHANI || k == AVX512 && niAvailable, k == AVX512
	return func() { useNI, use16 = ni, wide }
}
