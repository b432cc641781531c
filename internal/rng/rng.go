// Package rng provides the splittable pseudo-random streams that drive
// Unbalanced Tree Search (UTS) tree generation.
//
// UTS defines an implicit tree: the full description of any node is a small
// fixed-size random-number-generator state, and the i-th child's state is a
// deterministic function of the parent state and the child index i. This
// package supplies two interchangeable stream families, mirroring the RNG
// options in the original UTS distribution:
//
//   - BRG: the SHA-1 based generator used in the paper. Each node state is a
//     20-byte SHA-1 digest; spawning child i hashes the parent state
//     concatenated with i. Cryptographic mixing guarantees that sibling
//     subtrees are statistically independent, which is what gives UTS its
//     extreme, position-independent imbalance. The hash is crypto/sha1's
//     function; spawns compute it with a kernel specialized to the fixed
//     24-byte message — SHA-NI, two sibling lanes per call, where the CPU
//     has it, unrolled Go elsewhere, and sixteen lanes of AVX-512 for the
//     spawns a traversal can batch (KernelName says which) — and the
//     tests pin all three to crypto/sha1.
//   - ALFG: an additive lagged-Fibonacci generator, no SHA-1 involved;
//     what the simulator's large runs and the benchmark's sim_* trees use.
//     A child's value is the word x[50] of x[n] = x[n−17] + x[n−6] over a
//     register filled from a SplitMix64 chain — a fixed linear map of seven
//     of the fill's words, which is how it is computed (alfg.go). The chain
//     is the cost: ~105 ns for one child, ~55 ns per child for the two
//     siblings of a binary node spawned side by side. That is a little over
//     a SHA-NI BRG child (~45 ns) and well under half the portable BRG
//     kernel's (~130–155 ns), so ALFG is the cheaper family on every host
//     without SHA extensions and about level where they exist (the
//     rng.alfg_spawn_ns and rng.brg_spawnmany_ns rows of benchmark/). Its
//     trees are its own, so it stays what those runs are pinned to.
//
// All streams are deterministic functions of the root seed, so every tree in
// this repository is exactly reproducible.
package rng

import "encoding/binary"

// StateSize is the size in bytes of a node's RNG state. Both generator
// families use 20-byte states so that node descriptors are interchangeable.
const StateSize = 20

// State is the per-node random state. It fully describes a UTS subtree.
type State [StateSize]byte

// posMask reduces a 32-bit word to a non-negative 31-bit value, matching the
// POS_MASK convention of the original UTS sources.
const posMask = 0x7fffffff

// RandMax is one greater than the largest value returned by Stream.Rand.
const RandMax = 1 << 31

// StateRand reads the 31-bit random value from the trailing four state
// bytes — the layout both built-in stream families share (BRG stores the
// digest there; ALFG caches its register output there precisely so the two
// agree). Hot traversal loops that have established the stream is a
// built-in call this directly instead of dispatching through the Stream
// interface, which would force the node's address to escape to the heap.
func StateRand(s *State) int32 {
	return int32(binary.BigEndian.Uint32(s[StateSize-4:]) & posMask)
}

// Stream generates the random values for one UTS tree. Implementations must
// be pure: identical seeds yield identical trees. Streams are stateless with
// respect to nodes (all per-node state lives in State), so a single Stream
// may be shared by any number of concurrent traversals as long as the
// implementation documents itself as safe for concurrent use.
type Stream interface {
	// Init returns the root node state for the given seed.
	Init(seed int32) State

	// Spawn returns the state of child number i (0-based) of the node with
	// state s.
	Spawn(s *State, i int) State

	// Rand extracts the node's random value in [0, RandMax) from its state.
	// The value is a deterministic function of the state alone.
	Rand(s *State) int32

	// Name reports the generator family name ("BRG" or "ALFG").
	Name() string
}

// New returns the stream implementation with the given name. Recognised
// names are "BRG" (SHA-1, the paper's generator) and "ALFG". It returns nil
// for unrecognised names.
func New(name string) Stream {
	switch name {
	case "BRG", "brg", "sha1", "SHA1":
		return BRG{}
	case "ALFG", "alfg":
		return ALFG{}
	}
	return nil
}
