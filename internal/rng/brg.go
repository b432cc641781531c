package rng

import (
	"crypto/sha1"
	"encoding/binary"
)

// BRG is the SHA-1 based splittable stream from the UTS distribution
// (named after the Brian Gladman reference implementation UTS shipped).
// A node's state is a SHA-1 digest; child states are digests of the parent
// state concatenated with the 4-byte big-endian child index. This is the
// generator used for all results in the paper: the sequential exploration
// rate of UTS is essentially the machine's SHA-1 throughput. The root
// state is one crypto/sha1 call per tree; every spawn goes through a
// kernel specialized to the fixed 24-byte message (sha1spawn.go, and
// sha1spawn_amd64.s where the CPU has the SHA extensions), which the
// tests pin to crypto/sha1.
//
// BRG is safe for concurrent use; it holds no state.
type BRG struct{}

// Init returns the root state: SHA-1 of the 4-byte big-endian seed. This is
// the one documented divergence from UTS, whose root is the SHA-1 of sixteen
// zero bytes followed by the seed; every tree here is defined by this root.
// TestUTSPublishedCounts (internal/uts) builds UTS's root itself and checks
// the published counts from it.
func (BRG) Init(seed int32) State {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(seed))
	return State(sha1.Sum(buf[:]))
}

// Spawn hashes the parent state and the child index into the child state,
// through the specialized single-block spawn kernel.
func (BRG) Spawn(s *State, i int) State {
	return sha1Spawn(s, i)
}

// SpawnInto computes the state of child i of s directly into *dst, with no
// copying and no heap traffic. It is the form the traversal hot loops use.
func (BRG) SpawnInto(dst *State, s *State, i int) {
	var z Spawner
	z.Reset(s)
	z.SpawnInto(dst, i)
}

// SpawnMany fills dst[j] with the state of child base+j of s for every j,
// loading the parent once for the whole batch. It is equivalent to
// len(dst) calls to Spawn with consecutive indices.
func (BRG) SpawnMany(dst []State, s *State, base int) {
	var z Spawner
	z.Reset(s)
	z.SpawnMany(dst, base)
}

// Rand interprets the last four state bytes as a big-endian word and masks
// it to 31 bits, per the UTS POS_MASK convention.
func (BRG) Rand(s *State) int32 {
	return StateRand(s)
}

// Name reports "BRG".
func (BRG) Name() string { return "BRG" }
