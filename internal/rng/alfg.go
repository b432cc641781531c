package rng

import "encoding/binary"

// ALFG is a splittable stream in the spirit of the additive
// lagged-Fibonacci generator option of the UTS distribution. It exists for
// the same reason the original did: on very large trees SHA-1 dominated the
// sequential cost, and a generator without it let the simulator explore
// larger trees in the same wall time. That held against a ~285 ns software
// SHA-1 spawn; against the SHA-NI kernel (~45 ns per child) a spawn here
// (~250 ns, the register fill below) is the slower of the two.
//
// Layout of the 20-byte state: bytes [0:8] hold a 64-bit stream key, bytes
// [8:16] a 64-bit position word, bytes [16:20] the cached 31-bit random value
// (so Rand is a pure read, exactly as with BRG). Spawning mixes the parent
// key with the child index through a SplitMix64 finalizer and then clocks a
// short lag-(17,5) additive Fibonacci register seeded from the mixed key to
// produce the child's random value. The register evaluation is what makes
// child values statistically well-behaved even for adjacent child indices.
//
// ALFG is safe for concurrent use; it holds no state.
type ALFG struct{}

// alfgShort/alfgLong are the register lags. (17,5) is a classic additive
// lagged-Fibonacci pair with maximal period over the low bits.
const (
	alfgShort = 5
	alfgLong  = 17
	alfgWarm  = 2 * alfgLong // clock the register twice around before use
)

// splitmix64 is the SplitMix64 finalizer: an invertible 64-bit mixer with
// full avalanche, used to derive child keys and to seed the register.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// alfgValue seeds a lag-(17,5) register from key and clocks it alfgWarm
// times, returning the final word: 17 SplitMix64 finalizers to fill the
// register, then 34 adds — most of a spawn's ~250 ns.
func alfgValue(key uint64) uint64 {
	var reg [alfgLong]uint64
	s := key
	for i := range reg {
		s = splitmix64(s)
		reg[i] = s
	}
	// Additive LFG requires at least one odd word to reach full period on
	// the low bit; force it deterministically.
	reg[0] |= 1
	j, k := alfgLong-alfgShort-1, 0
	var v uint64
	for i := 0; i < alfgWarm; i++ {
		v = reg[j] + reg[k]
		reg[k] = v
		j = (j + 1) % alfgLong
		k = (k + 1) % alfgLong
	}
	return v
}

func alfgPack(key, pos uint64) State {
	var s State
	binary.BigEndian.PutUint64(s[0:8], key)
	binary.BigEndian.PutUint64(s[8:16], pos)
	binary.BigEndian.PutUint32(s[16:20], uint32(alfgValue(key))&posMask)
	return s
}

// Init returns the root state for the seed.
func (ALFG) Init(seed int32) State {
	return alfgPack(splitmix64(uint64(uint32(seed))), 0)
}

// Spawn derives child i's state by mixing the parent key with the child
// index and advancing the position word.
func (ALFG) Spawn(s *State, i int) State {
	key := binary.BigEndian.Uint64(s[0:8])
	pos := binary.BigEndian.Uint64(s[8:16])
	child := splitmix64(key ^ splitmix64(uint64(i)+1))
	return alfgPack(child, pos+1)
}

// SpawnInto is the write-in-place form of Spawn, mirroring BRG.SpawnInto so
// traversal loops can use either family without heap traffic.
func (a ALFG) SpawnInto(dst *State, s *State, i int) {
	*dst = a.Spawn(s, i)
}

// Rand returns the cached 31-bit value computed at spawn time.
func (ALFG) Rand(s *State) int32 {
	return StateRand(s)
}

// Name reports "ALFG".
func (ALFG) Name() string { return "ALFG" }
