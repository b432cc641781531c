#include "textflag.h"

// AVX-512 ALFG kernel: the child key and the register output of 32 lanes
// side by side, one qword lane of a ZMM register per child, four registers
// of eight lanes each. A lane's work is one chain of 19 SplitMix64
// finalizers — the index's, the child key's, then the 17 of alfgValue's
// fill — each the input of the next, so a chain is latency-bound (two
// VPMULLQs a link); the four chains are interleaved instruction by
// instruction and fill each other's latency. The words that reach the
// output are summed as they pass, with alfgCoef's 1, 2, 3 and 4 written as
// shifts and adds. The gather of the parents and the scatter of the child
// states are Go's (ALFG.SpawnLanes in alfg.go); DESIGN.md §7 has the
// numbers.

// Z0..Z3 the four chains, Z4..Z7 their sums, Z8..Z11 scratch.
#define GOLD  Z12
#define MUL1  Z13
#define MUL2  Z14
#define GOLD1 Z15

// x += c in every chain.
#define ADD4(c) \
	VPADDQ c, Z0, Z0; \
	VPADDQ c, Z1, Z1; \
	VPADDQ c, Z2, Z2; \
	VPADDQ c, Z3, Z3

// x ^= x >> s.
#define XSHR4(s) \
	VPSRLQ $s, Z0, Z8; \
	VPSRLQ $s, Z1, Z9; \
	VPSRLQ $s, Z2, Z10; \
	VPSRLQ $s, Z3, Z11; \
	VPXORQ Z8, Z0, Z0; \
	VPXORQ Z9, Z1, Z1; \
	VPXORQ Z10, Z2, Z2; \
	VPXORQ Z11, Z3, Z3

// x *= m (mod 2⁶⁴).
#define MUL4(m) \
	VPMULLQ m, Z0, Z0; \
	VPMULLQ m, Z1, Z1; \
	VPMULLQ m, Z2, Z2; \
	VPMULLQ m, Z3, Z3

// The finalizer after its additive constant.
#define FIN4 \
	XSHR4(30); \
	MUL4(MUL1); \
	XSHR4(27); \
	MUL4(MUL2); \
	XSHR4(31)

// splitmix64 of every chain.
#define SPLITMIX4 \
	ADD4(GOLD); \
	FIN4

// v = x: the first word that reaches the output.
#define SET4 \
	VMOVDQA64 Z0, Z4; \
	VMOVDQA64 Z1, Z5; \
	VMOVDQA64 Z2, Z6; \
	VMOVDQA64 Z3, Z7

// v += x.
#define ACC4 \
	VPADDQ Z0, Z4, Z4; \
	VPADDQ Z1, Z5, Z5; \
	VPADDQ Z2, Z6, Z6; \
	VPADDQ Z3, Z7, Z7

// v += x << s.
#define ACCSHL4(s) \
	VPSLLQ $s, Z0, Z8; \
	VPSLLQ $s, Z1, Z9; \
	VPSLLQ $s, Z2, Z10; \
	VPSLLQ $s, Z3, Z11; \
	VPADDQ Z8, Z4, Z4; \
	VPADDQ Z9, Z5, Z5; \
	VPADDQ Z10, Z6, Z6; \
	VPADDQ Z11, Z7, Z7

// func alfg32(key, val *[32]uint64, idx *[32]uint32)
//
// For every lane j: key[j] becomes alfgChildKey(key[j], idx[j]) — the index
// zero-extended — and val[j] alfgValue of that child key. All 32 lanes are
// computed; a lane the caller does not use costs nothing extra.
TEXT ·alfg32(SB), NOSPLIT, $0-24
	MOVQ key+0(FP), DI
	MOVQ val+8(FP), SI
	MOVQ idx+16(FP), R9

	MOVQ         $0x9e3779b97f4a7c15, AX
	VPBROADCASTQ AX, GOLD
	INCQ         AX
	VPBROADCASTQ AX, GOLD1
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, MUL1
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, MUL2

	// splitmix64(idx + 1): the +1 rides in the additive constant.
	VPMOVZXDQ 0(R9), Z0
	VPMOVZXDQ 32(R9), Z1
	VPMOVZXDQ 64(R9), Z2
	VPMOVZXDQ 96(R9), Z3
	ADD4(GOLD1)
	FIN4

	// The child key: splitmix64(key ^ that).
	VPXORQ 0(DI), Z0, Z0
	VPXORQ 64(DI), Z1, Z1
	VPXORQ 128(DI), Z2, Z2
	VPXORQ 192(DI), Z3, Z3
	SPLITMIX4
	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)

	// The fill, x[0..16], and Σ alfgCoef[i]·x[i] as it passes.
	SPLITMIX4 // x0
	SPLITMIX4 // x1
	SPLITMIX4 // x2
	SPLITMIX4 // x3: 1
	SET4
	SPLITMIX4 // x4: 3
	ACC4
	ACCSHL4(1)
	SPLITMIX4 // x5
	SPLITMIX4 // x6
	SPLITMIX4 // x7
	SPLITMIX4 // x8
	SPLITMIX4 // x9: 1
	ACC4
	SPLITMIX4 // x10: 2
	ACCSHL4(1)
	SPLITMIX4 // x11
	SPLITMIX4 // x12
	SPLITMIX4 // x13
	SPLITMIX4 // x14: 1
	ACC4
	SPLITMIX4 // x15: 4
	ACCSHL4(2)
	SPLITMIX4 // x16: 1
	ACC4

	VMOVDQU64 Z4, 0(SI)
	VMOVDQU64 Z5, 64(SI)
	VMOVDQU64 Z6, 128(SI)
	VMOVDQU64 Z7, 192(SI)
	VZEROUPPER
	RET
