#include "textflag.h"

// AVX-512 spawn kernel: sixteen SHA-1 hashes of the tree generator's one
// 24-byte message (20-byte parent state ‖ 4-byte big-endian child index)
// side by side, one dword lane of a ZMM register per hash — the
// multi-buffer form. A lane is any (parent state, child index) pair: the
// parents are gathered from byte offsets off[j] of src, the digests are
// scattered to dst + j·stride. Every load of a parent precedes every store,
// so a child may land on the slot its own or another lane's parent was
// read from. Go-side declarations and the dispatch are in
// sha1spawn_amd64.go; DESIGN.md §7 has the lane layout and the numbers.
//
// The block is fixed apart from W0..W5, and the rest is folded into
// constants: W6 = 0x80000000 (the 0x80 terminator) rides in round 6's
// constant, W7..W14 = 0 are never added, W15 = 192 (the bit length) rides
// in round 15's; the schedule steps 16..31 that read them are written out
// with the zeros dropped. Ch, Parity and Maj are one VPTERNLOGD each
// (truth tables 0xCA, 0x96, 0xE8 with b in the destination), the
// schedule's three-way XOR another 0x96, and the rotates are VPROLD.

// Byte reversal within each dword: big-endian words in memory <-> lanes.
DATA bswap32<>+0(SB)/8, $0x0405060700010203
DATA bswap32<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswap32<>(SB), RODATA|NOPTR, $16

// Lane numbers 0..15: times the stride, the scatter offsets.
DATA lane<>+0(SB)/8, $0x0000000100000000
DATA lane<>+8(SB)/8, $0x0000000300000002
DATA lane<>+16(SB)/8, $0x0000000500000004
DATA lane<>+24(SB)/8, $0x0000000700000006
DATA lane<>+32(SB)/8, $0x0000000900000008
DATA lane<>+40(SB)/8, $0x0000000b0000000a
DATA lane<>+48(SB)/8, $0x0000000d0000000c
DATA lane<>+56(SB)/8, $0x0000000f0000000e
GLOBL lane<>(SB), RODATA|NOPTR, $64

// The initial chaining value (FIPS 180-1 §7), also the feed-forward.
DATA iv<>+0(SB)/4, $0x67452301
DATA iv<>+4(SB)/4, $0xefcdab89
DATA iv<>+8(SB)/4, $0x98badcfe
DATA iv<>+12(SB)/4, $0x10325476
DATA iv<>+16(SB)/4, $0xc3d2e1f0
GLOBL iv<>(SB), RODATA|NOPTR, $20

// Round constants of rounds 0..19, 20..39, 40..59, 60..79, and round 6's
// and round 15's with their message word added.
DATA k0<>+0(SB)/4, $0x5a827999
GLOBL k0<>(SB), RODATA|NOPTR, $4
DATA k1<>+0(SB)/4, $0x6ed9eba1
GLOBL k1<>(SB), RODATA|NOPTR, $4
DATA k2<>+0(SB)/4, $0x8f1bbcdc
GLOBL k2<>(SB), RODATA|NOPTR, $4
DATA k3<>+0(SB)/4, $0xca62c1d6
GLOBL k3<>(SB), RODATA|NOPTR, $4
DATA k0w6<>+0(SB)/4, $0xda827999
GLOBL k0w6<>(SB), RODATA|NOPTR, $4
DATA k0w15<>+0(SB)/4, $0x5a827a59
GLOBL k0w15<>(SB), RODATA|NOPTR, $4

// W6 and W15 where the schedule reads them.
DATA c80<>+0(SB)/4, $0x80000000
GLOBL c80<>(SB), RODATA|NOPTR, $4
DATA c192<>+0(SB)/4, $192
GLOBL c192<>(SB), RODATA|NOPTR, $4

// Z0..Z15 hold the message schedule, W[t] in Z(t mod 16); the chaining
// registers rotate through the round macros' arguments.
#define VA   Z16
#define VB   Z17
#define VC   Z18
#define VD   Z19
#define VE   Z20
#define T1   Z21
#define T2   Z22
#define KK   Z23
#define SWAP Z24
#define OFF  Z25

// The three round functions as VPTERNLOGD truth tables, destination b.
#define CH     $0xCA
#define PARITY $0x96
#define MAJ    $0xE8

// One round less its message word: e += f(b, c, d) + rol5(a), b = rol30(b).
// rol5(a) is added last: a is the value the previous round finished.
#define STEP(f, a, b, c, d, e) \
	VMOVDQA32  b, T1; \
	VPTERNLOGD f, d, c, T1; \
	VPROLD     $5, a, T2; \
	VPADDD     T1, e, e; \
	VPROLD     $30, b, b; \
	VPADDD     T2, e, e

// A round whose message word is the register w.
#define ROUND(f, a, b, c, d, e, w) \
	VPADDD     w, KK, T1; \
	VPADDD     T1, e, e; \
	STEP(f, a, b, c, d, e)

// A round whose message word is zero.
#define ROUNDK(f, a, b, c, d, e) \
	VPADDD     KK, e, e; \
	STEP(f, a, b, c, d, e)

// A round whose message word is a constant: kw is round constant + word.
#define ROUNDC(f, a, b, c, d, e, kw) \
	VPADDD.BCST kw, e, e; \
	STEP(f, a, b, c, d, e)

// The schedule step from 32 on: r holds W[t-16] and becomes
// W[t] = rol1(W[t-16] ^ W[t-14] ^ W[t-8] ^ W[t-3]).
#define SCHED(r, w14, w8, w3) \
	VPTERNLOGD $0x96, w8, w14, r; \
	VPXORD     w3, r, r; \
	VPROLD     $1, r, r

// One word of the sixteen parents, gathered and made native-endian. The
// gather clears its mask, so each takes a fresh copy.
#define PARENT(disp, w) \
	KMOVW      K1, K2; \
	VPXORD     w, w, w; \
	VPGATHERDD disp(SI)(OFF*1), K2, w; \
	VPSHUFB    SWAP, w, w

// One word of the sixteen digests: feed-forward, big-endian, scattered.
#define DIGEST(disp, v) \
	VPADDD.BCST iv<>+disp(SB), v, v; \
	VPSHUFB    SWAP, v, v; \
	KMOVW      K1, K2; \
	VPSCATTERDD v, K2, disp(DI)(OFF*1)

// func spawn16(dst *State, stride uintptr, src *State, off, idx *[16]uint32, n int)
//
// For every lane j < n: the state of child idx[j] of the parent at byte
// offset off[j] from src, written to the 20 bytes at dst + j*stride. Lanes
// from n up are masked out of every gather and scatter: nothing is read
// through their offsets and nothing is written to their slots.
TEXT ·spawn16(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ off+24(FP), R8
	MOVQ idx+32(FP), R9
	MOVQ n+40(FP), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1

	VBROADCASTI32X4 bswap32<>(SB), SWAP
	VMOVDQU32 (R8), OFF
	PARENT(0, Z0)
	PARENT(4, Z1)
	PARENT(8, Z2)
	PARENT(12, Z3)
	PARENT(16, Z4)
	VMOVDQU32 (R9), Z5

	VPBROADCASTD iv<>+0(SB), VA
	VPBROADCASTD iv<>+4(SB), VB
	VPBROADCASTD iv<>+8(SB), VC
	VPBROADCASTD iv<>+12(SB), VD
	VPBROADCASTD iv<>+16(SB), VE
	VPBROADCASTD k0<>(SB), KK

	ROUND(CH, VA, VB, VC, VD, VE, Z0)
	ROUND(CH, VE, VA, VB, VC, VD, Z1)
	ROUND(CH, VD, VE, VA, VB, VC, Z2)
	ROUND(CH, VC, VD, VE, VA, VB, Z3)
	ROUND(CH, VB, VC, VD, VE, VA, Z4)
	ROUND(CH, VA, VB, VC, VD, VE, Z5)
	ROUNDC(CH, VE, VA, VB, VC, VD, k0w6<>(SB))
	ROUNDK(CH, VD, VE, VA, VB, VC)
	ROUNDK(CH, VC, VD, VE, VA, VB)
	ROUNDK(CH, VB, VC, VD, VE, VA)
	ROUNDK(CH, VA, VB, VC, VD, VE)
	ROUNDK(CH, VE, VA, VB, VC, VD)
	ROUNDK(CH, VD, VE, VA, VB, VC)
	ROUNDK(CH, VC, VD, VE, VA, VB)
	ROUNDK(CH, VB, VC, VD, VE, VA)
	ROUNDC(CH, VA, VB, VC, VD, VE, k0w15<>(SB))
	// W16 = rol1(W0^W2)
	VPXORD     Z2, Z0, Z0
	VPROLD     $1, Z0, Z0
	ROUND(CH, VE, VA, VB, VC, VD, Z0)
	// W17 = rol1(W1^W3)
	VPXORD     Z3, Z1, Z1
	VPROLD     $1, Z1, Z1
	ROUND(CH, VD, VE, VA, VB, VC, Z1)
	// W18 = rol1(W2^W4^W15)
	VPTERNLOGD.BCST $0x96, c192<>(SB), Z4, Z2
	VPROLD     $1, Z2, Z2
	ROUND(CH, VC, VD, VE, VA, VB, Z2)
	// W19 = rol1(W3^W5^W16)
	VPTERNLOGD $0x96, Z0, Z5, Z3
	VPROLD     $1, Z3, Z3
	ROUND(CH, VB, VC, VD, VE, VA, Z3)
	VPBROADCASTD k1<>(SB), KK
	// W20 = rol1(W4^W6^W17)
	VPTERNLOGD.BCST $0x96, c80<>(SB), Z1, Z4
	VPROLD     $1, Z4, Z4
	ROUND(PARITY, VA, VB, VC, VD, VE, Z4)
	// W21 = rol1(W5^W18)
	VPXORD     Z2, Z5, Z5
	VPROLD     $1, Z5, Z5
	ROUND(PARITY, VE, VA, VB, VC, VD, Z5)
	// W22 = rol1(W6^W19)
	VPXORD.BCST c80<>(SB), Z3, Z6
	VPROLD     $1, Z6, Z6
	ROUND(PARITY, VD, VE, VA, VB, VC, Z6)
	// W23 = rol1(W15^W20)
	VPXORD.BCST c192<>(SB), Z4, Z7
	VPROLD     $1, Z7, Z7
	ROUND(PARITY, VC, VD, VE, VA, VB, Z7)
	// W24 = rol1(W16^W21)
	VPXORD     Z0, Z5, Z8
	VPROLD     $1, Z8, Z8
	ROUND(PARITY, VB, VC, VD, VE, VA, Z8)
	// W25 = rol1(W17^W22)
	VPXORD     Z1, Z6, Z9
	VPROLD     $1, Z9, Z9
	ROUND(PARITY, VA, VB, VC, VD, VE, Z9)
	// W26 = rol1(W18^W23)
	VPXORD     Z2, Z7, Z10
	VPROLD     $1, Z10, Z10
	ROUND(PARITY, VE, VA, VB, VC, VD, Z10)
	// W27 = rol1(W19^W24)
	VPXORD     Z3, Z8, Z11
	VPROLD     $1, Z11, Z11
	ROUND(PARITY, VD, VE, VA, VB, VC, Z11)
	// W28 = rol1(W20^W25)
	VPXORD     Z4, Z9, Z12
	VPROLD     $1, Z12, Z12
	ROUND(PARITY, VC, VD, VE, VA, VB, Z12)
	// W29 = rol1(W15^W21^W26)
	VPXORD     Z5, Z10, Z13
	VPXORD.BCST c192<>(SB), Z13, Z13
	VPROLD     $1, Z13, Z13
	ROUND(PARITY, VB, VC, VD, VE, VA, Z13)
	// W30 = rol1(W16^W22^W27)
	VPXORD     Z6, Z11, Z14
	VPXORD     Z0, Z14, Z14
	VPROLD     $1, Z14, Z14
	ROUND(PARITY, VA, VB, VC, VD, VE, Z14)
	// W31 = rol1(W15^W17^W23^W28)
	VPXORD     Z7, Z12, Z15
	VPTERNLOGD.BCST $0x96, c192<>(SB), Z1, Z15
	VPROLD     $1, Z15, Z15
	ROUND(PARITY, VE, VA, VB, VC, VD, Z15)
	SCHED(Z0, Z2, Z8, Z13)
	ROUND(PARITY, VD, VE, VA, VB, VC, Z0)
	SCHED(Z1, Z3, Z9, Z14)
	ROUND(PARITY, VC, VD, VE, VA, VB, Z1)
	SCHED(Z2, Z4, Z10, Z15)
	ROUND(PARITY, VB, VC, VD, VE, VA, Z2)
	SCHED(Z3, Z5, Z11, Z0)
	ROUND(PARITY, VA, VB, VC, VD, VE, Z3)
	SCHED(Z4, Z6, Z12, Z1)
	ROUND(PARITY, VE, VA, VB, VC, VD, Z4)
	SCHED(Z5, Z7, Z13, Z2)
	ROUND(PARITY, VD, VE, VA, VB, VC, Z5)
	SCHED(Z6, Z8, Z14, Z3)
	ROUND(PARITY, VC, VD, VE, VA, VB, Z6)
	SCHED(Z7, Z9, Z15, Z4)
	ROUND(PARITY, VB, VC, VD, VE, VA, Z7)
	VPBROADCASTD k2<>(SB), KK
	SCHED(Z8, Z10, Z0, Z5)
	ROUND(MAJ, VA, VB, VC, VD, VE, Z8)
	SCHED(Z9, Z11, Z1, Z6)
	ROUND(MAJ, VE, VA, VB, VC, VD, Z9)
	SCHED(Z10, Z12, Z2, Z7)
	ROUND(MAJ, VD, VE, VA, VB, VC, Z10)
	SCHED(Z11, Z13, Z3, Z8)
	ROUND(MAJ, VC, VD, VE, VA, VB, Z11)
	SCHED(Z12, Z14, Z4, Z9)
	ROUND(MAJ, VB, VC, VD, VE, VA, Z12)
	SCHED(Z13, Z15, Z5, Z10)
	ROUND(MAJ, VA, VB, VC, VD, VE, Z13)
	SCHED(Z14, Z0, Z6, Z11)
	ROUND(MAJ, VE, VA, VB, VC, VD, Z14)
	SCHED(Z15, Z1, Z7, Z12)
	ROUND(MAJ, VD, VE, VA, VB, VC, Z15)
	SCHED(Z0, Z2, Z8, Z13)
	ROUND(MAJ, VC, VD, VE, VA, VB, Z0)
	SCHED(Z1, Z3, Z9, Z14)
	ROUND(MAJ, VB, VC, VD, VE, VA, Z1)
	SCHED(Z2, Z4, Z10, Z15)
	ROUND(MAJ, VA, VB, VC, VD, VE, Z2)
	SCHED(Z3, Z5, Z11, Z0)
	ROUND(MAJ, VE, VA, VB, VC, VD, Z3)
	SCHED(Z4, Z6, Z12, Z1)
	ROUND(MAJ, VD, VE, VA, VB, VC, Z4)
	SCHED(Z5, Z7, Z13, Z2)
	ROUND(MAJ, VC, VD, VE, VA, VB, Z5)
	SCHED(Z6, Z8, Z14, Z3)
	ROUND(MAJ, VB, VC, VD, VE, VA, Z6)
	SCHED(Z7, Z9, Z15, Z4)
	ROUND(MAJ, VA, VB, VC, VD, VE, Z7)
	SCHED(Z8, Z10, Z0, Z5)
	ROUND(MAJ, VE, VA, VB, VC, VD, Z8)
	SCHED(Z9, Z11, Z1, Z6)
	ROUND(MAJ, VD, VE, VA, VB, VC, Z9)
	SCHED(Z10, Z12, Z2, Z7)
	ROUND(MAJ, VC, VD, VE, VA, VB, Z10)
	SCHED(Z11, Z13, Z3, Z8)
	ROUND(MAJ, VB, VC, VD, VE, VA, Z11)
	VPBROADCASTD k3<>(SB), KK
	SCHED(Z12, Z14, Z4, Z9)
	ROUND(PARITY, VA, VB, VC, VD, VE, Z12)
	SCHED(Z13, Z15, Z5, Z10)
	ROUND(PARITY, VE, VA, VB, VC, VD, Z13)
	SCHED(Z14, Z0, Z6, Z11)
	ROUND(PARITY, VD, VE, VA, VB, VC, Z14)
	SCHED(Z15, Z1, Z7, Z12)
	ROUND(PARITY, VC, VD, VE, VA, VB, Z15)
	SCHED(Z0, Z2, Z8, Z13)
	ROUND(PARITY, VB, VC, VD, VE, VA, Z0)
	SCHED(Z1, Z3, Z9, Z14)
	ROUND(PARITY, VA, VB, VC, VD, VE, Z1)
	SCHED(Z2, Z4, Z10, Z15)
	ROUND(PARITY, VE, VA, VB, VC, VD, Z2)
	SCHED(Z3, Z5, Z11, Z0)
	ROUND(PARITY, VD, VE, VA, VB, VC, Z3)
	SCHED(Z4, Z6, Z12, Z1)
	ROUND(PARITY, VC, VD, VE, VA, VB, Z4)
	SCHED(Z5, Z7, Z13, Z2)
	ROUND(PARITY, VB, VC, VD, VE, VA, Z5)
	SCHED(Z6, Z8, Z14, Z3)
	ROUND(PARITY, VA, VB, VC, VD, VE, Z6)
	SCHED(Z7, Z9, Z15, Z4)
	ROUND(PARITY, VE, VA, VB, VC, VD, Z7)
	SCHED(Z8, Z10, Z0, Z5)
	ROUND(PARITY, VD, VE, VA, VB, VC, Z8)
	SCHED(Z9, Z11, Z1, Z6)
	ROUND(PARITY, VC, VD, VE, VA, VB, Z9)
	SCHED(Z10, Z12, Z2, Z7)
	ROUND(PARITY, VB, VC, VD, VE, VA, Z10)
	SCHED(Z11, Z13, Z3, Z8)
	ROUND(PARITY, VA, VB, VC, VD, VE, Z11)
	SCHED(Z12, Z14, Z4, Z9)
	ROUND(PARITY, VE, VA, VB, VC, VD, Z12)
	SCHED(Z13, Z15, Z5, Z10)
	ROUND(PARITY, VD, VE, VA, VB, VC, Z13)
	SCHED(Z14, Z0, Z6, Z11)
	ROUND(PARITY, VC, VD, VE, VA, VB, Z14)
	SCHED(Z15, Z1, Z7, Z12)
	ROUND(PARITY, VB, VC, VD, VE, VA, Z15)

	// Eighty rounds are sixteen turns of the five registers: a..e are back
	// in VA..VE.
	VPBROADCASTD DX, OFF
	VPMULLD      lane<>(SB), OFF, OFF
	DIGEST(0, VA)
	DIGEST(4, VB)
	DIGEST(8, VC)
	DIGEST(12, VD)
	DIGEST(16, VE)
	VZEROUPPER
	RET

// func cpuHasAVX512() bool
//
// AVX512F, AVX512DQ and AVX512BW (leaf 7 EBX bits 16, 17 and 30: VPSHUFB
// on a ZMM register is BW, the ALFG kernel's VPMULLQ is DQ) and an
// operating system that saves the state they use:
// OSXSAVE (leaf 1 ECX bit 27) and XCR0 bits 1, 2, 5, 6, 7 (SSE, AVX,
// opmask, ZMM0..15 upper halves, ZMM16..31). Without the last a CPU that
// advertises the instructions still faults on the first of them.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<16 | 1<<17 | 1<<30), BX
	CMPL BX, $(1<<16 | 1<<17 | 1<<30)
	JNE  no
	MOVB $1, ret+0(FP)
no:
	RET
