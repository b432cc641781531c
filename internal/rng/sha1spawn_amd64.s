#include "textflag.h"

// SHA-NI spawn kernel: SHA-1 of the one 24-byte message the tree generator
// hashes (20-byte parent state ‖ 4-byte big-endian child index), as one
// padded block built in registers. Go-side declarations and the dispatch
// are in sha1spawn_amd64.go; DESIGN.md §7 has the derivation.
//
// Lane layout (Intel's SHA extensions convention): ABCD holds a in dword 3
// and d in dword 0, a message register holds W[4t] in dword 3 and W[4t+3]
// in dword 0, and an E register carries e in dword 3. The fixed block is
//
//	MSG0 = flip(parent[0:16])            W0..W3
//	MSG1 = [w4, idx, 0x80000000, 0]      W4..W7   (0x80 terminator in W6)
//	MSG2 = 0                             W8..W11
//	MSG3 = [0, 0, 0, 192]                W12..W15 (bit length)
//
// so three things fall out of the message being fixed: rounds 0..3 see
// only the parent and run once for a sibling pair; W8..W11 = 0 makes the
// MSG0 ^= MSG2 of rounds 8..11 a no-op; and SHA1MSG1(0, MSG3) = 0 leaves
// MSG2 zero through rounds 12..15.

// Byte reversal of a whole XMM register: big-endian words in memory order
// <-> the dword-3-first lane layout.
DATA flip<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flip<>+8(SB)/8, $0x0001020304050607
GLOBL flip<>(SB), RODATA|NOPTR, $16

// The SHA-1 initial chaining value: d, c, b, a from dword 0 up.
DATA iv<>+0(SB)/4, $0x10325476
DATA iv<>+4(SB)/4, $0x98badcfe
DATA iv<>+8(SB)/4, $0xefcdab89
DATA iv<>+12(SB)/4, $0x67452301
GLOBL iv<>(SB), RODATA|NOPTR, $16

// The initial e, in the E-register position.
DATA h4<>+0(SB)/8, $0
DATA h4<>+8(SB)/4, $0
DATA h4<>+12(SB)/4, $0xc3d2e1f0
GLOBL h4<>(SB), RODATA|NOPTR, $16

// rol30(initial a): what SHA1NEXTE would add to MSG1 for rounds 4..7, as
// a plain PADDD operand (one SHA-unit instruction fewer per lane).
DATA a30<>+0(SB)/8, $0
DATA a30<>+8(SB)/4, $0
DATA a30<>+12(SB)/4, $0x59d148c0
GLOBL a30<>(SB), RODATA|NOPTR, $16

// W6, W7 in the low qword of MSG1; the high qword (W4, idx) is inserted.
DATA w67<>+0(SB)/4, $0
DATA w67<>+4(SB)/4, $0x80000000
DATA w67<>+8(SB)/8, $0
GLOBL w67<>(SB), RODATA|NOPTR, $16

// MSG3: the message length, 192 bits, in W15.
DATA w15<>+0(SB)/4, $192
DATA w15<>+4(SB)/4, $0
DATA w15<>+8(SB)/8, $0
GLOBL w15<>(SB), RODATA|NOPTR, $16

// Lane a.
#define ABCDa X0
#define E0a   X1
#define E1a   X2
#define M0a   X3
#define M1a   X4
#define M2a   X5
#define M3a   X6

// Lane b.
#define ABCDb X7
#define E0b   X8
#define E1b   X9
#define M0b   X10
#define M1b   X11
#define M2b   X12
#define M3b   X13

#define FLIP X14
#define IV   X15

// Four rounds from round 16 on, with the schedule one step ahead: m0 is
// the current W group, e its E register; enext takes the ABCD copy the
// next four rounds turn into their e. SHA1NEXTE -> SHA1RNDS4 is the
// latency chain, so it is issued ahead of the schedule instructions that
// share its execution port.
#define QROUND(k, abcd, e, enext, m0, m1, m2, m3) \
	SHA1NEXTE m0, e; \
	MOVO      abcd, enext; \
	SHA1RNDS4 k, e, abcd; \
	SHA1MSG2  m0, m1; \
	SHA1MSG1  m0, m3; \
	PXOR      m0, m2

// Rounds 68..79: the schedule runs out, step by step.
#define TAIL(abcd, e0, e1, m0, m1, m2, m3) \
	SHA1NEXTE m1, e1; \
	MOVO      abcd, e0; \
	SHA1MSG2  m1, m2; \
	SHA1RNDS4 $3, e1, abcd; \
	PXOR      m1, m3; \
	SHA1NEXTE m2, e0; \
	MOVO      abcd, e1; \
	SHA1MSG2  m2, m3; \
	SHA1RNDS4 $3, e0, abcd; \
	SHA1NEXTE m3, e1; \
	MOVO      abcd, e0; \
	SHA1RNDS4 $3, e1, abcd

// Rounds 4..15 of one lane, entered with abcd = state after round 3,
// e0 = SHA1NEXTE(that state, 0) and m1 = [w4, idx, 0x80000000, 0]; zero
// is any all-zero register (MSG2).
#define HEAD(abcd, e0, e1, m0, m1, m3, zero) \
	MOVO      m1, e1; \
	PADDD     a30<>(SB), e1; \
	SHA1RNDS4 $0, e1, abcd; \
	SHA1MSG1  m1, m0; \
	MOVO      abcd, e1; \
	SHA1RNDS4 $0, e0, abcd; \
	SHA1MSG1  zero, m1; \
	MOVOU     w15<>(SB), m3; \
	SHA1NEXTE m3, e1; \
	MOVO      abcd, e0; \
	SHA1MSG2  m3, m0; \
	SHA1RNDS4 $0, e1, abcd; \
	PXOR      m3, m1

// Feed-forward, byte flip and store of one lane's digest.
#define STORE(abcd, e0, dst) \
	SHA1NEXTE h4<>(SB), e0; \
	PADDD     IV, abcd; \
	PSHUFB    FLIP, abcd; \
	PEXTRD    $3, e0, AX; \
	BSWAPL    AX; \
	MOVOU     abcd, (dst); \
	MOVL      AX, 16(dst)

// Rounds 16..79 of lanes a and b, four rounds of one then four of the
// other, so each SHA1RNDS4 chain fills the other's latency. (Alternating
// the lanes instruction by instruction measured 15% slower: in program
// order the schedule instructions of one lane then sit in front of the
// other lane's SHA1RNDS4 on the one port all of them use.)
#define BODY2 \
	QROUND($0, ABCDa, E0a, E1a, M0a, M1a, M2a, M3a); \
	QROUND($0, ABCDb, E0b, E1b, M0b, M1b, M2b, M3b); \
	QROUND($1, ABCDa, E1a, E0a, M1a, M2a, M3a, M0a); \
	QROUND($1, ABCDb, E1b, E0b, M1b, M2b, M3b, M0b); \
	QROUND($1, ABCDa, E0a, E1a, M2a, M3a, M0a, M1a); \
	QROUND($1, ABCDb, E0b, E1b, M2b, M3b, M0b, M1b); \
	QROUND($1, ABCDa, E1a, E0a, M3a, M0a, M1a, M2a); \
	QROUND($1, ABCDb, E1b, E0b, M3b, M0b, M1b, M2b); \
	QROUND($1, ABCDa, E0a, E1a, M0a, M1a, M2a, M3a); \
	QROUND($1, ABCDb, E0b, E1b, M0b, M1b, M2b, M3b); \
	QROUND($1, ABCDa, E1a, E0a, M1a, M2a, M3a, M0a); \
	QROUND($1, ABCDb, E1b, E0b, M1b, M2b, M3b, M0b); \
	QROUND($2, ABCDa, E0a, E1a, M2a, M3a, M0a, M1a); \
	QROUND($2, ABCDb, E0b, E1b, M2b, M3b, M0b, M1b); \
	QROUND($2, ABCDa, E1a, E0a, M3a, M0a, M1a, M2a); \
	QROUND($2, ABCDb, E1b, E0b, M3b, M0b, M1b, M2b); \
	QROUND($2, ABCDa, E0a, E1a, M0a, M1a, M2a, M3a); \
	QROUND($2, ABCDb, E0b, E1b, M0b, M1b, M2b, M3b); \
	QROUND($2, ABCDa, E1a, E0a, M1a, M2a, M3a, M0a); \
	QROUND($2, ABCDb, E1b, E0b, M1b, M2b, M3b, M0b); \
	QROUND($2, ABCDa, E0a, E1a, M2a, M3a, M0a, M1a); \
	QROUND($2, ABCDb, E0b, E1b, M2b, M3b, M0b, M1b); \
	QROUND($3, ABCDa, E1a, E0a, M3a, M0a, M1a, M2a); \
	QROUND($3, ABCDb, E1b, E0b, M3b, M0b, M1b, M2b); \
	QROUND($3, ABCDa, E0a, E1a, M0a, M1a, M2a, M3a); \
	QROUND($3, ABCDb, E0b, E1b, M0b, M1b, M2b, M3b); \
	TAIL(ABCDa, E0a, E1a, M0a, M1a, M2a, M3a); \
	TAIL(ABCDb, E0b, E1b, M0b, M1b, M2b, M3b)

#define BODY1 \
	QROUND($0, ABCDa, E0a, E1a, M0a, M1a, M2a, M3a); \
	QROUND($1, ABCDa, E1a, E0a, M1a, M2a, M3a, M0a); \
	QROUND($1, ABCDa, E0a, E1a, M2a, M3a, M0a, M1a); \
	QROUND($1, ABCDa, E1a, E0a, M3a, M0a, M1a, M2a); \
	QROUND($1, ABCDa, E0a, E1a, M0a, M1a, M2a, M3a); \
	QROUND($1, ABCDa, E1a, E0a, M1a, M2a, M3a, M0a); \
	QROUND($2, ABCDa, E0a, E1a, M2a, M3a, M0a, M1a); \
	QROUND($2, ABCDa, E1a, E0a, M3a, M0a, M1a, M2a); \
	QROUND($2, ABCDa, E0a, E1a, M0a, M1a, M2a, M3a); \
	QROUND($2, ABCDa, E1a, E0a, M1a, M2a, M3a, M0a); \
	QROUND($2, ABCDa, E0a, E1a, M2a, M3a, M0a, M1a); \
	QROUND($3, ABCDa, E1a, E0a, M3a, M0a, M1a, M2a); \
	QROUND($3, ABCDa, E0a, E1a, M0a, M1a, M2a, M3a); \
	TAIL(ABCDa, E0a, E1a, M0a, M1a, M2a, M3a)

// Parent load, MSG0, and rounds 0..3 — everything a sibling pair shares.
// In: BX = parent. Out: M0a = MSG0, ABCDa = state after round 3, E0a =
// SHA1NEXTE(that state, 0), M2a = 0, AX = w4 << 32, FLIP and IV loaded.
#define SHARED \
	MOVOU     (BX), M0a; \
	MOVL      16(BX), AX; \
	MOVOU     flip<>(SB), FLIP; \
	MOVOU     iv<>(SB), IV; \
	PSHUFB    FLIP, M0a; \
	BSWAPL    AX; \
	SHLQ      $32, AX; \
	MOVO      M0a, E1a; \
	PADDD     h4<>(SB), E1a; \
	MOVO      IV, ABCDa; \
	SHA1RNDS4 $0, E1a, ABCDa; \
	PXOR      M2a, M2a; \
	MOVO      ABCDa, E0a; \
	SHA1NEXTE M2a, E0a

// func spawnNI(dst, parent *State, idx uint32)
TEXT ·spawnNI(SB), NOSPLIT, $0-20
	MOVQ   dst+0(FP), DI
	MOVQ   parent+8(FP), BX
	MOVL   idx+16(FP), CX
	SHARED
	ORQ    AX, CX
	MOVOU  w67<>(SB), M1a
	PINSRQ $1, CX, M1a
	HEAD(ABCDa, E0a, E1a, M0a, M1a, M3a, M2a)
	BODY1
	STORE(ABCDa, E0a, DI)
	RET

// func spawnPairNI(dst0, dst1, parent *State, idx uint32)
//
// Children idx and idx+1 (mod 2^32) of one parent. Every load of *parent
// precedes every store, and dst0 is stored before dst1, so either may
// alias the parent and dst0 == dst1 leaves child idx+1 there.
TEXT ·spawnPairNI(SB), NOSPLIT, $0-28
	MOVQ   dst0+0(FP), DI
	MOVQ   dst1+8(FP), SI
	MOVQ   parent+16(FP), BX
	MOVL   idx+24(FP), CX
	SHARED
	LEAL   1(CX), DX
	ORQ    AX, CX
	ORQ    AX, DX
	MOVOU  w67<>(SB), M1a
	MOVO   M1a, M1b
	PINSRQ $1, CX, M1a
	PINSRQ $1, DX, M1b
	MOVO   M0a, M0b
	MOVO   ABCDa, ABCDb
	MOVO   E0a, E0b
	PXOR   M2b, M2b
	HEAD(ABCDa, E0a, E1a, M0a, M1a, M3a, M2a)
	HEAD(ABCDb, E0b, E1b, M0b, M1b, M3b, M2b)
	BODY2
	STORE(ABCDa, E0a, DI)
	STORE(ABCDb, E0b, SI)
	RET

// func cpuHasNI() bool
//
// SHA extensions (leaf 7 EBX bit 29) plus what the kernel's other
// instructions need: SSSE3 for PSHUFB (leaf 1 ECX bit 9) and SSE4.1 for
// PINSRQ/PEXTRD (bit 19).
TEXT ·cpuHasNI(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<9 | 1<<19), CX
	CMPL CX, $(1<<9 | 1<<19)
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $29, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET
