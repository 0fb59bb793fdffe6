// The SSE2 kernel for Source.Normals' transform. Each lane computes one
// normal's scalar chain, polar(u, s) = u·√(−2·ln(s)/s), with the same IEEE
// operations in the same order as the Go code in normal.go and fmath.Log:
// frexp by masking the bits, the √2/2 fold by a compare mask, then the log's
// polynomial, the division and the square root. There is no fused
// multiply-add, so every result is bit-equal to the Go loop in
// kernels_other.go (DESIGN.md, "Normal draws"). SSE2 is the amd64 baseline;
// X15, R14, R15 and BP are never written.

#include "textflag.h"

// Per-lane constants, one 16-byte pair each. The table is 32-byte aligned
// (the linker aligns a symbol to its size, up to 32), so every pair is a
// legal 16-byte memory operand.
DATA polarConst<>+0x00(SB)/8, $0x000FFFFFFFFFFFFF // mantissa mask
DATA polarConst<>+0x08(SB)/8, $0x000FFFFFFFFFFFFF
DATA polarConst<>+0x10(SB)/8, $0x3FE0000000000000 // 0.5
DATA polarConst<>+0x18(SB)/8, $0x3FE0000000000000
DATA polarConst<>+0x20(SB)/8, $0x00000000000003FE // exponent bias − 1
DATA polarConst<>+0x28(SB)/8, $0x00000000000003FE
DATA polarConst<>+0x30(SB)/8, $0x3FE6A09E667F3BCD // √2/2
DATA polarConst<>+0x38(SB)/8, $0x3FE6A09E667F3BCD
DATA polarConst<>+0x40(SB)/8, $0x3FF0000000000000 // 1
DATA polarConst<>+0x48(SB)/8, $0x3FF0000000000000
DATA polarConst<>+0x50(SB)/8, $0x4000000000000000 // 2
DATA polarConst<>+0x58(SB)/8, $0x4000000000000000
DATA polarConst<>+0x60(SB)/8, $0x3FE5555555555593 // L1
DATA polarConst<>+0x68(SB)/8, $0x3FE5555555555593
DATA polarConst<>+0x70(SB)/8, $0x3FD999999997FA04 // L2
DATA polarConst<>+0x78(SB)/8, $0x3FD999999997FA04
DATA polarConst<>+0x80(SB)/8, $0x3FD2492494229359 // L3
DATA polarConst<>+0x88(SB)/8, $0x3FD2492494229359
DATA polarConst<>+0x90(SB)/8, $0x3FCC71C51D8E78AF // L4
DATA polarConst<>+0x98(SB)/8, $0x3FCC71C51D8E78AF
DATA polarConst<>+0xa0(SB)/8, $0x3FC7466496CB03DE // L5
DATA polarConst<>+0xa8(SB)/8, $0x3FC7466496CB03DE
DATA polarConst<>+0xb0(SB)/8, $0x3FC39A09D078C69F // L6
DATA polarConst<>+0xb8(SB)/8, $0x3FC39A09D078C69F
DATA polarConst<>+0xc0(SB)/8, $0x3FC2F112DF3E5244 // L7
DATA polarConst<>+0xc8(SB)/8, $0x3FC2F112DF3E5244
DATA polarConst<>+0xd0(SB)/8, $0x3FE62E42FEE00000 // Ln2Hi
DATA polarConst<>+0xd8(SB)/8, $0x3FE62E42FEE00000
DATA polarConst<>+0xe0(SB)/8, $0x3DEA39EF35793C76 // Ln2Lo
DATA polarConst<>+0xe8(SB)/8, $0x3DEA39EF35793C76
DATA polarConst<>+0xf0(SB)/8, $0xC000000000000000 // −2
DATA polarConst<>+0xf8(SB)/8, $0xC000000000000000
GLOBL polarConst<>(SB), RODATA|NOPTR, $256

#define MANT polarConst<>+0x00(SB)
#define HALF polarConst<>+0x10(SB)
#define BIAS polarConst<>+0x20(SB)
#define HSQRT2 polarConst<>+0x30(SB)
#define ONE polarConst<>+0x40(SB)
#define TWO polarConst<>+0x50(SB)
#define L1 polarConst<>+0x60(SB)
#define L2 polarConst<>+0x70(SB)
#define L3 polarConst<>+0x80(SB)
#define L4 polarConst<>+0x90(SB)
#define L5 polarConst<>+0xa0(SB)
#define L6 polarConst<>+0xb0(SB)
#define L7 polarConst<>+0xc0(SB)
#define LN2HI polarConst<>+0xd0(SB)
#define LN2LO polarConst<>+0xe0(SB)
#define MINUS2 polarConst<>+0xf0(SB)

// func polarTransform(dst, s []float64)
//
// dst[i] = dst[i]·√(−2·ln(s[i])/s[i]), two lanes per pass. A last odd
// element runs the same pass with its upper lane zero and stores only the
// lower lane. The caller has checked len(s) == len(dst).
TEXT ·polarTransform(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	XORQ AX, AX                // i

polarLoop:
	MOVQ CX, DX
	SUBQ AX, DX                // DX = elements left
	CMPQ DX, $1
	JL   polarDone
	JE   polarOne
	MOVUPD (SI)(AX*8), X0      // s
	MOVUPD (DI)(AX*8), X8      // u
	JMP  polarLanes

polarOne:
	MOVSD (SI)(AX*8), X0
	MOVSD (DI)(AX*8), X8

polarLanes:
	// f1, k := frexp(s): the mantissa under the exponent of 1/2, and the
	// biased exponent − 0x3FE, as int64 lanes packed to int32 and converted.
	MOVAPD X0, X1
	ANDPD  MANT, X1
	ORPD   HALF, X1            // X1 = f1
	MOVAPD X0, X2
	PSRLQ  $52, X2
	PSUBQ  BIAS, X2
	PSHUFD $0x08, X2, X2
	CVTPL2PD X2, X2            // X2 = k
	// if f1 < √2/2 { k -= 1; f1 *= 2 }: a lane mask ANDed with 1.
	MOVAPD X1, X3
	CMPPD  HSQRT2, X3, $1      // X3 = f1 < √2/2 (fmath.Log folds f1 = √2/2 too: same bits on [2⁻¹⁰⁴, 1))
	ANDPD  ONE, X3             // 0 or 1
	SUBPD  X3, X2              // k
	ADDPD  ONE, X3             // 1 or 2
	MULPD  X3, X1              // f1
	SUBPD  ONE, X1             // X1 = f = f1 − 1
	// t := f / (2 + f); t2 := t·t; t4 := t2·t2
	MOVAPD TWO, X3
	ADDPD  X1, X3
	MOVAPD X1, X4
	DIVPD  X3, X4              // X4 = t
	MOVAPD X4, X5
	MULPD  X5, X5              // X5 = t2
	MOVAPD X5, X6
	MULPD  X6, X6              // X6 = t4
	// r := t2·(L1 + t4·(L3 + t4·(L5 + t4·L7))) + t4·(L2 + t4·(L4 + t4·L6))
	MOVAPD X6, X7
	MULPD  L7, X7
	ADDPD  L5, X7
	MULPD  X6, X7
	ADDPD  L3, X7
	MULPD  X6, X7
	ADDPD  L1, X7
	MULPD  X7, X5              // X5 = t2·(…)
	MOVAPD X6, X7
	MULPD  L6, X7
	ADDPD  L4, X7
	MULPD  X6, X7
	ADDPD  L2, X7
	MULPD  X7, X6              // X6 = t4·(…)
	ADDPD  X6, X5              // X5 = r
	// hfsq := (0.5·f)·f
	MOVAPD HALF, X7
	MULPD  X1, X7
	MULPD  X1, X7              // X7 = hfsq
	// ln s = k·Ln2Hi − ((hfsq − (t·(hfsq + r) + k·Ln2Lo)) − f)
	ADDPD  X7, X5
	MULPD  X5, X4              // X4 = t·(hfsq + r)
	MOVAPD LN2LO, X5
	MULPD  X2, X5
	ADDPD  X5, X4              // X4 = t·(hfsq + r) + k·Ln2Lo
	SUBPD  X4, X7
	SUBPD  X1, X7              // X7 = (hfsq − X4) − f
	MULPD  LN2HI, X2
	SUBPD  X7, X2              // X2 = ln s
	// u·√(−2·ln s / s)
	MULPD  MINUS2, X2
	DIVPD  X0, X2
	SQRTPD X2, X2
	MULPD  X2, X8

	CMPQ DX, $1
	JE   polarStoreOne
	MOVUPD X8, (DI)(AX*8)
	ADDQ $2, AX
	JMP  polarLoop

polarStoreOne:
	MOVSD X8, (DI)(AX*8)

polarDone:
	RET
