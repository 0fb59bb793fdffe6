// SSE2 kernels for Vec.Axpy, Vec.Axpy4, Mat.MulVecTInto and Mat.MulVec4Into.
// Each lane of a packed instruction computes exactly one output element's
// scalar chain: the same rounded products, added to the same running value in
// the same order, from the same start. There is no horizontal reduction and no
// fused multiply-add, so every result is bit-equal to the Go loops in
// kernels_other.go (DESIGN.md, "Float-order preservation"). SSE2 is the amd64
// baseline; X15, R14, R15 and BP are never written.

#include "textflag.h"

// func axpy(v []float64, a float64, x []float64)
//
// v[j] += a·x[j]. The caller has checked len(x) == len(v).
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVSD a+24(FP), X0
	MOVQ x_base+32(FP), SI
	UNPCKLPD X0, X0            // X0 = [a, a]
	XORQ AX, AX                // j

axpyLoop4:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JL   axpyPair
	MOVUPD (SI)(AX*8), X1
	MOVUPD 16(SI)(AX*8), X2
	MULPD X0, X1
	MULPD X0, X2
	MOVUPD (DI)(AX*8), X3
	MOVUPD 16(DI)(AX*8), X4
	ADDPD X1, X3
	ADDPD X2, X4
	MOVUPD X3, (DI)(AX*8)
	MOVUPD X4, 16(DI)(AX*8)
	ADDQ $4, AX
	JMP  axpyLoop4

axpyPair:
	CMPQ DX, $2
	JL   axpySingle
	MOVUPD (SI)(AX*8), X1
	MULPD X0, X1
	MOVUPD (DI)(AX*8), X3
	ADDPD X1, X3
	MOVUPD X3, (DI)(AX*8)
	ADDQ $2, AX
	SUBQ $2, DX

axpySingle:
	CMPQ DX, $1
	JL   axpyDone
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	MOVSD (DI)(AX*8), X3
	ADDSD X1, X3
	MOVSD X3, (DI)(AX*8)

axpyDone:
	RET

// func axpy4(v []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64)
//
// v[j] = (((v[j] + a0·x0[j]) + a1·x1[j]) + a2·x2[j]) + a3·x3[j]. The caller
// has checked that every x has len(v) elements.
TEXT ·axpy4(SB), NOSPLIT, $0-152
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVSD a0+24(FP), X0
	MOVSD a1+32(FP), X1
	MOVSD a2+40(FP), X2
	MOVSD a3+48(FP), X3
	MOVQ x0_base+56(FP), R8
	MOVQ x1_base+80(FP), R9
	MOVQ x2_base+104(FP), R10
	MOVQ x3_base+128(FP), R11
	UNPCKLPD X0, X0
	UNPCKLPD X1, X1
	UNPCKLPD X2, X2
	UNPCKLPD X3, X3
	XORQ AX, AX                // j

axpy4Loop4:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JL   axpy4Pair
	MOVUPD (DI)(AX*8), X4      // v[j:j+2]
	MOVUPD 16(DI)(AX*8), X5    // v[j+2:j+4]
	MOVUPD (R8)(AX*8), X6
	MOVUPD 16(R8)(AX*8), X7
	MULPD X0, X6
	MULPD X0, X7
	ADDPD X6, X4
	ADDPD X7, X5
	MOVUPD (R9)(AX*8), X8
	MOVUPD 16(R9)(AX*8), X9
	MULPD X1, X8
	MULPD X1, X9
	ADDPD X8, X4
	ADDPD X9, X5
	MOVUPD (R10)(AX*8), X10
	MOVUPD 16(R10)(AX*8), X11
	MULPD X2, X10
	MULPD X2, X11
	ADDPD X10, X4
	ADDPD X11, X5
	MOVUPD (R11)(AX*8), X12
	MOVUPD 16(R11)(AX*8), X13
	MULPD X3, X12
	MULPD X3, X13
	ADDPD X12, X4
	ADDPD X13, X5
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy4Loop4

axpy4Pair:
	CMPQ DX, $2
	JL   axpy4Single
	MOVUPD (DI)(AX*8), X4
	MOVUPD (R8)(AX*8), X6
	MULPD X0, X6
	ADDPD X6, X4
	MOVUPD (R9)(AX*8), X8
	MULPD X1, X8
	ADDPD X8, X4
	MOVUPD (R10)(AX*8), X10
	MULPD X2, X10
	ADDPD X10, X4
	MOVUPD (R11)(AX*8), X12
	MULPD X3, X12
	ADDPD X12, X4
	MOVUPD X4, (DI)(AX*8)
	ADDQ $2, AX
	SUBQ $2, DX

axpy4Single:
	CMPQ DX, $1
	JL   axpy4Done
	MOVSD (DI)(AX*8), X4
	MOVSD (R8)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD (R9)(AX*8), X8
	MULSD X1, X8
	ADDSD X8, X4
	MOVSD (R10)(AX*8), X10
	MULSD X2, X10
	ADDSD X10, X4
	MOVSD (R11)(AX*8), X12
	MULSD X3, X12
	ADDSD X12, X4
	MOVSD X4, (DI)(AX*8)

axpy4Done:
	RET

// func mulVecT(dst, m, x []float64)
//
// dst[j] = x[0]·m[0][j] + x[1]·m[1][j] + … in row order from +0, for the
// row-major len(x) × len(dst) matrix m. The caller has checked
// len(m) == len(x)·len(dst). Columns are taken sixteen at a time in eight
// accumulators X0–X7 that stay in registers for the whole pass over the rows,
// then in pairs, then one scalar column.
TEXT ·mulVecT(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX     // cols
	MOVQ m_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), BX      // rows
	MOVQ CX, R8
	SHLQ $3, R8                // row stride in bytes
	XORQ R9, R9                // first column of the current block

mulVecTBlock16:
	MOVQ CX, AX
	SUBQ R9, AX                // columns left
	CMPQ AX, $16
	JL   mulVecTPair
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORPD X4, X4
	XORPD X5, X5
	XORPD X6, X6
	XORPD X7, X7
	LEAQ (SI)(R9*8), R10       // &m[0][R9]
	XORQ R11, R11              // row

mulVecTRows16:
	CMPQ R11, BX
	JGE  mulVecTStore16
	MOVSD (DX)(R11*8), X8
	UNPCKLPD X8, X8            // X8 = [x[i], x[i]]
	MOVUPD (R10), X9
	MOVUPD 16(R10), X10
	MOVUPD 32(R10), X11
	MOVUPD 48(R10), X12
	MULPD X8, X9
	MULPD X8, X10
	MULPD X8, X11
	MULPD X8, X12
	ADDPD X9, X0
	ADDPD X10, X1
	ADDPD X11, X2
	ADDPD X12, X3
	MOVUPD 64(R10), X9
	MOVUPD 80(R10), X10
	MOVUPD 96(R10), X11
	MOVUPD 112(R10), X12
	MULPD X8, X9
	MULPD X8, X10
	MULPD X8, X11
	MULPD X8, X12
	ADDPD X9, X4
	ADDPD X10, X5
	ADDPD X11, X6
	ADDPD X12, X7
	ADDQ R8, R10
	INCQ R11
	JMP  mulVecTRows16

mulVecTStore16:
	LEAQ (DI)(R9*8), R12
	MOVUPD X0, (R12)
	MOVUPD X1, 16(R12)
	MOVUPD X2, 32(R12)
	MOVUPD X3, 48(R12)
	MOVUPD X4, 64(R12)
	MOVUPD X5, 80(R12)
	MOVUPD X6, 96(R12)
	MOVUPD X7, 112(R12)
	ADDQ $16, R9
	JMP  mulVecTBlock16

mulVecTPair:
	CMPQ AX, $2
	JL   mulVecTSingle
	XORPD X0, X0
	LEAQ (SI)(R9*8), R10
	XORQ R11, R11

mulVecTRows2:
	CMPQ R11, BX
	JGE  mulVecTStore2
	MOVSD (DX)(R11*8), X8
	UNPCKLPD X8, X8
	MOVUPD (R10), X9
	MULPD X8, X9
	ADDPD X9, X0
	ADDQ R8, R10
	INCQ R11
	JMP  mulVecTRows2

mulVecTStore2:
	MOVUPD X0, (DI)(R9*8)
	ADDQ $2, R9
	SUBQ $2, AX
	JMP  mulVecTPair

mulVecTSingle:
	CMPQ AX, $1
	JL   mulVecTDone
	XORPD X0, X0
	LEAQ (SI)(R9*8), R10
	XORQ R11, R11

mulVecTRows1:
	CMPQ R11, BX
	JGE  mulVecTStore1
	MOVSD (DX)(R11*8), X8
	MOVSD (R10), X9
	MULSD X8, X9
	ADDSD X9, X0
	ADDQ R8, R10
	INCQ R11
	JMP  mulVecTRows1

mulVecTStore1:
	MOVSD X0, (DI)(R9*8)

mulVecTDone:
	RET

// func mulVec4(d0, d1, d2, d3, m, x0, x1, x2, x3 []float64)
//
// dk[i] = m[i][0]·xk[0] + m[i][1]·xk[1] + … in column order from +0, for
// k = 0..3 and the row-major len(d0) × len(x0) matrix m: four matrix-vector
// products in one pass over m. The caller has checked every length. Samples
// ride in lanes: X10 = [x0[j], x1[j]] and X11 = [x2[j], x3[j]], so each lane
// of a row's two accumulators is one (row, sample) chain. Rows are taken five
// at a time in ten accumulators X0–X9 that stay in registers for the whole
// pass over the columns, then one at a time in X0–X1; X12 and X13 are
// scratch. The low lanes go to d0 and d2 with MOVSD, the high lanes to d1 and
// d3 with MOVHPD, through base pointers reloaded from the frame.
TEXT ·mulVec4(SB), NOSPLIT, $0-216
	MOVQ m_base+96(FP), SI     // &m[r][0] of the current pass
	MOVQ x0_base+120(FP), R8
	MOVQ x1_base+144(FP), R9
	MOVQ x2_base+168(FP), R10
	MOVQ x3_base+192(FP), R11
	MOVQ x0_len+128(FP), CX    // cols
	XORQ BX, BX                // r, the first row of the current pass

mulVec4Block5:
	MOVQ d0_len+8(FP), AX      // rows
	SUBQ BX, AX
	CMPQ AX, $5
	JL   mulVec4Single
	MOVQ CX, AX
	SHLQ $3, AX                // row stride in bytes
	LEAQ (SI)(AX*1), DI
	LEAQ (DI)(AX*1), DX
	LEAQ (DX)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORPD X4, X4
	XORPD X5, X5
	XORPD X6, X6
	XORPD X7, X7
	XORPD X8, X8
	XORPD X9, X9
	XORQ AX, AX                // j

mulVec4Cols5:
	CMPQ AX, CX
	JGE  mulVec4Store5
	MOVSD (R8)(AX*8), X10
	MOVHPD (R9)(AX*8), X10     // X10 = [x0[j], x1[j]]
	MOVSD (R10)(AX*8), X11
	MOVHPD (R11)(AX*8), X11    // X11 = [x2[j], x3[j]]
	MOVSD (SI)(AX*8), X12
	UNPCKLPD X12, X12          // X12 = [m[r][j], m[r][j]]
	MOVUPD X12, X13
	MULPD X10, X12
	MULPD X11, X13
	ADDPD X12, X0
	ADDPD X13, X1
	MOVSD (DI)(AX*8), X12
	UNPCKLPD X12, X12
	MOVUPD X12, X13
	MULPD X10, X12
	MULPD X11, X13
	ADDPD X12, X2
	ADDPD X13, X3
	MOVSD (DX)(AX*8), X12
	UNPCKLPD X12, X12
	MOVUPD X12, X13
	MULPD X10, X12
	MULPD X11, X13
	ADDPD X12, X4
	ADDPD X13, X5
	MOVSD (R12)(AX*8), X12
	UNPCKLPD X12, X12
	MOVUPD X12, X13
	MULPD X10, X12
	MULPD X11, X13
	ADDPD X12, X6
	ADDPD X13, X7
	MOVSD (R13)(AX*8), X12
	UNPCKLPD X12, X12
	MOVUPD X12, X13
	MULPD X10, X12
	MULPD X11, X13
	ADDPD X12, X8
	ADDPD X13, X9
	INCQ AX
	JMP  mulVec4Cols5

mulVec4Store5:
	MOVQ d0_base+0(FP), AX
	MOVSD X0, (AX)(BX*8)
	MOVSD X2, 8(AX)(BX*8)
	MOVSD X4, 16(AX)(BX*8)
	MOVSD X6, 24(AX)(BX*8)
	MOVSD X8, 32(AX)(BX*8)
	MOVQ d1_base+24(FP), AX
	MOVHPD X0, (AX)(BX*8)
	MOVHPD X2, 8(AX)(BX*8)
	MOVHPD X4, 16(AX)(BX*8)
	MOVHPD X6, 24(AX)(BX*8)
	MOVHPD X8, 32(AX)(BX*8)
	MOVQ d2_base+48(FP), AX
	MOVSD X1, (AX)(BX*8)
	MOVSD X3, 8(AX)(BX*8)
	MOVSD X5, 16(AX)(BX*8)
	MOVSD X7, 24(AX)(BX*8)
	MOVSD X9, 32(AX)(BX*8)
	MOVQ d3_base+72(FP), AX
	MOVHPD X1, (AX)(BX*8)
	MOVHPD X3, 8(AX)(BX*8)
	MOVHPD X5, 16(AX)(BX*8)
	MOVHPD X7, 24(AX)(BX*8)
	MOVHPD X9, 32(AX)(BX*8)
	MOVQ CX, AX
	SHLQ $3, AX
	LEAQ (R13)(AX*1), SI       // &m[r+5][0]
	ADDQ $5, BX
	JMP  mulVec4Block5

mulVec4Single:
	CMPQ BX, d0_len+8(FP)
	JGE  mulVec4Done
	XORPD X0, X0
	XORPD X1, X1
	XORQ AX, AX

mulVec4Cols1:
	CMPQ AX, CX
	JGE  mulVec4Store1
	MOVSD (R8)(AX*8), X10
	MOVHPD (R9)(AX*8), X10
	MOVSD (R10)(AX*8), X11
	MOVHPD (R11)(AX*8), X11
	MOVSD (SI)(AX*8), X12
	UNPCKLPD X12, X12
	MOVUPD X12, X13
	MULPD X10, X12
	MULPD X11, X13
	ADDPD X12, X0
	ADDPD X13, X1
	INCQ AX
	JMP  mulVec4Cols1

mulVec4Store1:
	MOVQ d0_base+0(FP), AX
	MOVSD X0, (AX)(BX*8)
	MOVQ d1_base+24(FP), AX
	MOVHPD X0, (AX)(BX*8)
	MOVQ d2_base+48(FP), AX
	MOVSD X1, (AX)(BX*8)
	MOVQ d3_base+72(FP), AX
	MOVHPD X1, (AX)(BX*8)
	LEAQ (SI)(CX*8), SI        // &m[r+1][0]
	INCQ BX
	JMP  mulVec4Single

mulVec4Done:
	RET

// PICK folds one row's logits V of two lanes into their running (best,
// runner-up, class) triple B, S, I, given the row's index as a double in both
// lanes of X14; T is scratch. It leaves the new best in V, and B and X14
// hold garbage. Per lane, with b the old best and s the old runner-up:
//   - T = V where V > s and s otherwise (a tie or a NaN keeps s): the
//     runner-up if V does not take the lead;
//   - V = V where V > b and b otherwise (a tie or a NaN keeps b): the best;
//   - S = the mask of b < V, set exactly where V took the lead (a NaN best
//     is never below anything, so it is never displaced);
//   - I = the larger of I and the row where the mask is set (+0 elsewhere;
//     rows come in increasing order, so it takes the row exactly there);
//   - S = b where the mask is set and T elsewhere: the new runner-up.
#define PICK(V, B, S, I, T) \
	MOVAPD V, T;        \
	MAXPD S, T;         \
	MAXPD B, V;         \
	MOVAPD B, S;        \
	CMPPD V, S, $1;     \
	ANDPD S, B;         \
	ANDPD S, X14;       \
	MAXPD X14, I;       \
	ANDNPD T, S;        \
	ORPD B, S

// ROW sets both lanes of X14 to the row index in R, as a double.
#define ROW(R) \
	CVTSQ2SD R, X14; \
	UNPCKLPD X14, X14

// BIAS adds b[BX+T] to both lane pairs of a row: Z0 + b, Z1 + b, the
// order AddInPlace adds them in. AX holds &b[0]; X14 is scratch.
#define BIAS(Z0, Z1, T) \
	MOVSD T*8(AX)(BX*8), X14; \
	UNPCKLPD X14, X14;        \
	ADDPD X14, Z0;            \
	ADDPD X14, Z1

// func argmaxAffine4(c *[4]int, margin *[4]float64, m, b, x0, x1, x2, x3 []float64)
//
// c[k] = the index i of the largest m[i]·xk + b[i], for k = 0..3 and the
// row-major len(b) × len(x0) matrix m, ties going to the lower index and a
// NaN never displacing an earlier value: MulVec4Into's column-order chains,
// then b[i] added, then an argmax that starts at row 0 and takes a later row
// only where its logit is strictly larger. margin[k] = that logit less the
// runner-up: the largest logit of the other rows by the same rule, starting
// from margin[k] as the caller passes it in (the runner-up before any row).
// The caller has checked every length and that m has at least one row. The
// column loop is mulVec4's, five rows in X0–X9 per pass and then one at a
// time in X0–X1. A pass folds its rows lane pair by lane pair: samples 0
// and 1 (X0, X2, …, X8), then 2 and 3 (X1, X3, …, X9), each with its
// (best, runner-up, class) triple in X10–X12 and X13 as scratch; between
// passes the triples wait in the frame: best at 0(SP) and 16(SP), runner-up
// at 32(SP) and 48(SP), classes (doubles, converted on return) at 64(SP)
// and 80(SP).
TEXT ·argmaxAffine4(SB), NOSPLIT, $96-160
	MOVQ m_base+16(FP), SI     // &m[r][0] of the current pass
	MOVQ x0_base+64(FP), R8
	MOVQ x1_base+88(FP), R9
	MOVQ x2_base+112(FP), R10
	MOVQ x3_base+136(FP), R11
	MOVQ x0_len+72(FP), CX     // cols
	MOVQ margin+8(FP), DI
	MOVUPD 0(DI), X12
	MOVUPD X12, 32(SP)         // the runner-up before any row
	MOVUPD 16(DI), X12
	MOVUPD X12, 48(SP)
	XORPD X12, X12
	MOVUPD X12, 64(SP)         // every class starts at row 0
	MOVUPD X12, 80(SP)
	XORQ BX, BX                // r, the first row of the current pass

argmaxBlock5:
	MOVQ b_len+48(FP), AX      // rows
	SUBQ BX, AX
	CMPQ AX, $5
	JL   argmaxTail
	MOVQ CX, AX
	SHLQ $3, AX                // row stride in bytes
	LEAQ (SI)(AX*1), DI
	LEAQ (DI)(AX*1), DX
	LEAQ (DX)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORPD X4, X4
	XORPD X5, X5
	XORPD X6, X6
	XORPD X7, X7
	XORPD X8, X8
	XORPD X9, X9
	XORQ AX, AX                // j

argmaxCols5:
	CMPQ AX, CX
	JGE  argmaxPick5
	MOVSD (R8)(AX*8), X10
	MOVHPD (R9)(AX*8), X10     // X10 = [x0[j], x1[j]]
	MOVSD (R10)(AX*8), X11
	MOVHPD (R11)(AX*8), X11    // X11 = [x2[j], x3[j]]
	MOVSD (SI)(AX*8), X12
	UNPCKLPD X12, X12          // X12 = [m[r][j], m[r][j]]
	MOVUPD X12, X13
	MULPD X10, X12
	MULPD X11, X13
	ADDPD X12, X0
	ADDPD X13, X1
	MOVSD (DI)(AX*8), X12
	UNPCKLPD X12, X12
	MOVUPD X12, X13
	MULPD X10, X12
	MULPD X11, X13
	ADDPD X12, X2
	ADDPD X13, X3
	MOVSD (DX)(AX*8), X12
	UNPCKLPD X12, X12
	MOVUPD X12, X13
	MULPD X10, X12
	MULPD X11, X13
	ADDPD X12, X4
	ADDPD X13, X5
	MOVSD (R12)(AX*8), X12
	UNPCKLPD X12, X12
	MOVUPD X12, X13
	MULPD X10, X12
	MULPD X11, X13
	ADDPD X12, X6
	ADDPD X13, X7
	MOVSD (R13)(AX*8), X12
	UNPCKLPD X12, X12
	MOVUPD X12, X13
	MULPD X10, X12
	MULPD X11, X13
	ADDPD X12, X8
	ADDPD X13, X9
	INCQ AX
	JMP  argmaxCols5

argmaxPick5:
	MOVQ CX, AX
	SHLQ $3, AX
	LEAQ (R13)(AX*1), SI       // &m[r+5][0]
	MOVQ b_base+40(FP), AX
	BIAS(X0, X1, 0)
	BIAS(X2, X3, 1)
	BIAS(X4, X5, 2)
	BIAS(X6, X7, 3)
	BIAS(X8, X9, 4)
	LEAQ 1(BX), DX             // the pass's second row

	// Samples 0 and 1. At row 0 the row's logits are the best as they are.
	MOVUPD 0(SP), X10
	MOVUPD 32(SP), X11
	MOVUPD 64(SP), X12
	CMPQ BX, $0
	JE   argmaxRestA
	ROW(BX)
	PICK(X0, X10, X11, X12, X13)

argmaxRestA:
	MOVQ DX, DI
	ROW(DI)
	PICK(X2, X0, X11, X12, X13)
	INCQ DI
	ROW(DI)
	PICK(X4, X2, X11, X12, X13)
	INCQ DI
	ROW(DI)
	PICK(X6, X4, X11, X12, X13)
	INCQ DI
	ROW(DI)
	PICK(X8, X6, X11, X12, X13)
	MOVUPD X8, 0(SP)
	MOVUPD X11, 32(SP)
	MOVUPD X12, 64(SP)

	// Samples 2 and 3, the same way.
	MOVUPD 16(SP), X10
	MOVUPD 48(SP), X11
	MOVUPD 80(SP), X12
	CMPQ BX, $0
	JE   argmaxRestB
	ROW(BX)
	PICK(X1, X10, X11, X12, X13)

argmaxRestB:
	MOVQ DX, DI
	ROW(DI)
	PICK(X3, X1, X11, X12, X13)
	INCQ DI
	ROW(DI)
	PICK(X5, X3, X11, X12, X13)
	INCQ DI
	ROW(DI)
	PICK(X7, X5, X11, X12, X13)
	INCQ DI
	ROW(DI)
	PICK(X9, X7, X11, X12, X13)
	MOVUPD X9, 16(SP)
	MOVUPD X11, 48(SP)
	MOVUPD X12, 80(SP)
	ADDQ $5, BX
	JMP  argmaxBlock5

	// One row at a time: the samples' lanes go to X0–X1 and X2–X5 is the
	// column loop's scratch; the triples stay in X6–X8 (samples 0 and 1)
	// and X9–X11 (samples 2 and 3), with X12 as scratch.
argmaxTail:
	MOVQ b_base+40(FP), AX
	MOVUPD 0(SP), X6
	MOVUPD 32(SP), X7
	MOVUPD 64(SP), X8
	MOVUPD 16(SP), X9
	MOVUPD 48(SP), X10
	MOVUPD 80(SP), X11

argmaxSingle:
	CMPQ BX, b_len+48(FP)
	JGE  argmaxDone
	XORPD X0, X0
	XORPD X1, X1
	XORQ DX, DX                // j

argmaxCols1:
	CMPQ DX, CX
	JGE  argmaxPick1
	MOVSD (R8)(DX*8), X2
	MOVHPD (R9)(DX*8), X2
	MOVSD (R10)(DX*8), X3
	MOVHPD (R11)(DX*8), X3
	MOVSD (SI)(DX*8), X4
	UNPCKLPD X4, X4
	MOVUPD X4, X5
	MULPD X2, X4
	MULPD X3, X5
	ADDPD X4, X0
	ADDPD X5, X1
	INCQ DX
	JMP  argmaxCols1

argmaxPick1:
	BIAS(X0, X1, 0)
	CMPQ BX, $0
	JE   argmaxKeep1
	ROW(BX)
	PICK(X0, X6, X7, X8, X12)
	ROW(BX)
	PICK(X1, X9, X10, X11, X12)

argmaxKeep1:
	MOVAPD X0, X6              // the best, left in the row's lanes
	MOVAPD X1, X9
	LEAQ (SI)(CX*8), SI        // &m[r+1][0]
	INCQ BX
	JMP  argmaxSingle

argmaxDone:
	MOVQ margin+8(FP), DI
	SUBPD X7, X6               // best − runner-up
	SUBPD X10, X9
	MOVUPD X6, 0(DI)
	MOVUPD X9, 16(DI)
	MOVQ c+0(FP), DI
	CVTTSD2SQ X8, AX
	MOVQ AX, (DI)
	PSHUFD $0xEE, X8, X8       // the high lane, moved low
	CVTTSD2SQ X8, AX
	MOVQ AX, 8(DI)
	CVTTSD2SQ X11, AX
	MOVQ AX, 16(DI)
	PSHUFD $0xEE, X11, X11
	CVTTSD2SQ X11, AX
	MOVQ AX, 24(DI)
	RET
