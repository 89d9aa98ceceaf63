//go:build amd64

#include "textflag.h"

// The per-element kernels below each take a count n that is a positive
// multiple of 8 (the Go caller runs the last n%8 elements) and step eight
// floats at a time with unaligned loads and stores, never touching a byte
// past element n-1 of any operand. They use no fused multiply-add: every
// product is rounded before the add or subtract that consumes it, and the
// operations run in their scalar loop's order, so a lane computes exactly
// what the loop computes for that element. The float64 ones widen four
// float32s to four float64 lanes (VCVTPS2PD, exact) and round back once with
// VCVTPD2PS, as the loop's float32 conversion does.

// func bnNormAVX(xhat, y, x *float32, n int, mean, invStd, gamma, beta float64)
//
// xh = (x[j] - mean) * invStd; xhat[j] = float32(xh);
// y[j] = float32(gamma*xh + beta).
TEXT ·bnNormAVX(SB), NOSPLIT, $0-64
	MOVQ         xhat+0(FP), DI
	MOVQ         y+8(FP), DX
	MOVQ         x+16(FP), SI
	MOVQ         n+24(FP), CX
	VBROADCASTSD mean+32(FP), Y12
	VBROADCASTSD invStd+40(FP), Y13
	VBROADCASTSD gamma+48(FP), Y14
	VBROADCASTSD beta+56(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX

bnnorm8:
	VCVTPS2PD  (SI)(AX*1), Y0
	VCVTPS2PD  16(SI)(AX*1), Y1
	VSUBPD     Y12, Y0, Y0
	VSUBPD     Y12, Y1, Y1
	VMULPD     Y13, Y0, Y0
	VMULPD     Y13, Y1, Y1
	VMULPD     Y0, Y14, Y2
	VMULPD     Y1, Y14, Y3
	VADDPD     Y15, Y2, Y2
	VADDPD     Y15, Y3, Y3
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y1, X1
	VCVTPD2PSY Y2, X2
	VCVTPD2PSY Y3, X3
	VMOVUPS    X0, (DI)(AX*1)
	VMOVUPS    X1, 16(DI)(AX*1)
	VMOVUPS    X2, (DX)(AX*1)
	VMOVUPS    X3, 16(DX)(AX*1)
	ADDQ       $32, AX
	CMPQ       AX, CX
	JLT        bnnorm8
	VZEROUPPER
	RET

// func scaleShiftAVX(y, x *float32, n int, scale, shift float64)
//
// y[j] = float32(scale*x[j] + shift).
TEXT ·scaleShiftAVX(SB), NOSPLIT, $0-40
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD scale+24(FP), Y14
	VBROADCASTSD shift+32(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX

scale8:
	VCVTPS2PD  (SI)(AX*1), Y0
	VCVTPS2PD  16(SI)(AX*1), Y1
	VMULPD     Y0, Y14, Y0
	VMULPD     Y1, Y14, Y1
	VADDPD     Y15, Y0, Y0
	VADDPD     Y15, Y1, Y1
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y1, X1
	VMOVUPS    X0, (DI)(AX*1)
	VMOVUPS    X1, 16(DI)(AX*1)
	ADDQ       $32, AX
	CMPQ       AX, CX
	JLT        scale8
	VZEROUPPER
	RET

// func bnGradAVX(dx, dy, xhat *float32, n int, a, meanDy, meanDyXHat float64)
//
// dx[j] = float32(a * ((dy[j] - meanDy) - xhat[j]*meanDyXHat)).
TEXT ·bnGradAVX(SB), NOSPLIT, $0-56
	MOVQ         dx+0(FP), DI
	MOVQ         dy+8(FP), SI
	MOVQ         xhat+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD a+32(FP), Y13
	VBROADCASTSD meanDy+40(FP), Y14
	VBROADCASTSD meanDyXHat+48(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX

bngrad8:
	VCVTPS2PD  (SI)(AX*1), Y0
	VCVTPS2PD  16(SI)(AX*1), Y1
	VCVTPS2PD  (DX)(AX*1), Y2
	VCVTPS2PD  16(DX)(AX*1), Y3
	VSUBPD     Y14, Y0, Y0
	VSUBPD     Y14, Y1, Y1
	VMULPD     Y15, Y2, Y2
	VMULPD     Y15, Y3, Y3
	VSUBPD     Y2, Y0, Y0
	VSUBPD     Y3, Y1, Y1
	VMULPD     Y0, Y13, Y0
	VMULPD     Y1, Y13, Y1
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y1, X1
	VMOVUPS    X0, (DI)(AX*1)
	VMOVUPS    X1, 16(DI)(AX*1)
	ADDQ       $32, AX
	CMPQ       AX, CX
	JLT        bngrad8
	VZEROUPPER
	RET

// func reluAVX(y, x *float32, n int)
//
// y[j] = |x[j]| where !(x[j] <= 0) — positive or NaN — and +0 elsewhere: the
// lane mask of VCMPPS's NLE_UQ predicate against zero, ANDed with x with its
// sign bit cleared. The sign only matters for a NaN, which the compiler's
// max(x, 0) returns with its sign cleared.
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ     y+0(FP), DI
	MOVQ     x+8(FP), SI
	MOVQ     n+16(FP), CX
	VXORPS   Y15, Y15, Y15
	VPCMPEQD Y14, Y14, Y14
	VPSRLD   $1, Y14, Y14
	SHLQ     $2, CX
	XORQ     AX, AX

relu8:
	VMOVUPS (SI)(AX*1), Y0
	VCMPPS  $0x16, Y15, Y0, Y1
	VANDPS  Y14, Y0, Y0
	VANDPS  Y0, Y1, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     relu8
	VZEROUPPER
	RET

// func reluGradAVX(dx, dy, y *float32, n int)
//
// dx[j] = dy[j] where the bits of y[j] are not all zero, and +0 where they
// are: VPCMPEQD against zero, then AND-NOT.
TEXT ·reluGradAVX(SB), NOSPLIT, $0-32
	MOVQ   dx+0(FP), DI
	MOVQ   dy+8(FP), SI
	MOVQ   y+16(FP), DX
	MOVQ   n+24(FP), CX
	VPXOR  Y15, Y15, Y15
	SHLQ   $2, CX
	XORQ   AX, AX

relugrad8:
	VMOVUPS  (DX)(AX*1), Y1
	VPCMPEQD Y15, Y1, Y1
	VANDNPS  (SI)(AX*1), Y1, Y0
	VMOVUPS  Y0, (DI)(AX*1)
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      relugrad8
	VZEROUPPER
	RET

// func addAVX(dst, a, b *float32, n int)
//
// dst[j] = a[j] + b[j].
TEXT ·addAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

add8:
	VMOVUPS (SI)(AX*1), Y0
	VADDPS  (DX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     add8
	VZEROUPPER
	RET

// func axpyAVX(dst, x *float32, n int, a float32)
//
// dst[j] = dst[j] + a*x[j], the product rounded before the add: AxpySlice's
// arithmetic, the aggregation fold's, which must stay unfused.
// float32le_amd64.s's axpyLEAVX runs this body on a little-endian run.
TEXT ·axpyAVX(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX

axpy8:
	VMOVUPS (DI)(AX*1), Y0
	VMULPS  (SI)(AX*1), Y15, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpy8
	VZEROUPPER
	RET

// func axpyWriteAVX(dst, x *float32, n int, a float32)
//
// dst[j] = 0 + a*x[j], the product rounded before the add: axpyAVX onto a
// cleared dst, bit for bit (the adds take their operands in the same order),
// without reading dst. float32le_amd64.s's axpyWriteLEAVX runs this body on
// a little-endian run.
TEXT ·axpyWriteAVX(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y15
	VXORPS       Y14, Y14, Y14
	SHLQ         $2, CX
	XORQ         AX, AX

axpyWrite8:
	VMULPS  (SI)(AX*1), Y15, Y1
	VADDPS  Y1, Y14, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpyWrite8
	VZEROUPPER
	RET

// func scaleAVX(dst *float32, n int, s float32)
//
// dst[j] = dst[j] * s.
TEXT ·scaleAVX(SB), NOSPLIT, $0-20
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS s+16(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX

scale8:
	VMOVUPS (DI)(AX*1), Y0
	VMULPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     scale8
	VZEROUPPER
	RET

// func sgdAVX(w, grad *float32, n int, lr, decay float32)
//
// w[j] = w[j] - lr*(g[j] + decay*w[j]).
TEXT ·sgdAVX(SB), NOSPLIT, $0-32
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS lr+24(FP), Y14
	VBROADCASTSS decay+28(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX

sgd8:
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS (SI)(AX*1), Y1
	VMULPS  Y0, Y15, Y2
	VADDPS  Y2, Y1, Y1
	VMULPS  Y1, Y14, Y1
	VSUBPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     sgd8
	VZEROUPPER
	RET

// func sgdMomentumAVX(w, v, grad *float32, n int, lr, decay, momentum float32)
//
// v[j] = momentum*v[j] + (g[j] + decay*w[j]); w[j] = w[j] - lr*v[j].
TEXT ·sgdMomentumAVX(SB), NOSPLIT, $0-44
	MOVQ         w+0(FP), DI
	MOVQ         v+8(FP), DX
	MOVQ         grad+16(FP), SI
	MOVQ         n+24(FP), CX
	VBROADCASTSS lr+32(FP), Y13
	VBROADCASTSS decay+36(FP), Y14
	VBROADCASTSS momentum+40(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX

sgdm8:
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS (SI)(AX*1), Y1
	VMOVUPS (DX)(AX*1), Y3
	VMULPS  Y0, Y14, Y2
	VADDPS  Y2, Y1, Y1
	VMULPS  Y3, Y15, Y3
	VADDPS  Y1, Y3, Y3
	VMOVUPS Y3, (DX)(AX*1)
	VMULPS  Y3, Y13, Y3
	VSUBPS  Y3, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     sgdm8
	VZEROUPPER
	RET

// func sgdMaskedAVX(w, grad *float32, mask *bool, n int, lr, decay float32)
//
// sgdAVX's step where mask[j] is true; w[j] is stored back unchanged where
// it is false. The eight mask bytes are widened to lanes and compared with
// zero, and VBLENDVPS keeps the old w in the lanes whose compare is set.
TEXT ·sgdMaskedAVX(SB), NOSPLIT, $0-40
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         mask+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS lr+32(FP), Y14
	VBROADCASTSS decay+36(FP), Y15
	VPXOR        Y13, Y13, Y13
	XORQ         AX, AX

sgdmask8:
	VMOVUPS   (DI)(AX*4), Y0
	VMOVUPS   (SI)(AX*4), Y1
	VPMOVZXBD (DX)(AX*1), Y4
	VPCMPEQD  Y13, Y4, Y4
	VMULPS    Y0, Y15, Y2
	VADDPS    Y2, Y1, Y1
	VMULPS    Y1, Y14, Y1
	VSUBPS    Y1, Y0, Y1
	VBLENDVPS Y4, Y0, Y1, Y1
	VMOVUPS   Y1, (DI)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLT       sgdmask8
	VZEROUPPER
	RET

// The BatchNorm reductions below run eight rows (channels) at once, one
// float64 lane a channel: rows 0–3 in one register, rows 4–7 in another. A
// step loads four floats of each of four rows, transposes the 4×4 block so
// that each register holds one element position of the four rows, widens it
// to float64 and adds it to the rows' lanes, positions in ascending order. So
// every lane is its row's serial sum in element order, the chain the scalar
// loop runs, with eight or more chains in flight instead of one. The lanes
// are loaded from memory at entry and stored back at exit, so a chain
// carries across calls. n counts floats of each row, a positive multiple of
// 4, and the rows are run floats apart: row k of a block of four based at B
// is (B), (B)(R13*1), (B)(R13*2) or (B)(R12*1), with R13 = run·4 bytes and
// R12 = 3·R13.

// STRIDES sets R13 to run·4 bytes (from run in R13) and R12 to three times it.
#define STRIDES               \
	SHLQ $2, R13;         \
	LEAQ (R13)(R13*2), R12

// COLS4 widens the four floats at each of the rows based at b to float64 as
// it loads them, and transposes the 4×4 block so that element position k of
// the four rows is left in yk, using Y4..Y7 as scratch.
#define COLS4(b, y0, y1, y2, y3) \
	VCVTPS2PD  (b), y0;            \
	VCVTPS2PD  (b)(R13*1), y1;     \
	VCVTPS2PD  (b)(R13*2), y2;     \
	VCVTPS2PD  (b)(R12*1), y3;     \
	VUNPCKLPD  y1, y0, Y4;         \
	VUNPCKHPD  y1, y0, Y5;         \
	VUNPCKLPD  y3, y2, Y6;         \
	VUNPCKHPD  y3, y2, Y7;         \
	VPERM2F128 $0x20, Y6, Y4, y0;  \
	VPERM2F128 $0x20, Y7, Y5, y1;  \
	VPERM2F128 $0x31, Y6, Y4, y2;  \
	VPERM2F128 $0x31, Y7, Y5, y3

// ADD4 adds y0..y3 to acc in that order.
#define ADD4(acc, y0, y1, y2, y3) \
	VADDPD y0, acc, acc; \
	VADDPD y1, acc, acc; \
	VADDPD y2, acc, acc; \
	VADDPD y3, acc, acc

// SQDEV4 replaces y0..y3 by their squared deviations from mean: d = y − mean,
// then d·d.
#define SQDEV4(mean, y0, y1, y2, y3) \
	VSUBPD mean, y0, y0; \
	VSUBPD mean, y1, y1; \
	VSUBPD mean, y2, y2; \
	VSUBPD mean, y3, y3; \
	VMULPD y0, y0, y0;   \
	VMULPD y1, y1, y1;   \
	VMULPD y2, y2, y2;   \
	VMULPD y3, y3, y3

// func rowSums8AVX(acc *[8]float64, x *float32, run, n int)
//
// acc[r] += x[r*run+j] for j < n, in order, for each of the eight rows.
TEXT ·rowSums8AVX(SB), NOSPLIT, $0-32
	MOVQ    acc+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    run+16(FP), R13
	MOVQ    n+24(FP), CX
	STRIDES
	LEAQ    (SI)(R13*4), DX
	VMOVUPD (DI), Y14
	VMOVUPD 32(DI), Y15

sums4:
	COLS4(SI, Y0, Y1, Y2, Y3)
	COLS4(DX, Y8, Y9, Y10, Y11)
	ADD4(Y14, Y0, Y1, Y2, Y3)
	ADD4(Y15, Y8, Y9, Y10, Y11)
	ADDQ    $16, SI
	ADDQ    $16, DX
	SUBQ    $4, CX
	JNZ     sums4
	VMOVUPD Y14, (DI)
	VMOVUPD Y15, 32(DI)
	VZEROUPPER
	RET

// func rowSqDev8AVX(acc *[8]float64, x *float32, mean *[8]float64, run, n int)
//
// acc[r] += (x[r*run+j] − mean[r])² for j < n, in order, for each of the
// eight rows, the square rounded before its add.
TEXT ·rowSqDev8AVX(SB), NOSPLIT, $0-40
	MOVQ    acc+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    mean+16(FP), AX
	MOVQ    run+24(FP), R13
	MOVQ    n+32(FP), CX
	STRIDES
	LEAQ    (SI)(R13*4), DX
	VMOVUPD (AX), Y12
	VMOVUPD 32(AX), Y13
	VMOVUPD (DI), Y14
	VMOVUPD 32(DI), Y15

sqdev4:
	COLS4(SI, Y0, Y1, Y2, Y3)
	COLS4(DX, Y8, Y9, Y10, Y11)
	SQDEV4(Y12, Y0, Y1, Y2, Y3)
	SQDEV4(Y13, Y8, Y9, Y10, Y11)
	ADD4(Y14, Y0, Y1, Y2, Y3)
	ADD4(Y15, Y8, Y9, Y10, Y11)
	ADDQ    $16, SI
	ADDQ    $16, DX
	SUBQ    $4, CX
	JNZ     sqdev4
	VMOVUPD Y14, (DI)
	VMOVUPD Y15, 32(DI)
	VZEROUPPER
	RET

// GRADSUMS4 adds one step of the four rows based at p in dy and q in xhat:
// the dy positions to sdy, and their products with the xhat positions to
// sdx. Y0..Y11 are clobbered.
#define GRADSUMS4(p, q, sdy, sdx) \
	COLS4(p, Y0, Y1, Y2, Y3);     \
	COLS4(q, Y8, Y9, Y10, Y11); \
	VMULPD Y8, Y0, Y8;                            \
	VMULPD Y9, Y1, Y9;                            \
	VMULPD Y10, Y2, Y10;                          \
	VMULPD Y11, Y3, Y11;                          \
	ADD4(sdy, Y0, Y1, Y2, Y3);                    \
	ADD4(sdx, Y8, Y9, Y10, Y11)

// func gradSums8AVX(sumDy, sumDyXHat *[8]float64, dy, xhat *float32, run, n int)
//
// sumDy[r] += dy[r*run+j] and sumDyXHat[r] += dy[r*run+j]·xhat[r*run+j] for
// j < n, in order, for each of the eight rows. The product of two widened
// float32s is exact in float64.
TEXT ·gradSums8AVX(SB), NOSPLIT, $0-48
	MOVQ    sumDy+0(FP), DI
	MOVQ    sumDyXHat+8(FP), AX
	MOVQ    dy+16(FP), SI
	MOVQ    xhat+24(FP), BX
	MOVQ    run+32(FP), R13
	MOVQ    n+40(FP), CX
	STRIDES
	LEAQ    (SI)(R13*4), DX
	LEAQ    (BX)(R13*4), R8
	VMOVUPD (DI), Y12
	VMOVUPD (AX), Y13
	VMOVUPD 32(DI), Y14
	VMOVUPD 32(AX), Y15

grad4:
	GRADSUMS4(SI, BX, Y12, Y13)
	GRADSUMS4(DX, R8, Y14, Y15)
	ADDQ    $16, SI
	ADDQ    $16, DX
	ADDQ    $16, BX
	ADDQ    $16, R8
	SUBQ    $4, CX
	JNZ     grad4
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, (AX)
	VMOVUPD Y14, 32(DI)
	VMOVUPD Y15, 32(AX)
	VZEROUPPER
	RET
