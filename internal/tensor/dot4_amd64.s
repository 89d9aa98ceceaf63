//go:build amd64

#include "textflag.h"

// func dot4fma(a, b0, b1, b2, b3 *float32, n int, out *[4]float32)
//
// Four simultaneous dot products with AVX2 FMA: Y0..Y3 accumulate
// a[p:p+8] * bj[p:p+8] per 8-float block. n must be a positive multiple
// of 8 (the Go caller handles the scalar tail).
TEXT ·dot4fma(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), DX
	MOVQ out+48(FP), DI

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	// Two 8-float blocks per iteration when possible, with independent
	// accumulator pairs (Y0..Y3 and Y10..Y13) to hide FMA latency.
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13

	CMPQ DX, $16
	JL   tail8

loop16:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VFMADD231PS (R8), Y4, Y0
	VFMADD231PS (R9), Y4, Y1
	VFMADD231PS (R10), Y4, Y2
	VFMADD231PS (R11), Y4, Y3
	VFMADD231PS 32(R8), Y5, Y10
	VFMADD231PS 32(R9), Y5, Y11
	VFMADD231PS 32(R10), Y5, Y12
	VFMADD231PS 32(R11), Y5, Y13
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $16, DX
	CMPQ DX, $16
	JGE  loop16

tail8:
	CMPQ DX, $8
	JL   reduce

	VMOVUPS (SI), Y4
	VFMADD231PS (R8), Y4, Y0
	VFMADD231PS (R9), Y4, Y1
	VFMADD231PS (R10), Y4, Y2
	VFMADD231PS (R11), Y4, Y3
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $8, DX
	JMP  tail8

reduce:
	// Fold the second accumulator set into the first.
	VADDPS Y10, Y0, Y0
	VADDPS Y11, Y1, Y1
	VADDPS Y12, Y2, Y2
	VADDPS Y13, Y3, Y3

	// Horizontal sum of each YMM into a scalar lane.
	VEXTRACTF128 $1, Y0, X4
	VADDPS       X4, X0, X0
	VEXTRACTF128 $1, Y1, X5
	VADDPS       X5, X1, X1
	VEXTRACTF128 $1, Y2, X6
	VADDPS       X6, X2, X2
	VEXTRACTF128 $1, Y3, X7
	VADDPS       X7, X3, X3

	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X1, X1, X1
	VHADDPS X1, X1, X1
	VHADDPS X2, X2, X2
	VHADDPS X2, X2, X2
	VHADDPS X3, X3, X3
	VHADDPS X3, X3, X3

	VMOVSS X0, (DI)
	VMOVSS X1, 4(DI)
	VMOVSS X2, 8(DI)
	VMOVSS X3, 12(DI)
	VZEROUPPER
	RET

// tailmask holds sixteen all-ones lanes followed by sixteen zero lanes; the
// sixteen lanes starting at lane 16-r mask the first r columns of a tile.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0xffffffffffffffff
DATA tailmask<>+40(SB)/8, $0xffffffffffffffff
DATA tailmask<>+48(SB)/8, $0xffffffffffffffff
DATA tailmask<>+56(SB)/8, $0xffffffffffffffff
GLOBL tailmask<>(SB), RODATA|NOPTR, $128

// ROWOFF sets off = min(r, AX) * stride: the byte offset of tile row r when
// AX holds the index of the strip's last real row.
#define ROWOFF(r, stride, off) \
	MOVQ    $r, off;     \
	CMPQ    AX, off;     \
	CMOVQLT AX, off;     \
	IMULQ   stride, off

// ROWFMA is one tile row's share of a k step: broadcast op(A)[row][p] and
// multiply-add it against the two B vectors in Y8, Y9.
#define ROWFMA(aop, bc, acc0, acc1) \
	VBROADCASTSS aop, bc;        \
	VFMADD231PS  Y8, bc, acc0;   \
	VFMADD231PS  Y9, bc, acc1

#define KSTEP \
	ROWFMA((AX), Y10, Y0, Y1);         \
	ROWFMA((AX)(R10*1), Y11, Y2, Y3);  \
	ROWFMA((AX)(R11*1), Y12, Y4, Y5);  \
	ROWFMA((AX)(R12*1), Y13, Y6, Y7);  \
	ADDQ R9, AX;                       \
	ADDQ R8, BX

// func gemmOuterFMA(c, a, b *float32, ld, ars, aps, k, mr, nc int)
//
// The outer-product micro-kernel over one strip of mr <= 4 rows and nc
// columns: a 4×16 tile of C sits in Y0..Y7 while p walks k, and each step
// loads one 16-float row of B and broadcasts the four op(A) values of that
// p. Tile rows past mr alias row mr-1 — they repeat its arithmetic and store
// the same values to the same place — and a last tile narrower than 16
// columns runs the same sequence under masked loads and stores, so every
// element of C is one multiply-add chain whichever tile it falls in, and no
// byte outside the mr × nc block (or op(A)'s mr × k, B's k × nc) is touched.
TEXT ·gemmOuterFMA(SB), NOSPLIT, $24-72
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ ld+24(FP), R8
	MOVQ ars+32(FP), R13
	MOVQ aps+40(FP), R9
	MOVQ mr+56(FP), AX
	MOVQ nc+64(FP), CX
	SHLQ $2, R8
	SHLQ $2, R13
	SHLQ $2, R9
	DECQ AX

	ROWOFF(1, R13, R10)
	ROWOFF(2, R13, R11)
	ROWOFF(3, R13, R12)
	ROWOFF(1, R8, BX)
	MOVQ BX, c1-8(SP)
	ROWOFF(2, R8, BX)
	MOVQ BX, c2-16(SP)
	ROWOFF(3, R8, BX)
	MOVQ BX, c3-24(SP)
	MOVQ k+48(FP), R13

tile:
	CMPQ CX, $16
	JL   tail

	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	MOVQ    c1-8(SP), AX
	VMOVUPS (DI)(AX*1), Y2
	VMOVUPS 32(DI)(AX*1), Y3
	MOVQ    c2-16(SP), AX
	VMOVUPS (DI)(AX*1), Y4
	VMOVUPS 32(DI)(AX*1), Y5
	MOVQ    c3-24(SP), AX
	VMOVUPS (DI)(AX*1), Y6
	VMOVUPS 32(DI)(AX*1), Y7

	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R13, R14

kloop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	KSTEP
	DECQ R14
	JNZ  kloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	MOVQ    c1-8(SP), AX
	VMOVUPS Y2, (DI)(AX*1)
	VMOVUPS Y3, 32(DI)(AX*1)
	MOVQ    c2-16(SP), AX
	VMOVUPS Y4, (DI)(AX*1)
	VMOVUPS Y5, 32(DI)(AX*1)
	MOVQ    c3-24(SP), AX
	VMOVUPS Y6, (DI)(AX*1)
	VMOVUPS Y7, 32(DI)(AX*1)

	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, CX
	JMP  tile

tail:
	TESTQ CX, CX
	JZ    done

	MOVQ    $16, AX
	SUBQ    CX, AX
	LEAQ    tailmask<>(SB), BX
	VMOVUPS (BX)(AX*4), Y14
	VMOVUPS 32(BX)(AX*4), Y15

	VMASKMOVPS (DI), Y14, Y0
	VMASKMOVPS 32(DI), Y15, Y1
	MOVQ       c1-8(SP), AX
	VMASKMOVPS (DI)(AX*1), Y14, Y2
	VMASKMOVPS 32(DI)(AX*1), Y15, Y3
	MOVQ       c2-16(SP), AX
	VMASKMOVPS (DI)(AX*1), Y14, Y4
	VMASKMOVPS 32(DI)(AX*1), Y15, Y5
	MOVQ       c3-24(SP), AX
	VMASKMOVPS (DI)(AX*1), Y14, Y6
	VMASKMOVPS 32(DI)(AX*1), Y15, Y7

	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R13, R14

ktail:
	VMASKMOVPS (BX), Y14, Y8
	VMASKMOVPS 32(BX), Y15, Y9
	KSTEP
	DECQ R14
	JNZ  ktail

	VMASKMOVPS Y0, Y14, (DI)
	VMASKMOVPS Y1, Y15, 32(DI)
	MOVQ       c1-8(SP), AX
	VMASKMOVPS Y2, Y14, (DI)(AX*1)
	VMASKMOVPS Y3, Y15, 32(DI)(AX*1)
	MOVQ       c2-16(SP), AX
	VMASKMOVPS Y4, Y14, (DI)(AX*1)
	VMASKMOVPS Y5, Y15, 32(DI)(AX*1)
	MOVQ       c3-24(SP), AX
	VMASKMOVPS Y6, Y14, (DI)(AX*1)
	VMASKMOVPS Y7, Y15, 32(DI)(AX*1)

done:
	VZEROUPPER
	RET

// func axpyFMA(c, b *float32, av float32, n int)
//
// The GEMM's row primitive, c[j] = fma(av, b[j], c[j]) for j < n: one k step
// of gemmOuterFMA's chain for one row, carried through memory instead of a
// register. The last n%8 columns go through a masked load and store.
TEXT ·axpyFMA(SB), NOSPLIT, $0-32
	MOVQ         c+0(FP), DI
	MOVQ         b+8(FP), SI
	VBROADCASTSS av+16(FP), Y8
	MOVQ         n+24(FP), CX

axpy32:
	CMPQ        CX, $32
	JL          axpy8
	VMOVUPS     (DI), Y0
	VMOVUPS     32(DI), Y1
	VMOVUPS     64(DI), Y2
	VMOVUPS     96(DI), Y3
	VFMADD231PS (SI), Y8, Y0
	VFMADD231PS 32(SI), Y8, Y1
	VFMADD231PS 64(SI), Y8, Y2
	VFMADD231PS 96(SI), Y8, Y3
	VMOVUPS     Y0, (DI)
	VMOVUPS     Y1, 32(DI)
	VMOVUPS     Y2, 64(DI)
	VMOVUPS     Y3, 96(DI)
	ADDQ        $128, DI
	ADDQ        $128, SI
	SUBQ        $32, CX
	JMP         axpy32

axpy8:
	CMPQ        CX, $8
	JL          axpytail
	VMOVUPS     (DI), Y0
	VFMADD231PS (SI), Y8, Y0
	VMOVUPS     Y0, (DI)
	ADDQ        $32, DI
	ADDQ        $32, SI
	SUBQ        $8, CX
	JMP         axpy8

axpytail:
	TESTQ       CX, CX
	JZ          axpydone
	MOVQ        $16, AX
	SUBQ        CX, AX
	LEAQ        tailmask<>(SB), BX
	VMOVUPS     (BX)(AX*4), Y14
	VMASKMOVPS  (DI), Y14, Y0
	VMASKMOVPS  (SI), Y14, Y1
	VFMADD231PS Y1, Y8, Y0
	VMASKMOVPS  Y0, Y14, (DI)

axpydone:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
