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

// HROWFMA and HKSTEP are ROWFMA and KSTEP at half width: one B vector, in Y8.
#define HROWFMA(aop, bc, acc) \
	VBROADCASTSS aop, bc;     \
	VFMADD231PS  Y8, bc, acc

#define HKSTEP \
	HROWFMA((AX), Y10, Y0);        \
	HROWFMA((AX)(R10*1), Y11, Y2); \
	HROWFMA((AX)(R11*1), Y12, Y4); \
	HROWFMA((AX)(R12*1), Y13, Y6); \
	ADDQ R9, AX;                   \
	ADDQ R8, BX

// func gemmOuterFMA(c, a, b *float32, ld, ars, aps, k, mr, nc int)
//
// The outer-product micro-kernel over one strip of mr <= 4 rows and nc
// columns: a 4×16 tile of C sits in Y0..Y7 while p walks k, and each step
// loads one 16-float row of B and broadcasts the four op(A) values of that
// p. Tile rows past mr alias row mr-1 — they repeat its arithmetic and store
// the same values to the same place — and a last tile narrower than 16
// columns runs the same sequence under masked loads and stores; one of at
// most 8 columns runs it at half width, a single register per row (Y0, Y2,
// Y4, Y6), masked unless it is exactly 8 wide. So every element of C is one
// multiply-add chain whichever tile it falls in, and no byte outside the
// mr × nc block (or op(A)'s mr × k, B's k × nc) is touched.
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
	CMPQ  CX, $8
	JL    halfmask
	JE    half

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

	JMP  done

half:
	VMOVUPS (DI), Y0
	MOVQ    c1-8(SP), AX
	VMOVUPS (DI)(AX*1), Y2
	MOVQ    c2-16(SP), AX
	VMOVUPS (DI)(AX*1), Y4
	MOVQ    c3-24(SP), AX
	VMOVUPS (DI)(AX*1), Y6

	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R13, R14

khalf:
	VMOVUPS (BX), Y8
	HKSTEP
	DECQ R14
	JNZ  khalf

	VMOVUPS Y0, (DI)
	MOVQ    c1-8(SP), AX
	VMOVUPS Y2, (DI)(AX*1)
	MOVQ    c2-16(SP), AX
	VMOVUPS Y4, (DI)(AX*1)
	MOVQ    c3-24(SP), AX
	VMOVUPS Y6, (DI)(AX*1)
	JMP     done

halfmask:
	MOVQ    $16, AX
	SUBQ    CX, AX
	LEAQ    tailmask<>(SB), BX
	VMOVUPS (BX)(AX*4), Y14

	VMASKMOVPS (DI), Y14, Y0
	MOVQ       c1-8(SP), AX
	VMASKMOVPS (DI)(AX*1), Y14, Y2
	MOVQ       c2-16(SP), AX
	VMASKMOVPS (DI)(AX*1), Y14, Y4
	MOVQ       c3-24(SP), AX
	VMASKMOVPS (DI)(AX*1), Y14, Y6

	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R13, R14

khalfmask:
	VMASKMOVPS (BX), Y14, Y8
	HKSTEP
	DECQ R14
	JNZ  khalfmask

	VMASKMOVPS Y0, Y14, (DI)
	MOVQ       c1-8(SP), AX
	VMASKMOVPS Y2, Y14, (DI)(AX*1)
	MOVQ       c2-16(SP), AX
	VMASKMOVPS Y4, Y14, (DI)(AX*1)
	MOVQ       c3-24(SP), AX
	VMASKMOVPS Y6, Y14, (DI)(AX*1)

done:
	VZEROUPPER
	RET

// H8STEP is one k step of gemmOuterHalfFMA after the B vector is in Y8: the
// eight op(A) values of that p, rows r·ars apart, each broadcast and
// multiply-added into its row's accumulator.
#define H8STEP \
	VBROADCASTSS (AX), Y9;          \
	VFMADD231PS  Y8, Y9, Y0;        \
	VBROADCASTSS (AX)(R10*1), Y10;  \
	VFMADD231PS  Y8, Y10, Y1;       \
	VBROADCASTSS (AX)(R10*2), Y11;  \
	VFMADD231PS  Y8, Y11, Y2;       \
	VBROADCASTSS (AX)(R11*1), Y12;  \
	VFMADD231PS  Y8, Y12, Y3;       \
	VBROADCASTSS (AX)(R10*4), Y13;  \
	VFMADD231PS  Y8, Y13, Y4;       \
	VBROADCASTSS (AX)(R12*1), Y9;   \
	VFMADD231PS  Y8, Y9, Y5;        \
	VBROADCASTSS (AX)(R11*2), Y10;  \
	VFMADD231PS  Y8, Y10, Y6;       \
	VBROADCASTSS (AX)(R13*1), Y11;  \
	VFMADD231PS  Y8, Y11, Y7;       \
	ADDQ         R9, AX;            \
	ADDQ         R8, BX

// LOADC8 and STOREC8 move the eight rows of the C block, under the mask in
// Y14, into and out of Y0..Y7: row r is r·ld bytes past DI, with R8 = ld,
// DX = 3·ld, SI = 5·ld and CX = DI + 5·ld.
#define LOADC8 \
	VMASKMOVPS (DI), Y14, Y0;       \
	VMASKMOVPS (DI)(R8*1), Y14, Y1; \
	VMASKMOVPS (DI)(R8*2), Y14, Y2; \
	VMASKMOVPS (DI)(DX*1), Y14, Y3; \
	VMASKMOVPS (DI)(R8*4), Y14, Y4; \
	VMASKMOVPS (DI)(SI*1), Y14, Y5; \
	VMASKMOVPS (DI)(DX*2), Y14, Y6; \
	VMASKMOVPS (CX)(R8*2), Y14, Y7

#define STOREC8 \
	VMASKMOVPS Y0, Y14, (DI);       \
	VMASKMOVPS Y1, Y14, (DI)(R8*1); \
	VMASKMOVPS Y2, Y14, (DI)(R8*2); \
	VMASKMOVPS Y3, Y14, (DI)(DX*1); \
	VMASKMOVPS Y4, Y14, (DI)(R8*4); \
	VMASKMOVPS Y5, Y14, (DI)(SI*1); \
	VMASKMOVPS Y6, Y14, (DI)(DX*2); \
	VMASKMOVPS Y7, Y14, (CX)(R8*2)

// func gemmOuterHalfFMA(c, a, b *float32, ld, ars, aps, k, nc int)
//
// gemmOuterFMA's half-width tile for a block of exactly eight rows and
// nc <= 8 columns: one register per row, so eight independent chains hide the
// multiply-add latency that four would expose. B is loaded whole when nc is 8
// and under a mask otherwise; C always goes through the mask, once per call.
TEXT ·gemmOuterHalfFMA(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ ld+24(FP), R8
	MOVQ ars+32(FP), R10
	MOVQ aps+40(FP), R9
	MOVQ k+48(FP), R14
	MOVQ nc+56(FP), CX
	SHLQ $2, R8
	SHLQ $2, R10
	SHLQ $2, R9
	LEAQ (R10)(R10*2), R11 // 3·ars
	LEAQ (R10)(R10*4), R12 // 5·ars
	LEAQ (R11)(R10*4), R13 // 7·ars

	MOVQ    $16, DX
	SUBQ    CX, DX
	LEAQ    tailmask<>(SB), SI
	VMOVUPS (SI)(DX*4), Y14

	// The flags of this compare survive to the JL: LEAQ and VMASKMOVPS
	// leave them alone.
	CMPQ CX, $8
	LEAQ (R8)(R8*2), DX // 3·ld
	LEAQ (R8)(R8*4), SI // 5·ld
	LEAQ (DI)(SI*1), CX
	LOADC8
	JL   h8mask

h8loop:
	VMOVUPS (BX), Y8
	H8STEP
	DECQ    R14
	JNZ     h8loop
	JMP     h8store

h8mask:
	VMASKMOVPS (BX), Y14, Y8
	H8STEP
	DECQ       R14
	JNZ        h8mask

h8store:
	STOREC8
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

// T4X4 transposes, within each 128-bit lane, the 4×4 block whose rows are
// r0..r3 into its columns, in place, using t0..t3 as scratch.
#define T4X4(r0, r1, r2, r3, t0, t1, t2, t3) \
	VUNPCKLPS r1, r0, t0;        \
	VUNPCKHPS r1, r0, t1;        \
	VUNPCKLPS r3, r2, t2;        \
	VUNPCKHPS r3, r2, t3;        \
	VSHUFPS   $0x44, t2, t0, r0; \
	VSHUFPS   $0xEE, t2, t0, r1; \
	VSHUFPS   $0x44, t3, t1, r2; \
	VSHUFPS   $0xEE, t3, t1, r3

// ADDROW adds the vector y to the eight floats at mem: mem = mem + y.
#define ADDROW(mem, y) \
	VMOVUPS mem, Y8;    \
	VADDPS  y, Y8, Y8;  \
	VMOVUPS Y8, mem

// func addT8(dst *float32, ld int, src *float32, lds, nblk int)
//
// AddTransposed's strip of eight rows of src, lds floats apart: for each of
// nblk blocks of eight columns, dst[j*ld+i] += src[i*lds+j] for i, j < 8,
// with src moving eight columns and dst eight rows a block. A block is loaded
// as two 4×8 halves, rows i and i+4 sharing a register, so that one 4×4
// transpose per lane leaves column j of the block — row j of dst — whole in a
// register.
TEXT ·addT8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ ld+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R9
	MOVQ nblk+32(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (R8)(R8*2), R10 // 3·ld
	LEAQ (R9)(R9*2), R11 // 3·lds

t8loop:
	LEAQ        (SI)(R9*4), AX
	VMOVUPS     (SI), X0
	VINSERTF128 $1, (AX), Y0, Y0
	VMOVUPS     (SI)(R9*1), X1
	VINSERTF128 $1, (AX)(R9*1), Y1, Y1
	VMOVUPS     (SI)(R9*2), X2
	VINSERTF128 $1, (AX)(R9*2), Y2, Y2
	VMOVUPS     (SI)(R11*1), X3
	VINSERTF128 $1, (AX)(R11*1), Y3, Y3
	VMOVUPS     16(SI), X4
	VINSERTF128 $1, 16(AX), Y4, Y4
	VMOVUPS     16(SI)(R9*1), X5
	VINSERTF128 $1, 16(AX)(R9*1), Y5, Y5
	VMOVUPS     16(SI)(R9*2), X6
	VINSERTF128 $1, 16(AX)(R9*2), Y6, Y6
	VMOVUPS     16(SI)(R11*1), X7
	VINSERTF128 $1, 16(AX)(R11*1), Y7, Y7

	T4X4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	T4X4(Y4, Y5, Y6, Y7, Y12, Y13, Y14, Y15)

	LEAQ (DI)(R8*4), BX
	ADDROW((DI), Y0)
	ADDROW((DI)(R8*1), Y1)
	ADDROW((DI)(R8*2), Y2)
	ADDROW((DI)(R10*1), Y3)
	ADDROW((BX), Y4)
	ADDROW((BX)(R8*1), Y5)
	ADDROW((BX)(R8*2), Y6)
	ADDROW((BX)(R10*1), Y7)

	ADDQ $32, SI
	LEAQ (BX)(R8*4), DI
	DECQ CX
	JNZ  t8loop

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
