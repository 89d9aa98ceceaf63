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

// ZEROTILE and ZEROHALF start a tile's chains from +0 in registers: the
// write form's first k block, in place of loading C.
#define ZEROTILE \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7

#define ZEROHALF \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y6, Y6, Y6

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

// func gemmOuterFMA(c, a, b *float32, ld, ars, aps, k, mr, nc int, write bool)
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
// mr × nc block (or op(A)'s mr × k, B's k × nc) is touched. With write set
// the chains start from +0 in registers and C is only stored, never loaded.
TEXT ·gemmOuterFMA(SB), NOSPLIT, $24-73
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
	CMPB write+72(FP), $0
	JNE  tilezero

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
	JMP     tilerun

tilezero:
	ZEROTILE

tilerun:
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
	CMPB    write+72(FP), $0
	JNE     tailzero

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
	JMP        tailrun

tailzero:
	ZEROTILE

tailrun:
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
	CMPB    write+72(FP), $0
	JNE     halfzero
	VMOVUPS (DI), Y0
	MOVQ    c1-8(SP), AX
	VMOVUPS (DI)(AX*1), Y2
	MOVQ    c2-16(SP), AX
	VMOVUPS (DI)(AX*1), Y4
	MOVQ    c3-24(SP), AX
	VMOVUPS (DI)(AX*1), Y6
	JMP     halfrun

halfzero:
	ZEROHALF

halfrun:
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
	CMPB    write+72(FP), $0
	JNE     halfmaskzero

	VMASKMOVPS (DI), Y14, Y0
	MOVQ       c1-8(SP), AX
	VMASKMOVPS (DI)(AX*1), Y14, Y2
	MOVQ       c2-16(SP), AX
	VMASKMOVPS (DI)(AX*1), Y14, Y4
	MOVQ       c3-24(SP), AX
	VMASKMOVPS (DI)(AX*1), Y14, Y6
	JMP        halfmaskrun

halfmaskzero:
	ZEROHALF

halfmaskrun:
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

// func gemmOuterHalfFMA(c, a, b *float32, ld, ars, aps, k, nc int, write bool)
//
// gemmOuterFMA's half-width tile for a block of exactly eight rows and
// nc <= 8 columns: one register per row, so eight independent chains hide the
// multiply-add latency that four would expose. B is loaded whole when nc is 8
// and under a mask otherwise; C always goes through the mask, once per call,
// and with write set is only stored, the chains starting from +0.
TEXT ·gemmOuterHalfFMA(SB), NOSPLIT, $0-65
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

	LEAQ (R8)(R8*2), DX // 3·ld
	LEAQ (R8)(R8*4), SI // 5·ld
	LEAQ (DI)(SI*1), CX
	CMPB write+64(FP), $0
	JNE  h8zero
	LOADC8
	JMP  h8run

h8zero:
	ZEROTILE

h8run:
	CMPQ nc+56(FP), $8
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

// The AVX-512 tier of the outer-product form: gemmOuterFMA's and
// gemmOuterHalfFMA's arithmetic in ZMM registers, sixteen lanes a register.
// A lane's FMA rounds once whatever the register width, and p still walks k in
// order, so every element is the chain the AVX2 tiles compute, bit for bit.
// The last tile runs under zero-masking loads and masked stores on opmask
// registers, which suppress faults on the lanes they leave out. ZEROTILE
// starts a 512-bit tile's chains from +0 too: a VEX-encoded VXORPS zeroes its
// destination above bit 255.

// ZROWFMA and ZKSTEP are ROWFMA and KSTEP at 512 bits: the two B vectors of a
// 32-column row are in Z8, Z9.
#define ZROWFMA(aop, bc, acc0, acc1) \
	VBROADCASTSS aop, bc;        \
	VFMADD231PS  Z8, bc, acc0;   \
	VFMADD231PS  Z9, bc, acc1

#define ZKSTEP \
	ZROWFMA((AX), Z10, Z0, Z1);         \
	ZROWFMA((AX)(R10*1), Z11, Z2, Z3);  \
	ZROWFMA((AX)(R11*1), Z12, Z4, Z5);  \
	ZROWFMA((AX)(R12*1), Z13, Z6, Z7);  \
	ADDQ R9, AX;                        \
	ADDQ R8, BX

// func gemmOuter512(c, a, b *float32, ld, ars, aps, k, mr, nc int, write bool)
//
// gemmOuterFMA at 512 bits: a 4×32 tile of C sits in Z0..Z7, two registers a
// row, while p walks k, and each step loads one 32-float row of B and
// broadcasts the four op(A) values of that p. Tile rows past mr alias row
// mr-1, as in gemmOuterFMA. A last tile narrower than 32 columns runs the same
// sequence with its loads and stores under K1 (columns 0..15) and K2 (16..31);
// a zero-masked load fills the lanes past nc with +0, whose chains are never
// stored. With write set the chains start from +0 and C is only stored.
TEXT ·gemmOuter512(SB), NOSPLIT, $24-73
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

ztile:
	CMPQ CX, $32
	JL   ztail
	CMPB write+72(FP), $0
	JNE  ztilezero

	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	MOVQ    c1-8(SP), AX
	VMOVUPS (DI)(AX*1), Z2
	VMOVUPS 64(DI)(AX*1), Z3
	MOVQ    c2-16(SP), AX
	VMOVUPS (DI)(AX*1), Z4
	VMOVUPS 64(DI)(AX*1), Z5
	MOVQ    c3-24(SP), AX
	VMOVUPS (DI)(AX*1), Z6
	VMOVUPS 64(DI)(AX*1), Z7
	JMP     ztilerun

ztilezero:
	ZEROTILE

ztilerun:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R13, R14

zkloop:
	VMOVUPS (BX), Z8
	VMOVUPS 64(BX), Z9
	ZKSTEP
	DECQ R14
	JNZ  zkloop

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	MOVQ    c1-8(SP), AX
	VMOVUPS Z2, (DI)(AX*1)
	VMOVUPS Z3, 64(DI)(AX*1)
	MOVQ    c2-16(SP), AX
	VMOVUPS Z4, (DI)(AX*1)
	VMOVUPS Z5, 64(DI)(AX*1)
	MOVQ    c3-24(SP), AX
	VMOVUPS Z6, (DI)(AX*1)
	VMOVUPS Z7, 64(DI)(AX*1)

	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, CX
	JMP  ztile

ztail:
	TESTQ CX, CX
	JZ    zdone

	// K1:K2 = (1 << nc) - 1, nc < 32: the tail's columns.
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	SHRQ  $16, AX
	KMOVW AX, K2
	CMPB  write+72(FP), $0
	JNE   ztailzero

	VMOVUPS.Z (DI), K1, Z0
	VMOVUPS.Z 64(DI), K2, Z1
	MOVQ      c1-8(SP), AX
	VMOVUPS.Z (DI)(AX*1), K1, Z2
	VMOVUPS.Z 64(DI)(AX*1), K2, Z3
	MOVQ      c2-16(SP), AX
	VMOVUPS.Z (DI)(AX*1), K1, Z4
	VMOVUPS.Z 64(DI)(AX*1), K2, Z5
	MOVQ      c3-24(SP), AX
	VMOVUPS.Z (DI)(AX*1), K1, Z6
	VMOVUPS.Z 64(DI)(AX*1), K2, Z7
	JMP       ztailrun

ztailzero:
	ZEROTILE

ztailrun:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R13, R14

zktail:
	VMOVUPS.Z (BX), K1, Z8
	VMOVUPS.Z 64(BX), K2, Z9
	ZKSTEP
	DECQ      R14
	JNZ       zktail

	VMOVUPS Z0, K1, (DI)
	VMOVUPS Z1, K2, 64(DI)
	MOVQ    c1-8(SP), AX
	VMOVUPS Z2, K1, (DI)(AX*1)
	VMOVUPS Z3, K2, 64(DI)(AX*1)
	MOVQ    c2-16(SP), AX
	VMOVUPS Z4, K1, (DI)(AX*1)
	VMOVUPS Z5, K2, 64(DI)(AX*1)
	MOVQ    c3-24(SP), AX
	VMOVUPS Z6, K1, (DI)(AX*1)
	VMOVUPS Z7, K2, 64(DI)(AX*1)

zdone:
	VZEROUPPER
	RET

// Z8STEP is one k step of gemmOuter512H after the B vector is in Z8: each of
// the eight op(A) values of that p, rows r·ars apart, is broadcast from memory
// inside its row's multiply-add.
#define Z8STEP \
	VFMADD231PS.BCST (AX), Z8, Z0;         \
	VFMADD231PS.BCST (AX)(R10*1), Z8, Z1;  \
	VFMADD231PS.BCST (AX)(R10*2), Z8, Z2;  \
	VFMADD231PS.BCST (AX)(R11*1), Z8, Z3;  \
	VFMADD231PS.BCST (AX)(R10*4), Z8, Z4;  \
	VFMADD231PS.BCST (AX)(R12*1), Z8, Z5;  \
	VFMADD231PS.BCST (AX)(R11*2), Z8, Z6;  \
	VFMADD231PS.BCST (AX)(R13*1), Z8, Z7;  \
	ADDQ             R9, AX;               \
	ADDQ             R8, BX

// func gemmOuter512H(c, a, b *float32, ld, ars, aps, k, nc int, write bool)
//
// gemmOuterHalfFMA at 512 bits, for a block of exactly eight rows and
// 9 <= nc <= 16 columns: one register a row, Z0..Z7, eight independent
// chains. B and C go through the mask in K1 (the first nc lanes); with write
// set C is only stored, the chains starting from +0.
TEXT ·gemmOuter512H(SB), NOSPLIT, $0-65
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

	MOVL  $1, DX
	SHLQ  CX, DX
	DECQ  DX
	KMOVW DX, K1

	LEAQ (R8)(R8*2), DX // 3·ld
	LEAQ (R8)(R8*4), SI // 5·ld
	LEAQ (DI)(SI*1), CX
	CMPB write+64(FP), $0
	JNE  z8zero

	VMOVUPS.Z (DI), K1, Z0
	VMOVUPS.Z (DI)(R8*1), K1, Z1
	VMOVUPS.Z (DI)(R8*2), K1, Z2
	VMOVUPS.Z (DI)(DX*1), K1, Z3
	VMOVUPS.Z (DI)(R8*4), K1, Z4
	VMOVUPS.Z (DI)(SI*1), K1, Z5
	VMOVUPS.Z (DI)(DX*2), K1, Z6
	VMOVUPS.Z (CX)(R8*2), K1, Z7
	JMP       z8loop

z8zero:
	ZEROTILE

z8loop:
	VMOVUPS.Z (BX), K1, Z8
	Z8STEP
	DECQ      R14
	JNZ       z8loop

	VMOVUPS Z0, K1, (DI)
	VMOVUPS Z1, K1, (DI)(R8*1)
	VMOVUPS Z2, K1, (DI)(R8*2)
	VMOVUPS Z3, K1, (DI)(DX*1)
	VMOVUPS Z4, K1, (DI)(R8*4)
	VMOVUPS Z5, K1, (DI)(SI*1)
	VMOVUPS Z6, K1, (DI)(DX*2)
	VMOVUPS Z7, K1, (CX)(R8*2)
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

// The lowering's row kernels move a row of the column matrix through a
// periodic validity mask: lane j of a step is ANDed with mask[q], q running
// from the q argument and wrapping to 0 at period (in floats, at least 32).
// The mask holds period + 32 entries, so a step of up to 32 lanes starting at
// any q < period reads inside it, and after each step one subtraction brings
// q back under period. The last n%8 floats of dst and src go through a
// masked load and store; the mask is read whole.

// MASKWRAP advances the mask offset DX (bytes) by step bytes and wraps it
// below R8 (the period in bytes).
#define MASKWRAP(step) \
	ADDQ    $step, DX; \
	MOVQ    DX, AX;    \
	SUBQ    R8, AX;    \
	CMOVQGE AX, DX

// func maskCopyAVX(dst, src *float32, mask *uint32, n, q, period int)
//
// dst[j] = src[j] & mask[(q+j) mod period] for j < n, dst and src not
// overlapping: Im2Col's plane-shift row, every slot written once.
TEXT ·maskCopyAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ mask+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ q+32(FP), DX
	MOVQ period+40(FP), R8
	SHLQ $2, DX
	SHLQ $2, R8

mcopy32:
	CMPQ    CX, $32
	JL      mcopy8
	VMOVUPS (BX)(DX*1), Y0
	VMOVUPS 32(BX)(DX*1), Y1
	VMOVUPS 64(BX)(DX*1), Y2
	VMOVUPS 96(BX)(DX*1), Y3
	VANDPS  (SI), Y0, Y0
	VANDPS  32(SI), Y1, Y1
	VANDPS  64(SI), Y2, Y2
	VANDPS  96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, CX
	MASKWRAP(128)
	JMP     mcopy32

mcopy8:
	CMPQ    CX, $8
	JL      mcopytail
	VMOVUPS (BX)(DX*1), Y0
	VANDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	MASKWRAP(32)
	JMP     mcopy8

mcopytail:
	TESTQ      CX, CX
	JZ         mcopydone
	MOVQ       $16, AX
	SUBQ       CX, AX
	LEAQ       tailmask<>(SB), R9
	VMOVUPS    (R9)(AX*4), Y14
	VMASKMOVPS (SI), Y14, Y0
	VANDPS     (BX)(DX*1), Y0, Y0
	VMASKMOVPS Y0, Y14, (DI)

mcopydone:
	VZEROUPPER
	RET

// func maskAddAVX(dst, src *float32, mask *uint32, n, q, period int)
//
// dst[j] = dst[j] + (src[j] & mask[(q+j) mod period]) for j < n, dst and src
// not overlapping: Col2Im's plane-shift row, src only read. A masked lane
// adds +0.
TEXT ·maskAddAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ mask+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ q+32(FP), DX
	MOVQ period+40(FP), R8
	SHLQ $2, DX
	SHLQ $2, R8

madd32:
	CMPQ    CX, $32
	JL      madd8
	VMOVUPS (BX)(DX*1), Y0
	VMOVUPS 32(BX)(DX*1), Y1
	VMOVUPS 64(BX)(DX*1), Y2
	VMOVUPS 96(BX)(DX*1), Y3
	VANDPS  (SI), Y0, Y0
	VANDPS  32(SI), Y1, Y1
	VANDPS  64(SI), Y2, Y2
	VANDPS  96(SI), Y3, Y3
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	VADDPS  Y0, Y4, Y4
	VADDPS  Y1, Y5, Y5
	VADDPS  Y2, Y6, Y6
	VADDPS  Y3, Y7, Y7
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, CX
	MASKWRAP(128)
	JMP     madd32

madd8:
	CMPQ    CX, $8
	JL      maddtail
	VMOVUPS (BX)(DX*1), Y0
	VANDPS  (SI), Y0, Y0
	VMOVUPS (DI), Y4
	VADDPS  Y0, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	MASKWRAP(32)
	JMP     madd8

maddtail:
	TESTQ      CX, CX
	JZ         madddone
	MOVQ       $16, AX
	SUBQ       CX, AX
	LEAQ       tailmask<>(SB), R9
	VMOVUPS    (R9)(AX*4), Y14
	VMASKMOVPS (SI), Y14, Y0
	VANDPS     (BX)(DX*1), Y0, Y0
	VMASKMOVPS (DI), Y14, Y4
	VADDPS     Y0, Y4, Y4
	VMASKMOVPS Y4, Y14, (DI)

madddone:
	VZEROUPPER
	RET

// The gather-plan kernels move a channel through a table of 8-lane vectors
// of int32 offsets into src, each lane reading one float of src or +0 where
// its offset is -1. VGATHERDPS loads the lanes whose mask element has its
// sign bit set and leaves the others of its destination as they were, so the
// mask is the offsets with every bit flipped (Y15 is all ones) and the
// destination starts at +0: a -1 lane is never read and comes out +0. The
// gather clears its mask, which is made afresh for each vector. Y0 ends up
// holding the vector; Y1 and Y2 are scratch.

// func planLowerAVX(dst, src *float32, lower *int32, n int)
//
// dst[8v..8v+8) = vector v, for the ceil(n/8) vectors that cover dst; the
// last n%8 floats go through a masked store.
TEXT ·planLowerAVX(SB), NOSPLIT, $0-32
	MOVQ     dst+0(FP), DI
	MOVQ     src+8(FP), SI
	MOVQ     lower+16(FP), R10
	MOVQ     n+24(FP), CX
	VPCMPEQD Y15, Y15, Y15

plowervec:
	VMOVDQU    (R10), Y1
	VPXOR      Y15, Y1, Y2
	VXORPS     Y0, Y0, Y0
	VGATHERDPS Y2, (SI)(Y1*4), Y0
	ADDQ       $32, R10
	CMPQ       CX, $8
	JL         plowertail
	VMOVUPS    Y0, (DI)
	ADDQ       $32, DI
	SUBQ       $8, CX
	JNZ        plowervec
	JMP        plowerdone

plowertail:
	MOVQ       $16, AX
	SUBQ       CX, AX
	LEAQ       tailmask<>(SB), R9
	VMOVUPS    (R9)(AX*4), Y14
	VMASKMOVPS Y0, Y14, (DI)

plowerdone:
	VZEROUPPER
	RET

// func planRaiseAVX(dst, src *float32, ends, taps, raise *int32, live *bool, n int)
//
// Writes dst[0..n) eight pixels a block: block b is the sum, onto +0 in
// vector order, of its vectors e in [ends[b-1], ends[b]) whose tap taps[e]
// has live[taps[e]] set; a vector of a dead tap is not read. A -1 lane adds
// +0. The last n%8 sums go through a masked store. src is only read.
TEXT ·planRaiseAVX(SB), NOSPLIT, $0-56
	MOVQ     dst+0(FP), DI
	MOVQ     src+8(FP), SI
	MOVQ     ends+16(FP), R8
	MOVQ     taps+24(FP), R9
	MOVQ     raise+32(FP), R10
	MOVQ     live+40(FP), R11
	MOVQ     n+48(FP), CX
	XORQ     DX, DX
	VPCMPEQD Y15, Y15, Y15

praiseblock:
	VXORPS  Y3, Y3, Y3
	MOVLQSX (R8), R12
	ADDQ    $4, R8

praisevec:
	CMPQ       DX, R12
	JGE        praisestore
	MOVLQSX    (R9)(DX*4), AX
	CMPB       (R11)(AX*1), $0
	JEQ        praisenext
	VMOVDQU    (R10), Y1
	VPXOR      Y15, Y1, Y2
	VXORPS     Y0, Y0, Y0
	VGATHERDPS Y2, (SI)(Y1*4), Y0
	VADDPS     Y0, Y3, Y3

praisenext:
	INCQ DX
	ADDQ $32, R10
	JMP  praisevec

praisestore:
	CMPQ    CX, $8
	JL      praisetail
	VMOVUPS Y3, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     praiseblock
	JMP     praisedone

praisetail:
	MOVQ       $16, AX
	SUBQ       CX, AX
	LEAQ       tailmask<>(SB), R13
	VMOVUPS    (R13)(AX*4), Y14
	VMASKMOVPS Y3, Y14, (DI)

praisedone:
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

// func copyT8(dst *float32, ld int, rows *[8]*float32, nblk int)
//
// TransposeRows' block of eight rows: for each of nblk blocks of eight
// floats of the rows, dst[p*ld+j] = rows[j][p] for j, p < 8, with the rows
// moving eight floats and dst eight rows a block. A block is loaded as addT8
// loads its strip, rows j and j+4 sharing a register, so that one 4×4
// transpose per lane leaves float p of every row — row p of dst — whole in a
// register, which is stored as it is.
TEXT ·copyT8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ ld+8(FP), DX
	MOVQ rows+16(FP), AX
	MOVQ nblk+24(FP), CX
	SHLQ $2, DX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ 32(AX), R12
	MOVQ 40(AX), R13
	MOVQ 48(AX), BX
	MOVQ 56(AX), SI
	XORQ AX, AX

c8loop:
	VMOVUPS     (R8)(AX*1), X0
	VINSERTF128 $1, (R12)(AX*1), Y0, Y0
	VMOVUPS     (R9)(AX*1), X1
	VINSERTF128 $1, (R13)(AX*1), Y1, Y1
	VMOVUPS     (R10)(AX*1), X2
	VINSERTF128 $1, (BX)(AX*1), Y2, Y2
	VMOVUPS     (R11)(AX*1), X3
	VINSERTF128 $1, (SI)(AX*1), Y3, Y3
	VMOVUPS     16(R8)(AX*1), X4
	VINSERTF128 $1, 16(R12)(AX*1), Y4, Y4
	VMOVUPS     16(R9)(AX*1), X5
	VINSERTF128 $1, 16(R13)(AX*1), Y5, Y5
	VMOVUPS     16(R10)(AX*1), X6
	VINSERTF128 $1, 16(BX)(AX*1), Y6, Y6
	VMOVUPS     16(R11)(AX*1), X7
	VINSERTF128 $1, 16(SI)(AX*1), Y7, Y7

	T4X4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	T4X4(Y4, Y5, Y6, Y7, Y12, Y13, Y14, Y15)

	VMOVUPS Y0, (DI)
	ADDQ    DX, DI
	VMOVUPS Y1, (DI)
	ADDQ    DX, DI
	VMOVUPS Y2, (DI)
	ADDQ    DX, DI
	VMOVUPS Y3, (DI)
	ADDQ    DX, DI
	VMOVUPS Y4, (DI)
	ADDQ    DX, DI
	VMOVUPS Y5, (DI)
	ADDQ    DX, DI
	VMOVUPS Y6, (DI)
	ADDQ    DX, DI
	VMOVUPS Y7, (DI)
	ADDQ    DX, DI

	ADDQ $32, AX
	DECQ CX
	JNZ  c8loop

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

// The Gram kernels below accumulate float64 dot products of float32 rows, four
// lanes a product: lane l of a product holds the sum over the coordinates
// p ≡ l (mod 4) in ascending order, each step one VFMADD231PD of two rows'
// VCVTPS2PD-widened floats. A float32 × float32 product is exact in float64,
// so the fused step rounds as DotSlice's separate multiply and add do. The
// lanes are loaded from acc at entry and stored back at exit, so a product
// carries across calls; n counts floats and is a positive multiple of 4.

// func gramTri(acc *float64, rows *[4]*float32, m, n int)
//
// Every product rows[i]·rows[j], j <= i < m (1 <= m <= 4), in that order
// (i-major): acc holds m(m+1)/2 products of four lanes each.
TEXT ·gramTri(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ m+16(FP), CX
	MOVQ n+24(FP), DX
	SHLQ $2, DX
	XORQ AX, AX
	MOVQ (SI), R8
	CMPQ CX, $2
	JL   tri1
	MOVQ 8(SI), R9
	JEQ  tri2
	MOVQ 16(SI), R10
	CMPQ CX, $3
	JEQ  tri3
	MOVQ 24(SI), R11

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	VMOVUPD 256(DI), Y8
	VMOVUPD 288(DI), Y9

tri4loop:
	VCVTPS2PD   (R8)(AX*1), Y10
	VCVTPS2PD   (R9)(AX*1), Y11
	VCVTPS2PD   (R10)(AX*1), Y12
	VCVTPS2PD   (R11)(AX*1), Y13
	VFMADD231PD Y10, Y10, Y0
	VFMADD231PD Y10, Y11, Y1
	VFMADD231PD Y11, Y11, Y2
	VFMADD231PD Y10, Y12, Y3
	VFMADD231PD Y11, Y12, Y4
	VFMADD231PD Y12, Y12, Y5
	VFMADD231PD Y10, Y13, Y6
	VFMADD231PD Y11, Y13, Y7
	VFMADD231PD Y12, Y13, Y8
	VFMADD231PD Y13, Y13, Y9
	ADDQ        $16, AX
	CMPQ        AX, DX
	JL          tri4loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 256(DI)
	VMOVUPD Y9, 288(DI)
	VZEROUPPER
	RET

tri3:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5

tri3loop:
	VCVTPS2PD   (R8)(AX*1), Y10
	VCVTPS2PD   (R9)(AX*1), Y11
	VCVTPS2PD   (R10)(AX*1), Y12
	VFMADD231PD Y10, Y10, Y0
	VFMADD231PD Y10, Y11, Y1
	VFMADD231PD Y11, Y11, Y2
	VFMADD231PD Y10, Y12, Y3
	VFMADD231PD Y11, Y12, Y4
	VFMADD231PD Y12, Y12, Y5
	ADDQ        $16, AX
	CMPQ        AX, DX
	JL          tri3loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VZEROUPPER
	RET

tri2:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2

tri2loop:
	VCVTPS2PD   (R8)(AX*1), Y10
	VCVTPS2PD   (R9)(AX*1), Y11
	VFMADD231PD Y10, Y10, Y0
	VFMADD231PD Y10, Y11, Y1
	VFMADD231PD Y11, Y11, Y2
	ADDQ        $16, AX
	CMPQ        AX, DX
	JL          tri2loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VZEROUPPER
	RET

tri1:
	VMOVUPD (DI), Y0

tri1loop:
	VCVTPS2PD   (R8)(AX*1), Y10
	VFMADD231PD Y10, Y10, Y0
	ADDQ        $16, AX
	CMPQ        AX, DX
	JL          tri1loop

	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func gramRect(acc *float64, a *[4]*float32, b *[2]*float32, nb, n int)
//
// Every product b[i]·a[j], i < nb (1 <= nb <= 2), j < 4, in that order
// (i-major): acc holds 4·nb products of four lanes each.
TEXT ·gramRect(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ nb+24(FP), CX
	MOVQ n+32(FP), DX
	SHLQ $2, DX
	XORQ AX, AX
	MOVQ (SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11
	MOVQ (BX), R12
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	CMPQ CX, $2
	JL   rect1
	MOVQ 8(BX), R13
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7

rect2loop:
	VCVTPS2PD   (R8)(AX*1), Y10
	VCVTPS2PD   (R9)(AX*1), Y11
	VCVTPS2PD   (R10)(AX*1), Y12
	VCVTPS2PD   (R11)(AX*1), Y13
	VCVTPS2PD   (R12)(AX*1), Y14
	VCVTPS2PD   (R13)(AX*1), Y15
	VFMADD231PD Y10, Y14, Y0
	VFMADD231PD Y11, Y14, Y1
	VFMADD231PD Y12, Y14, Y2
	VFMADD231PD Y13, Y14, Y3
	VFMADD231PD Y10, Y15, Y4
	VFMADD231PD Y11, Y15, Y5
	VFMADD231PD Y12, Y15, Y6
	VFMADD231PD Y13, Y15, Y7
	ADDQ        $16, AX
	CMPQ        AX, DX
	JL          rect2loop

	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	JMP     rectstore

rect1:
rect1loop:
	VCVTPS2PD   (R8)(AX*1), Y10
	VCVTPS2PD   (R9)(AX*1), Y11
	VCVTPS2PD   (R10)(AX*1), Y12
	VCVTPS2PD   (R11)(AX*1), Y13
	VCVTPS2PD   (R12)(AX*1), Y14
	VFMADD231PD Y10, Y14, Y0
	VFMADD231PD Y11, Y14, Y1
	VFMADD231PD Y12, Y14, Y2
	VFMADD231PD Y13, Y14, Y3
	ADDQ        $16, AX
	CMPQ        AX, DX
	JL          rect1loop

rectstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func axpyRowsAVX(dst, x *float32, rows *[]float32, coef *float32, k, n int, scale float32, scaled bool)
//
// dst[p] = x[p] + coef[0]·rows[0][p] + … + coef[k-1]·rows[k-1][p] for p < n
// (a positive multiple of 8), then · scale when scaled: per element the
// float32 multiply and add of AxpySlice, unfused, row by row in order. rows
// points at k consecutive slice headers. 32 floats a step in four registers,
// then 8.
TEXT ·axpyRowsAVX(SB), NOSPLIT, $0-53
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         rows+16(FP), BX
	MOVQ         coef+24(FP), R11
	MOVQ         k+32(FP), R12
	MOVQ         n+40(FP), DX
	VBROADCASTSS scale+48(FP), Y15
	MOVBQZX      scaled+52(FP), R8
	SHLQ         $2, DX
	XORQ         AX, AX

rows32:
	LEAQ    128(AX), CX
	CMPQ    CX, DX
	JGT     rows8
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS 32(SI)(AX*1), Y1
	VMOVUPS 64(SI)(AX*1), Y2
	VMOVUPS 96(SI)(AX*1), Y3
	MOVQ    BX, R9
	MOVQ    R11, R10
	MOVQ    R12, CX
	TESTQ   CX, CX
	JZ      scale32

row32:
	MOVQ         (R9), R13
	VBROADCASTSS (R10), Y8
	VMULPS       (R13)(AX*1), Y8, Y4
	VMULPS       32(R13)(AX*1), Y8, Y5
	VMULPS       64(R13)(AX*1), Y8, Y6
	VMULPS       96(R13)(AX*1), Y8, Y7
	VADDPS       Y4, Y0, Y0
	VADDPS       Y5, Y1, Y1
	VADDPS       Y6, Y2, Y2
	VADDPS       Y7, Y3, Y3
	ADDQ         $24, R9
	ADDQ         $4, R10
	DECQ         CX
	JNZ          row32

scale32:
	TESTQ  R8, R8
	JZ     store32
	VMULPS Y15, Y0, Y0
	VMULPS Y15, Y1, Y1
	VMULPS Y15, Y2, Y2
	VMULPS Y15, Y3, Y3

store32:
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	JMP     rows32

rows8:
	CMPQ    AX, DX
	JGE     rowsdone
	VMOVUPS (SI)(AX*1), Y0
	MOVQ    BX, R9
	MOVQ    R11, R10
	MOVQ    R12, CX
	TESTQ   CX, CX
	JZ      scale8

row8:
	MOVQ         (R9), R13
	VBROADCASTSS (R10), Y8
	VMULPS       (R13)(AX*1), Y8, Y4
	VADDPS       Y4, Y0, Y0
	ADDQ         $24, R9
	ADDQ         $4, R10
	DECQ         CX
	JNZ          row8

scale8:
	TESTQ  R8, R8
	JZ     store8
	VMULPS Y15, Y0, Y0

store8:
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     rows8

rowsdone:
	VZEROUPPER
	RET
