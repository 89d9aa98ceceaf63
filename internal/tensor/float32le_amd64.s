//go:build amd64

#include "textflag.h"

// The little-endian float32 run kernels. amd64 stores a float32's bits
// little-endian, so a run's bytes are the floats' own memory: both kernels
// move n floats (n a positive multiple of 8; the Go caller runs the rest)
// with 32-byte unaligned loads and stores, four vectors a step while four
// remain, never touching a byte past float n-1 of either operand.

// func putF32sAVX(dst *byte, src *float32, n int) int
//
// Copies src to dst and returns the index of the first eight-float vector
// (counted from src[0]) holding an all-zero bit pattern, or n. Each vector
// is compared with zero as it is stored (VPCMPEQD, VPTEST), so the test
// costs no second read; a four-vector step that holds a zero is run again
// one vector at a time to find it, and from that vector on the kernel only
// copies.
TEXT ·putF32sAVX(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  n+16(FP), CX
	SHLQ  $2, CX
	XORQ  AX, AX
	VPXOR Y15, Y15, Y15
	MOVQ  CX, DX
	ANDQ  $-128, DX
	JZ    tested32

tested128:
	VMOVDQU  (SI)(AX*1), Y0
	VMOVDQU  32(SI)(AX*1), Y1
	VMOVDQU  64(SI)(AX*1), Y2
	VMOVDQU  96(SI)(AX*1), Y3
	VMOVDQU  Y0, (DI)(AX*1)
	VMOVDQU  Y1, 32(DI)(AX*1)
	VMOVDQU  Y2, 64(DI)(AX*1)
	VMOVDQU  Y3, 96(DI)(AX*1)
	VPCMPEQD Y15, Y0, Y4
	VPCMPEQD Y15, Y1, Y5
	VPCMPEQD Y15, Y2, Y6
	VPCMPEQD Y15, Y3, Y7
	VPOR     Y5, Y4, Y4
	VPOR     Y7, Y6, Y6
	VPOR     Y6, Y4, Y4
	VPTEST   Y4, Y4
	JNZ      tested32
	ADDQ     $128, AX
	CMPQ     AX, DX
	JLT      tested128
	CMPQ     AX, CX
	JGE      nozero

tested32:
	VMOVDQU  (SI)(AX*1), Y0
	VMOVDQU  Y0, (DI)(AX*1)
	VPCMPEQD Y15, Y0, Y4
	VPTEST   Y4, Y4
	JNZ      found
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      tested32

nozero:
	SHRQ       $2, AX
	MOVQ       AX, ret+24(FP)
	VZEROUPPER
	RET

found:
	MOVQ AX, BX
	SHRQ $2, BX
	MOVQ BX, ret+24(FP)
	ADDQ $32, AX

copy128:
	LEAQ    128(AX), BX
	CMPQ    BX, CX
	JGT     copy32
	VMOVDQU (SI)(AX*1), Y0
	VMOVDQU 32(SI)(AX*1), Y1
	VMOVDQU 64(SI)(AX*1), Y2
	VMOVDQU 96(SI)(AX*1), Y3
	VMOVDQU Y0, (DI)(AX*1)
	VMOVDQU Y1, 32(DI)(AX*1)
	VMOVDQU Y2, 64(DI)(AX*1)
	VMOVDQU Y3, 96(DI)(AX*1)
	MOVQ    BX, AX
	JMP     copy128

copy32:
	CMPQ    AX, CX
	JGE     copied
	VMOVDQU (SI)(AX*1), Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     copy32

copied:
	VZEROUPPER
	RET

// func getF32sAVX(dst *float32, src *byte, n int)
//
// Copies the 4n bytes of src to dst.
TEXT ·getF32sAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $2, CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-128, DX
	JZ   get32

get128:
	VMOVDQU (SI)(AX*1), Y0
	VMOVDQU 32(SI)(AX*1), Y1
	VMOVDQU 64(SI)(AX*1), Y2
	VMOVDQU 96(SI)(AX*1), Y3
	VMOVDQU Y0, (DI)(AX*1)
	VMOVDQU Y1, 32(DI)(AX*1)
	VMOVDQU Y2, 64(DI)(AX*1)
	VMOVDQU Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	CMPQ    AX, DX
	JLT     get128
	CMPQ    AX, CX
	JGE     got

get32:
	VMOVDQU (SI)(AX*1), Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     get32

got:
	VZEROUPPER
	RET

// func axpyLEAVX(dst *float32, src *byte, n int, a float32)
//
// AxpyFloat32sLE's kernel: a little-endian run's bytes are its floats, so it
// is axpyAVX (elementwise_amd64.s) itself, whose frame it shares.
TEXT ·axpyLEAVX(SB), NOSPLIT, $0-28
	JMP ·axpyAVX(SB)

// func axpyWriteLEAVX(dst *float32, src *byte, n int, a float32)
//
// AxpyWriteFloat32sLE's kernel: axpyWriteAVX on the run's bytes.
TEXT ·axpyWriteLEAVX(SB), NOSPLIT, $0-28
	JMP ·axpyWriteAVX(SB)
