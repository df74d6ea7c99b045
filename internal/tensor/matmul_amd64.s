#include "textflag.h"

// The panel kernels compute rows [0, m) of a w-column panel of c = a·b, with
// m a multiple of 4 and k ≥ 1: element (i, p) of a sits at a + i·ars + p·aps,
// element (p, j) of b at b + p·ldb + j, element (i, j) of c at c + i·ldc + j
// (all strides in float64s). Each pass over p holds a 4-row × w-column block
// of c in YMM accumulators that start at +0 (or at c's current contents when
// load is set) and take every term as a separate VMULPD and VADDPD in
// ascending p: the operation sequence of the Go kernels, with no FMA.

// ROW8 adds bcast(src)·[Y0 Y1] into the accumulator pair acc0, acc1.
#define ROW8(src, acc0, acc1) \
	VBROADCASTSD src, Y2; \
	VMULPD       Y0, Y2, Y3; \
	VADDPD       Y3, acc0, acc0; \
	VMULPD       Y1, Y2, Y2; \
	VADDPD       Y2, acc1, acc1

// ROW4 adds bcast(src)·Y0 into the accumulator acc.
#define ROW4(src, acc) \
	VBROADCASTSD src, Y2; \
	VMULPD       Y0, Y2, Y2; \
	VADDPD       Y2, acc, acc

// Register use, shared by both kernels: DI and SI point at the current
// 4-row block of c and a, DX at b; R8 and R9 hold c's and a's row strides in
// bytes, R12 and R14 three times those; R10 is a's p stride, R11 b's row
// stride, R13 the rows left; AX, BX and CX walk a, b and the p count.
#define PROLOGUE \
	MOVQ c+0(FP), DI; \
	MOVQ ldc+8(FP), R8; \
	SHLQ $3, R8; \
	MOVQ a+16(FP), SI; \
	MOVQ ars+24(FP), R9; \
	SHLQ $3, R9; \
	MOVQ aps+32(FP), R10; \
	SHLQ $3, R10; \
	MOVQ b+40(FP), DX; \
	MOVQ ldb+48(FP), R11; \
	SHLQ $3, R11; \
	MOVQ m+56(FP), R13; \
	LEAQ (R8)(R8*2), R12; \
	LEAQ (R9)(R9*2), R14

// func panel8AVX2(c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, m, k int, load bool)
TEXT ·panel8AVX2(SB), NOSPLIT, $0-73
	PROLOGUE

block8:
	CMPB load+72(FP), $0
	JNE  load8
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	JMP  sum8

load8:
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD (DI)(R8*1), Y6
	VMOVUPD 32(DI)(R8*1), Y7
	VMOVUPD (DI)(R8*2), Y8
	VMOVUPD 32(DI)(R8*2), Y9
	VMOVUPD (DI)(R12*1), Y10
	VMOVUPD 32(DI)(R12*1), Y11

sum8:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+64(FP), CX

loop8:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	ROW8((AX), Y4, Y5)
	ROW8((AX)(R9*1), Y6, Y7)
	ROW8((AX)(R9*2), Y8, Y9)
	ROW8((AX)(R14*1), Y10, Y11)
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ CX
	JNZ  loop8

	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, (DI)(R8*1)
	VMOVUPD Y7, 32(DI)(R8*1)
	VMOVUPD Y8, (DI)(R8*2)
	VMOVUPD Y9, 32(DI)(R8*2)
	VMOVUPD Y10, (DI)(R12*1)
	VMOVUPD Y11, 32(DI)(R12*1)

	LEAQ (DI)(R8*4), DI
	LEAQ (SI)(R9*4), SI
	SUBQ $4, R13
	JNZ  block8
	VZEROUPPER
	RET

// func panel4AVX2(c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, m, k int, load bool)
TEXT ·panel4AVX2(SB), NOSPLIT, $0-73
	PROLOGUE

block4:
	CMPB load+72(FP), $0
	JNE  load4
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP  sum4

load4:
	VMOVUPD (DI), Y4
	VMOVUPD (DI)(R8*1), Y5
	VMOVUPD (DI)(R8*2), Y6
	VMOVUPD (DI)(R12*1), Y7

sum4:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+64(FP), CX

loop4:
	VMOVUPD (BX), Y0
	ROW4((AX), Y4)
	ROW4((AX)(R9*1), Y5)
	ROW4((AX)(R9*2), Y6)
	ROW4((AX)(R14*1), Y7)
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ CX
	JNZ  loop4

	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(R8*1)
	VMOVUPD Y6, (DI)(R8*2)
	VMOVUPD Y7, (DI)(R12*1)

	LEAQ (DI)(R8*4), DI
	LEAQ (SI)(R9*4), SI
	SUBQ $4, R13
	JNZ  block4
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
