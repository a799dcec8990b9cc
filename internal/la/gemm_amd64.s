#include "textflag.h"

// func gemm4x8(kc int, a *float64, lda int, p *float64, c *float64, ldc int)
//
// C[0:4][0:8] += A[0:4][0:kc] * P, where row r of A starts at a+r*lda,
// row r of C at c+r*ldc (both in elements), and P is kc packed rows of
// 8 doubles. The tile lives in Y0-Y7 (row r in Y(2r), Y(2r+1)). Every
// step multiplies, then adds with the accumulator as the first source,
// for k ascending: the naive loop's roundings, lane by lane. No FMA.
TEXT ·gemm4x8(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ p+24(FP), DI
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (SI)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (DX)(R9*1), R13
	LEAQ (R13)(R9*1), BX
	LEAQ (BX)(R9*1), R9

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (R13), Y2
	VMOVUPD 32(R13), Y3
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD (R9), Y6
	VMOVUPD 32(R9), Y7
	XORQ AX, AX

loop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9

	VBROADCASTSD (SI)(AX*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y1, Y1

	VBROADCASTSD (R10)(AX*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y3, Y3

	VBROADCASTSD (R11)(AX*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y5, Y5

	VBROADCASTSD (R12)(AX*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y7, Y7

	ADDQ $64, DI
	ADDQ $8, AX
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (R13)
	VMOVUPD Y3, 32(R13)
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (R9)
	VMOVUPD Y7, 32(R9)
	VZEROUPPER
	RET

// func gemm4x16(kc int, a *float64, lda int, p *float64, c *float64, ldc int)
//
// gemm4x8's loop over a 4 x 16 tile of C and kc packed rows of 16
// doubles, in ZMM registers (AVX-512F): row r of the tile lives in
// Z(2r), Z(2r+1). The same multiply, then add with the accumulator as
// the first source, for k ascending. No FMA.
TEXT ·gemm4x16(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ p+24(FP), DI
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (SI)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (DX)(R9*1), R13
	LEAQ (R13)(R9*1), BX
	LEAQ (BX)(R9*1), R9

	VMOVUPD (DX), Z0
	VMOVUPD 64(DX), Z1
	VMOVUPD (R13), Z2
	VMOVUPD 64(R13), Z3
	VMOVUPD (BX), Z4
	VMOVUPD 64(BX), Z5
	VMOVUPD (R9), Z6
	VMOVUPD 64(R9), Z7
	XORQ AX, AX

loop16:
	VMOVUPD (DI), Z8
	VMOVUPD 64(DI), Z9

	VBROADCASTSD (SI)(AX*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z0, Z0
	VMULPD Z9, Z10, Z12
	VADDPD Z12, Z1, Z1

	VBROADCASTSD (R10)(AX*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z2, Z2
	VMULPD Z9, Z10, Z12
	VADDPD Z12, Z3, Z3

	VBROADCASTSD (R11)(AX*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z4, Z4
	VMULPD Z9, Z10, Z12
	VADDPD Z12, Z5, Z5

	VBROADCASTSD (R12)(AX*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z6, Z6
	VMULPD Z9, Z10, Z12
	VADDPD Z12, Z7, Z7

	ADDQ $128, DI
	ADDQ $8, AX
	DECQ CX
	JNZ  loop16

	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, (R13)
	VMOVUPD Z3, 64(R13)
	VMOVUPD Z4, (BX)
	VMOVUPD Z5, 64(BX)
	VMOVUPD Z6, (R9)
	VMOVUPD Z7, 64(R9)
	VZEROUPPER
	RET

// func cpuHasAVX() bool
//
// CPUID.1:ECX must report OSXSAVE (bit 27) and AVX (bit 28), and XCR0
// must show the OS saving XMM and YMM state (bits 1 and 2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
//
// CPUID leaf 7 must exist, CPUID.1:ECX must report OSXSAVE (bit 27),
// CPUID.(7,0):EBX must report AVX512F (bit 16), and XCR0 must show the
// OS saving XMM, YMM, opmask and both halves of the ZMM state (bits 1,
// 2, 5, 6 and 7).
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000000, CX
	JZ   no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x00010000, BX
	JZ   no512
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET
