// Copyright (c) 2021 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the Go distribution's LICENSE file.
//
// Adapted from crypto/internal/fips140/edwards25519/field/fe_amd64.s (same
// radix-2^51 limb layout): the 19- and 38-multiples of the high limbs are
// computed once into the frame instead of once per product, which takes
// them off the multiplier port the 25 (15) MULQs compete for.

//go:build amd64 && !purego

#include "textflag.h"

// Both kernels compute limb for limb what mulGeneric/squareGeneric compute
// (FuzzFe25519Kernel holds them to it), in the same 64-bit wrapping
// arithmetic, so the headroom argument is the same one. Inputs: every limb
// below 2^feLazyBits = 2^54 (the point formulas reach ~2^53.3). Then
//   - a 19-multiple is below 2^58.3 and a 38-multiple below 2^59.3: no
//     64-bit wrap in the IMUL3Qs;
//   - r0, the widest accumulator, holds one plain and four 19-fold products:
//     77·2^108 < 2^114.3, so its high word is below 2^50.3 and SHLQ $13
//     (hi<<13 | lo>>51) drops no bit: c0 < 2^63.3, and limb 1 = 51 bits + c0
//     stays inside 64 bits;
//   - r4 holds five plain products, 5·2^108, so c4 < 2^59.4 and the fold
//     19·c4 < 2^63.6 stays inside 64 bits with limb 0's 51 bits added — this
//     is the binding constraint, and it is why lazy limbs stop at 2^54;
//   - the parallel carry then moves at most 2^12.6 per limb (19·2^12 into
//     limb 0), so every output limb is below 2^51 + 2^17.
// out may alias a and b: all loads happen before the five stores.

// func feMul(out, a, b *fe25519)
TEXT ·feMul(SB), NOSPLIT, $32-24
	MOVQ a+8(FP), CX
	MOVQ b+16(FP), BX

	// 19×a1..19×a4
	IMUL3Q $19, 8(CX), AX
	MOVQ   AX, 0(SP)
	IMUL3Q $19, 16(CX), AX
	MOVQ   AX, 8(SP)
	IMUL3Q $19, 24(CX), AX
	MOVQ   AX, 16(SP)
	IMUL3Q $19, 32(CX), AX
	MOVQ   AX, 24(SP)

	// r0 = a0×b0 + 19×(a1×b4 + a2×b3 + a3×b2 + a4×b1)
	MOVQ (CX), AX
	MULQ (BX)
	MOVQ AX, DI
	MOVQ DX, SI
	MOVQ 0(SP), AX
	MULQ 32(BX)
	ADDQ AX, DI
	ADCQ DX, SI
	MOVQ 8(SP), AX
	MULQ 24(BX)
	ADDQ AX, DI
	ADCQ DX, SI
	MOVQ 16(SP), AX
	MULQ 16(BX)
	ADDQ AX, DI
	ADCQ DX, SI
	MOVQ 24(SP), AX
	MULQ 8(BX)
	ADDQ AX, DI
	ADCQ DX, SI

	// r1 = a0×b1 + a1×b0 + 19×(a2×b4 + a3×b3 + a4×b2)
	MOVQ (CX), AX
	MULQ 8(BX)
	MOVQ AX, R9
	MOVQ DX, R8
	MOVQ 8(CX), AX
	MULQ (BX)
	ADDQ AX, R9
	ADCQ DX, R8
	MOVQ 8(SP), AX
	MULQ 32(BX)
	ADDQ AX, R9
	ADCQ DX, R8
	MOVQ 16(SP), AX
	MULQ 24(BX)
	ADDQ AX, R9
	ADCQ DX, R8
	MOVQ 24(SP), AX
	MULQ 16(BX)
	ADDQ AX, R9
	ADCQ DX, R8

	// r2 = a0×b2 + a1×b1 + a2×b0 + 19×(a3×b4 + a4×b3)
	MOVQ (CX), AX
	MULQ 16(BX)
	MOVQ AX, R11
	MOVQ DX, R10
	MOVQ 8(CX), AX
	MULQ 8(BX)
	ADDQ AX, R11
	ADCQ DX, R10
	MOVQ 16(CX), AX
	MULQ (BX)
	ADDQ AX, R11
	ADCQ DX, R10
	MOVQ 16(SP), AX
	MULQ 32(BX)
	ADDQ AX, R11
	ADCQ DX, R10
	MOVQ 24(SP), AX
	MULQ 24(BX)
	ADDQ AX, R11
	ADCQ DX, R10

	// r3 = a0×b3 + a1×b2 + a2×b1 + a3×b0 + 19×a4×b4
	MOVQ (CX), AX
	MULQ 24(BX)
	MOVQ AX, R13
	MOVQ DX, R12
	MOVQ 8(CX), AX
	MULQ 16(BX)
	ADDQ AX, R13
	ADCQ DX, R12
	MOVQ 16(CX), AX
	MULQ 8(BX)
	ADDQ AX, R13
	ADCQ DX, R12
	MOVQ 24(CX), AX
	MULQ (BX)
	ADDQ AX, R13
	ADCQ DX, R12
	MOVQ 24(SP), AX
	MULQ 32(BX)
	ADDQ AX, R13
	ADCQ DX, R12

	// r4 = a0×b4 + a1×b3 + a2×b2 + a3×b1 + a4×b0
	MOVQ (CX), AX
	MULQ 32(BX)
	MOVQ AX, R15
	MOVQ DX, R14
	MOVQ 8(CX), AX
	MULQ 24(BX)
	ADDQ AX, R15
	ADCQ DX, R14
	MOVQ 16(CX), AX
	MULQ 16(BX)
	ADDQ AX, R15
	ADCQ DX, R14
	MOVQ 24(CX), AX
	MULQ 8(BX)
	ADDQ AX, R15
	ADCQ DX, R14
	MOVQ 32(CX), AX
	MULQ (BX)
	ADDQ AX, R15
	ADCQ DX, R14

	// split each accumulator at bit 51; fold c4 into limb 0 times 19
	MOVQ   $0x0007ffffffffffff, AX
	SHLQ   $13, DI, SI
	SHLQ   $13, R9, R8
	SHLQ   $13, R11, R10
	SHLQ   $13, R13, R12
	SHLQ   $13, R15, R14
	ANDQ   AX, DI
	IMUL3Q $19, R14, R14
	ADDQ   R14, DI
	ANDQ   AX, R9
	ADDQ   SI, R9
	ANDQ   AX, R11
	ADDQ   R8, R11
	ANDQ   AX, R13
	ADDQ   R10, R13
	ANDQ   AX, R15
	ADDQ   R12, R15

	// one parallel carry pass
	MOVQ   DI, SI
	SHRQ   $51, SI
	MOVQ   R9, R8
	SHRQ   $51, R8
	MOVQ   R11, R10
	SHRQ   $51, R10
	MOVQ   R13, R12
	SHRQ   $51, R12
	MOVQ   R15, R14
	SHRQ   $51, R14
	ANDQ   AX, DI
	IMUL3Q $19, R14, R14
	ADDQ   R14, DI
	ANDQ   AX, R9
	ADDQ   SI, R9
	ANDQ   AX, R11
	ADDQ   R8, R11
	ANDQ   AX, R13
	ADDQ   R10, R13
	ANDQ   AX, R15
	ADDQ   R12, R15

	MOVQ out+0(FP), AX
	MOVQ DI, (AX)
	MOVQ R9, 8(AX)
	MOVQ R11, 16(AX)
	MOVQ R13, 24(AX)
	MOVQ R15, 32(AX)
	RET

// func feSquare(out, a *fe25519)
TEXT ·feSquare(SB), NOSPLIT, $32-16
	MOVQ a+8(FP), CX

	// 2×a0 in R15; 38×a2, 19×a3, 19×a4 and 38×a4 in the frame
	MOVQ   (CX), R15
	ADDQ   R15, R15
	IMUL3Q $38, 16(CX), AX
	MOVQ   AX, 0(SP)
	IMUL3Q $19, 24(CX), AX
	MOVQ   AX, 8(SP)
	IMUL3Q $19, 32(CX), AX
	MOVQ   AX, 16(SP)
	ADDQ   AX, AX
	MOVQ   AX, 24(SP)

	// r0 = a0×a0 + 38×a4×a1 + 38×a2×a3
	MOVQ (CX), AX
	MULQ AX
	MOVQ AX, SI
	MOVQ DX, BX
	MOVQ 24(SP), AX
	MULQ 8(CX)
	ADDQ AX, SI
	ADCQ DX, BX
	MOVQ 0(SP), AX
	MULQ 24(CX)
	ADDQ AX, SI
	ADCQ DX, BX

	// r1 = 2×a0×a1 + 38×a2×a4 + 19×a3×a3
	MOVQ R15, AX
	MULQ 8(CX)
	MOVQ AX, R8
	MOVQ DX, DI
	MOVQ 0(SP), AX
	MULQ 32(CX)
	ADDQ AX, R8
	ADCQ DX, DI
	MOVQ 8(SP), AX
	MULQ 24(CX)
	ADDQ AX, R8
	ADCQ DX, DI

	// r2 = 2×a0×a2 + a1×a1 + 38×a4×a3
	MOVQ R15, AX
	MULQ 16(CX)
	MOVQ AX, R10
	MOVQ DX, R9
	MOVQ 8(CX), AX
	MULQ AX
	ADDQ AX, R10
	ADCQ DX, R9
	MOVQ 24(SP), AX
	MULQ 24(CX)
	ADDQ AX, R10
	ADCQ DX, R9

	// r3 = 2×a0×a3 + 2×a1×a2 + 19×a4×a4
	MOVQ R15, AX
	MULQ 24(CX)
	MOVQ AX, R12
	MOVQ DX, R11
	MOVQ 8(CX), AX
	ADDQ AX, AX
	MULQ 16(CX)
	ADDQ AX, R12
	ADCQ DX, R11
	MOVQ 16(SP), AX
	MULQ 32(CX)
	ADDQ AX, R12
	ADCQ DX, R11

	// r4 = 2×a0×a4 + 2×a1×a3 + a2×a2
	MOVQ R15, AX
	MULQ 32(CX)
	MOVQ AX, R14
	MOVQ DX, R13
	MOVQ 8(CX), AX
	ADDQ AX, AX
	MULQ 24(CX)
	ADDQ AX, R14
	ADCQ DX, R13
	MOVQ 16(CX), AX
	MULQ AX
	ADDQ AX, R14
	ADCQ DX, R13

	// split each accumulator at bit 51; fold c4 into limb 0 times 19
	MOVQ   $0x0007ffffffffffff, AX
	SHLQ   $13, SI, BX
	SHLQ   $13, R8, DI
	SHLQ   $13, R10, R9
	SHLQ   $13, R12, R11
	SHLQ   $13, R14, R13
	ANDQ   AX, SI
	IMUL3Q $19, R13, R13
	ADDQ   R13, SI
	ANDQ   AX, R8
	ADDQ   BX, R8
	ANDQ   AX, R10
	ADDQ   DI, R10
	ANDQ   AX, R12
	ADDQ   R9, R12
	ANDQ   AX, R14
	ADDQ   R11, R14

	// one parallel carry pass
	MOVQ   SI, BX
	SHRQ   $51, BX
	MOVQ   R8, DI
	SHRQ   $51, DI
	MOVQ   R10, R9
	SHRQ   $51, R9
	MOVQ   R12, R11
	SHRQ   $51, R11
	MOVQ   R14, R13
	SHRQ   $51, R13
	ANDQ   AX, SI
	IMUL3Q $19, R13, R13
	ADDQ   R13, SI
	ANDQ   AX, R8
	ADDQ   BX, R8
	ANDQ   AX, R10
	ADDQ   DI, R10
	ANDQ   AX, R12
	ADDQ   R9, R12
	ANDQ   AX, R14
	ADDQ   R11, R14

	MOVQ out+0(FP), AX
	MOVQ SI, (AX)
	MOVQ R8, 8(AX)
	MOVQ R10, 16(AX)
	MOVQ R12, 24(AX)
	MOVQ R14, 32(AX)
	RET
