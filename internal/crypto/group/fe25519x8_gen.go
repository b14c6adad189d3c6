//go:build ignore

// Command fe25519x8_gen writes fe25519x8_amd64.s: the AVX-512 IFMA kernels
// under fe25519x8 (eight field elements per operation, one ZMM register per
// limb) and the CPUID/XGETBV stubs that decide at init whether they run.
//
//	go run fe25519x8_gen.go > fe25519x8_amd64.s
//
// It imports only the standard library; CI regenerates the file and fails
// when the output differs from what is committed.
package main

import (
	"bytes"
	"fmt"
	"os"
)

var out bytes.Buffer

func p(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }

func z(i int) string { return fmt.Sprintf("Z%d", i) }

// limb is the memory operand of limb i of the fe25519x8 base points at.
func limb(base string, i int) string { return fmt.Sprintf("%d(%s)", 64*i, base) }

// Registers every kernel keeps for the same purpose.
const (
	zMask = 28 // 2^51 - 1 in every lane
	z19   = 29 // 19 in every lane
	zTmp0 = 30
	zTmp1 = 31
)

func main() {
	p("// Code generated by fe25519x8_gen.go. DO NOT EDIT.")
	p("")
	p("//go:build amd64 && !purego")
	p("")
	p(`#include "textflag.h"`)
	p("")
	p("// Every kernel takes fe25519x8 operands: five limbs of radix 2^51, eight")
	p("// lanes per limb, one 64-byte row (one ZMM register) per limb. The limb")
	p("// bounds — inputs below 2^fe8LimbBits = 2^52, outputs below 2^51 + 2^15 —")
	p("// are derived next to fe8LimbBits in fe25519x8_amd64.go. out may alias any")
	p("// input: every load precedes the first store.")
	p("")
	p("DATA fe8mask51<>+0(SB)/8, $0x0007ffffffffffff")
	p("GLOBL fe8mask51<>(SB), RODATA|NOPTR, $8")
	p("DATA fe8nineteen<>+0(SB)/8, $19")
	p("GLOBL fe8nineteen<>(SB), RODATA|NOPTR, $8")
	p("// 4p, limb by limb: what fe8Sub adds so that a - b stays non-negative")
	p("// for any subtrahend limb below 2^52.")
	p("DATA fe8fourP0<>+0(SB)/8, $0x001fffffffffffb4")
	p("GLOBL fe8fourP0<>(SB), RODATA|NOPTR, $8")
	p("DATA fe8fourP<>+0(SB)/8, $0x001ffffffffffffc")
	p("GLOBL fe8fourP<>(SB), RODATA|NOPTR, $8")
	p("")
	mul()
	square()
	addSub(false)
	addSub(true)
	cpu()
	if _, err := os.Stdout.Write(out.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func constants() {
	p("\tVPBROADCASTQ fe8mask51<>(SB), %s", z(zMask))
	p("\tVPBROADCASTQ fe8nineteen<>(SB), %s", z(z19))
}

func load(base string, first int) {
	for i := 0; i < 5; i++ {
		p("\tVMOVDQU64 %s, %s", limb(base, i), z(first+i))
	}
}

// times19 sets t = 19·t = t + 2t + 16t, with tmp0 and tmp1 as scratch.
func times19(t, tmp0, tmp1 int) {
	p("\tVPSLLQ $1, %s, %s", z(t), z(tmp0))
	p("\tVPSLLQ $4, %s, %s", z(t), z(tmp1))
	p("\tVPADDQ %s, %s, %s", z(tmp0), z(t), z(t))
	p("\tVPADDQ %s, %s, %s", z(tmp1), z(t), z(t))
}

// carryStoreRet runs the one parallel carry pass over the five result limbs
// in r (limb k hands its bits above 51 to limb k+1, limb 4's wrap to limb 0
// times 19), stores them through DI and returns. c names five free
// registers.
func carryStoreRet(r, c [5]int) {
	for k := 0; k < 5; k++ {
		p("\tVPSRLQ $51, %s, %s", z(r[k]), z(c[k]))
	}
	for k := 0; k < 5; k++ {
		p("\tVPANDQ %s, %s, %s", z(zMask), z(r[k]), z(r[k]))
	}
	for k := 1; k < 5; k++ {
		p("\tVPADDQ %s, %s, %s", z(c[k-1]), z(r[k]), z(r[k]))
	}
	p("\tVPMADD52LUQ %s, %s, %s", z(z19), z(c[4]), z(r[0]))
	for k := 0; k < 5; k++ {
		p("\tVMOVDQU64 %s, %s", z(r[k]), limb("DI", k))
	}
	p("\tVZEROUPPER")
	p("\tRET")
	p("")
}

// foldCarryStoreRet finishes a product whose ten columns are in col:
// r_k = col[k] + 19·col[k+5], then the carry pass. free names ten registers
// that are dead by now.
func foldCarryStoreRet(col [10]int, free []int) {
	for k := 0; k < 5; k++ {
		times19(col[k+5], free[0], free[1])
		p("\tVPADDQ %s, %s, %s", z(col[k+5]), z(col[k]), z(col[k]))
		// rotate the scratch pair so consecutive folds do not wait on
		// each other's temporaries
		free = append(free[2:], free[0], free[1])
	}
	carryStoreRet([5]int{col[0], col[1], col[2], col[3], col[4]},
		[5]int{col[5], col[6], col[7], col[8], col[9]})
}

func mul() {
	// a: Z0-Z4, b: Z5-Z9, lo columns L0-L8: Z10-Z18, hi columns H0-H8:
	// Z19-Z27.
	L := func(k int) int { return 10 + k }
	H := func(k int) int { return 19 + k }
	p("// func fe8Mul(out, a, b *fe25519x8)")
	p("//")
	p("// A limb product a_i·b_j is 104 bits; VPMADD52LUQ adds its low 52 bits to")
	p("// a column accumulator and VPMADD52HUQ its high 52. The low half sits at")
	p("// 2^(51(i+j)); the high half at 2^(51(i+j)+52) = 2·2^(51(i+j+1)), so column")
	p("// k of the product is L_k + 2·H_(k-1), and columns 5-9 fold onto 0-4 times")
	p("// 19 (2^255 = 19 mod p).")
	p("TEXT ·fe8Mul(SB), NOSPLIT, $0-24")
	p("\tMOVQ out+0(FP), DI")
	p("\tMOVQ a+8(FP), SI")
	p("\tMOVQ b+16(FP), DX")
	constants()
	load("SI", 0)
	load("DX", 5)
	for k := 0; k < 9; k++ {
		p("\tVPXORQ %s, %s, %s", z(L(k)), z(L(k)), z(L(k)))
		p("\tVPXORQ %s, %s, %s", z(H(k)), z(H(k)), z(H(k)))
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			p("\tVPMADD52LUQ %s, %s, %s", z(5+j), z(i), z(L(i+j)))
		}
		for j := 0; j < 5; j++ {
			p("\tVPMADD52HUQ %s, %s, %s", z(5+j), z(i), z(H(i+j)))
		}
	}
	for k := 0; k < 9; k++ {
		p("\tVPADDQ %s, %s, %s", z(H(k)), z(H(k)), z(H(k)))
	}
	// column k = L_k + 2H_(k-1); column 9 is 2H_8 alone
	for k := 1; k < 9; k++ {
		p("\tVPADDQ %s, %s, %s", z(H(k-1)), z(L(k)), z(L(k)))
	}
	col := [10]int{L(0), L(1), L(2), L(3), L(4), L(5), L(6), L(7), L(8), H(8)}
	// a, b and H0-H7 are dead
	foldCarryStoreRet(col, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
}

func square() {
	// a: Z0-Z4. A square has 5 diagonal products a_i·a_i and 10 cross
	// products a_i·a_j (i < j) that count twice. Three families of
	// accumulators, by the weight their sum carries in a column:
	//   W1_k (k even):   lo(a_i·a_i), k = 2i                  weight 1
	//   W2_k (k = 1..9): lo(a_i·a_j), k = i+j, and
	//                    hi(a_i·a_i), k = 2i+1                weight 2
	//   W4_k (k = 2..8): hi(a_i·a_j), k = i+j+1               weight 4
	// column k = W1_k + 2·(W2_k + 2·W4_k).
	W1 := func(k int) int { return 5 + k/2 }    // Z5-Z9
	W2 := func(k int) int { return 10 + k - 1 } // Z10-Z18
	W4 := func(k int) int { return 19 + k - 2 } // Z19-Z25
	p("// func fe8Square(out, a *fe25519x8)")
	p("//")
	p("// fe8Mul with the 10 symmetric products computed once: 30 multiply-adds")
	p("// for 50. The doubling cannot go on an input (2·a_i may pass 2^52), so it")
	p("// goes on the sums: diagonal low halves carry weight 1, cross low halves")
	p("// and diagonal high halves weight 2, cross high halves weight 4.")
	p("TEXT ·fe8Square(SB), NOSPLIT, $0-16")
	p("\tMOVQ out+0(FP), DI")
	p("\tMOVQ a+8(FP), SI")
	constants()
	load("SI", 0)
	for r := 5; r <= 25; r++ {
		p("\tVPXORQ %s, %s, %s", z(r), z(r), z(r))
	}
	for i := 0; i < 5; i++ {
		p("\tVPMADD52LUQ %s, %s, %s", z(i), z(i), z(W1(2*i)))
		p("\tVPMADD52HUQ %s, %s, %s", z(i), z(i), z(W2(2*i+1)))
		for j := i + 1; j < 5; j++ {
			p("\tVPMADD52LUQ %s, %s, %s", z(j), z(i), z(W2(i+j)))
			p("\tVPMADD52HUQ %s, %s, %s", z(j), z(i), z(W4(i+j+1)))
		}
	}
	for k := 2; k <= 8; k++ {
		p("\tVPADDQ %s, %s, %s", z(W4(k)), z(W4(k)), z(W4(k)))
		p("\tVPADDQ %s, %s, %s", z(W4(k)), z(W2(k)), z(W2(k)))
	}
	for k := 1; k <= 9; k++ {
		p("\tVPADDQ %s, %s, %s", z(W2(k)), z(W2(k)), z(W2(k)))
	}
	for k := 2; k <= 8; k += 2 {
		p("\tVPADDQ %s, %s, %s", z(W1(k)), z(W2(k)), z(W2(k)))
	}
	col := [10]int{W1(0), W2(1), W2(2), W2(3), W2(4), W2(5), W2(6), W2(7), W2(8), W2(9)}
	// a, W1_2..W1_8 and every W4 are dead
	foldCarryStoreRet(col, []int{0, 1, 2, 3, 4, 6, 7, 8, 9, 19})
}

func addSub(sub bool) {
	name, op := "fe8Add", "a + b"
	if sub {
		name, op = "fe8Sub", "a - b"
	}
	p("// func %s(out, a, b *fe25519x8)", name)
	p("//")
	p("// out = %s, carried: unlike the scalar path's addLazy/subLazy the carry", op)
	p("// pass cannot be skipped, because the multiply-adds read only the low 52")
	p("// bits of a limb.")
	p("TEXT ·%s(SB), NOSPLIT, $0-24", name)
	p("\tMOVQ out+0(FP), DI")
	p("\tMOVQ a+8(FP), SI")
	p("\tMOVQ b+16(FP), DX")
	constants()
	load("SI", 0)
	if sub {
		p("\tVPBROADCASTQ fe8fourP0<>(SB), %s", z(zTmp0))
		p("\tVPBROADCASTQ fe8fourP<>(SB), %s", z(zTmp1))
		p("\tVPADDQ %s, %s, %s", z(zTmp0), z(0), z(0))
		for k := 1; k < 5; k++ {
			p("\tVPADDQ %s, %s, %s", z(zTmp1), z(k), z(k))
		}
		for k := 0; k < 5; k++ {
			p("\tVPSUBQ %s, %s, %s", limb("DX", k), z(k), z(k))
		}
	} else {
		for k := 0; k < 5; k++ {
			p("\tVPADDQ %s, %s, %s", limb("DX", k), z(k), z(k))
		}
	}
	carryStoreRet([5]int{0, 1, 2, 3, 4}, [5]int{5, 6, 7, 8, 9})
}

func cpu() {
	p("// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)")
	p("TEXT ·cpuid(SB), NOSPLIT, $0-24")
	p("\tMOVL leaf+0(FP), AX")
	p("\tMOVL subleaf+4(FP), CX")
	p("\tCPUID")
	p("\tMOVL AX, eax+8(FP)")
	p("\tMOVL BX, ebx+12(FP)")
	p("\tMOVL CX, ecx+16(FP)")
	p("\tMOVL DX, edx+20(FP)")
	p("\tRET")
	p("")
	p("// func xgetbv() (eax, edx uint32)")
	p("//")
	p("// XCR0: which register state the operating system saves and restores.")
	p("TEXT ·xgetbv(SB), NOSPLIT, $0-8")
	p("\tXORL CX, CX")
	p("\tXGETBV")
	p("\tMOVL AX, eax+0(FP)")
	p("\tMOVL DX, edx+4(FP)")
	p("\tRET")
}
