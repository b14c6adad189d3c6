//go:build ignore

// Command fe25519x8_gen writes fe25519x8_amd64.s: the AVX-512 IFMA kernels
// under fe25519x8 (eight field elements per operation, one ZMM register per
// limb) and the CPUID/XGETBV stubs that decide at init whether they run.
//
//	go run fe25519x8_gen.go > fe25519x8_amd64.s
//
// Three kinds of kernel come out of the same field-operation bodies: one per
// field operation (fe8Mul, fe8Square, fe8Add, fe8Sub); one per point formula
// of the lane ladder (fe8Double, fe8AddNiels), which runs a formula's field
// operations back to back in one call, its temporaries in an array the
// caller provides; and the lane comb's whole pass (fe8Comb), a loop over
// comb positions that gathers each lane's table entry and runs the
// affine-Niels add formula.
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

// fe is the memory operand of one fe25519x8: a base register and a byte
// offset. An fe25519x8 is five 64-byte rows, so field n of a struct or
// array of them sits 320·n bytes in.
type fe struct {
	base string
	off  int
}

func at(base string, n int) fe { return fe{base, 320 * n} }

// limb is the memory operand of row i.
func (f fe) limb(i int) string { return fmt.Sprintf("%d(%s)", f.off+64*i, f.base) }

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
	p("// 2^11·p, limb by limb: what a point kernel's subtraction adds when its")
	p("// subtrahend is a product left uncarried (below 2^61.1, see foldCarryStore).")
	p("DATA fe8lazyP0<>+0(SB)/8, $0x3fffffffffff6800")
	p("GLOBL fe8lazyP0<>(SB), RODATA|NOPTR, $8")
	p("DATA fe8lazyP<>+0(SB)/8, $0x3ffffffffffff800")
	p("GLOBL fe8lazyP<>(SB), RODATA|NOPTR, $8")
	p("// 2p, limb by limb: what fe8Comb subtracts a negative entry's xy2d from.")
	p("DATA fe8twoP0<>+0(SB)/8, $0x000fffffffffffda")
	p("GLOBL fe8twoP0<>(SB), RODATA|NOPTR, $8")
	p("DATA fe8twoP<>+0(SB)/8, $0x000ffffffffffffe")
	p("GLOBL fe8twoP<>(SB), RODATA|NOPTR, $8")
	p("DATA fe8one<>+0(SB)/8, $1")
	p("GLOBL fe8one<>(SB), RODATA|NOPTR, $8")
	p("")
	fieldKernels()
	double()
	addNiels()
	comb()
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

func ret() {
	p("\tVZEROUPPER")
	p("\tRET")
	p("")
}

func load(f fe, first int) {
	for i := 0; i < 5; i++ {
		p("\tVMOVDQU64 %s, %s", f.limb(i), z(first+i))
	}
}

func store(r [5]int, f fe) {
	for k := 0; k < 5; k++ {
		p("\tVMOVDQU64 %s, %s", z(r[k]), f.limb(k))
	}
}

// times19 sets t = 19·t = t + 2t + 16t, with tmp0 and tmp1 as scratch.
func times19(t, tmp0, tmp1 int) {
	p("\tVPSLLQ $1, %s, %s", z(t), z(tmp0))
	p("\tVPSLLQ $4, %s, %s", z(t), z(tmp1))
	p("\tVPADDQ %s, %s, %s", z(tmp0), z(t), z(t))
	p("\tVPADDQ %s, %s, %s", z(tmp1), z(t), z(t))
}

// carry runs the one parallel carry pass over the five result limbs in r
// (limb k hands its bits above 51 to limb k+1, limb 4's wrap to limb 0
// times 19). c names five free registers.
func carry(r, c [5]int) {
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
}

// foldCarryStore finishes a product whose ten columns are in col:
// r_k = col[k] + 19·col[k+5], doubled when twice, then the carry pass and
// the store to dst — or, when lazy, the store alone. free names ten
// registers that are dead by now.
//
// Doubling after the fold costs five shifts where an fe8Add would cost a
// call: each folded limb is below 267·2^52, so twice that is below 2^61.1,
// and the carry pass still leaves every limb below 2^51 + 2^15 (carries
// below 2^10.1, the wrap-around one times 19 below 2^14.4).
//
// A lazy product skips its carry pass, and the point kernels leave lazy
// every product that feeds only an addition or a subtraction (fe8Double's
// A, B and C; fe8AddNiels's and fe8Comb's TT, PP and MM, and fe8AddNiels's
// ZZ): the sum or difference runs the carry pass anyway, and one pass
// carries both. The bound: an uncarried limb is below 267·2^52 < 2^60.1,
// or 2^61.1 doubled. A sum of two is below 2^62.1. A difference whose
// subtrahend is uncarried adds 2^11·p rather than 4p (addSub's lazyB):
// its limbs, 2^62 - 19·2^11 and 2^62 - 2^11, exceed any uncarried limb,
// so the difference stays non-negative, and below 2^61.1 + 2^62 < 2^62.7.
// Every limb a carry pass sees is so below 2^62.7: its carries are below
// 2^11.7, the wrap-around one times 19 below 2^16, and every output limb
// below 2^51 + 2^16 < 2^52, inside the multiply-adds' input bound. A
// product's own output keeps the 2^51 + 2^15 of a carried one.
func foldCarryStore(dst fe, col [10]int, free []int, twice, lazy bool) {
	for k := 0; k < 5; k++ {
		times19(col[k+5], free[0], free[1])
		p("\tVPADDQ %s, %s, %s", z(col[k+5]), z(col[k]), z(col[k]))
		// rotate the scratch pair so consecutive folds do not wait on
		// each other's temporaries
		free = append(free[2:], free[0], free[1])
	}
	r := [5]int{col[0], col[1], col[2], col[3], col[4]}
	if twice {
		for k := 0; k < 5; k++ {
			p("\tVPSLLQ $1, %s, %s", z(r[k]), z(r[k]))
		}
	}
	if !lazy {
		carry(r, [5]int{col[5], col[6], col[7], col[8], col[9]})
	}
	store(r, dst)
}

// mul emits dst = a·b, or 2·a·b when twice, uncarried when lazy.
//
// A limb product a_i·b_j is 104 bits; VPMADD52LUQ adds its low 52 bits to a
// column accumulator and VPMADD52HUQ its high 52. The low half sits at
// 2^(51(i+j)); the high half at 2^(51(i+j)+52) = 2·2^(51(i+j+1)), so column
// k of the product is L_k + 2·H_(k-1), and columns 5-9 fold onto 0-4 times
// 19 (2^255 = 19 mod p).
func mul(dst, a, b fe, twice, lazy bool) {
	// a: Z0-Z4, b: Z5-Z9, lo columns L0-L8: Z10-Z18, hi columns H0-H8:
	// Z19-Z27.
	L := func(k int) int { return 10 + k }
	H := func(k int) int { return 19 + k }
	load(a, 0)
	load(b, 5)
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
	foldCarryStore(dst, col, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, twice, lazy)
}

// square emits dst = a², or 2·a² when twice, uncarried when lazy: mul
// with the 10 symmetric products computed once, 30 multiply-adds for 50.
// The doubling of a cross product cannot go on an input (2·a_i may pass
// 2^52), so it goes on the sums: diagonal low halves carry weight 1, cross
// low halves and diagonal high halves weight 2, cross high halves weight 4.
func square(dst, a fe, twice, lazy bool) {
	// a: Z0-Z4. Three families of accumulators, by the weight their sum
	// carries in a column:
	//   W1_k (k even):   lo(a_i·a_i), k = 2i                  weight 1
	//   W2_k (k = 1..9): lo(a_i·a_j), k = i+j, and
	//                    hi(a_i·a_i), k = 2i+1                weight 2
	//   W4_k (k = 2..8): hi(a_i·a_j), k = i+j+1               weight 4
	// column k = W1_k + 2·(W2_k + 2·W4_k).
	W1 := func(k int) int { return 5 + k/2 }    // Z5-Z9
	W2 := func(k int) int { return 10 + k - 1 } // Z10-Z18
	W4 := func(k int) int { return 19 + k - 2 } // Z19-Z25
	load(a, 0)
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
	foldCarryStore(dst, col, []int{0, 1, 2, 3, 4, 6, 7, 8, 9, 19}, twice, lazy)
}

// addSub emits sum = a + b and diff = a - b, either of them when the other
// is nil, both carried: unlike the scalar path's addLazy/subLazy the carry
// pass cannot be skipped, because the multiply-adds read only the low 52
// bits of a limb. The difference adds 4p first, which keeps it
// non-negative for any subtrahend limb below 2^52, or 2^11·p when lazyB,
// for a subtrahend left uncarried by a lazy product (foldCarryStore).
func addSub(sum, diff *fe, a, b fe, lazyB bool) {
	load(a, 0)
	load(b, 5)
	if sum != nil {
		for k := 0; k < 5; k++ {
			p("\tVPADDQ %s, %s, %s", z(5+k), z(k), z(10+k))
		}
	}
	if diff != nil {
		multiple := "fe8fourP"
		if lazyB {
			multiple = "fe8lazyP"
		}
		p("\tVPBROADCASTQ %s0<>(SB), %s", multiple, z(zTmp0))
		p("\tVPBROADCASTQ %s<>(SB), %s", multiple, z(zTmp1))
		p("\tVPADDQ %s, %s, %s", z(zTmp0), z(0), z(0))
		for k := 1; k < 5; k++ {
			p("\tVPADDQ %s, %s, %s", z(zTmp1), z(k), z(k))
		}
		for k := 0; k < 5; k++ {
			p("\tVPSUBQ %s, %s, %s", z(5+k), z(k), z(k))
		}
	}
	if sum != nil {
		r := [5]int{10, 11, 12, 13, 14}
		carry(r, [5]int{15, 16, 17, 18, 19})
		store(r, *sum)
	}
	if diff != nil {
		r := [5]int{0, 1, 2, 3, 4}
		carry(r, [5]int{5, 6, 7, 8, 9})
		store(r, *diff)
	}
}

// kernel emits a TEXT header that loads each argument register from the
// frame, then the constants every body uses.
func kernel(name, sig string, frame int, args ...string) {
	p("// func %s%s", name, sig)
	p("TEXT ·%s(SB), NOSPLIT, $0-%d", name, frame)
	for i, a := range args {
		p("\tMOVQ %s+%d(FP), %s", a[:len(a)-3], 8*i, a[len(a)-2:])
	}
	constants()
}

func fieldKernels() {
	out, a, b := at("DI", 0), at("SI", 0), at("DX", 0)
	kernel("fe8Mul", "(out, a, b *fe25519x8)", 24, "out:DI", "a:SI", "b:DX")
	mul(out, a, b, false, false)
	ret()
	kernel("fe8Square", "(out, a *fe25519x8)", 16, "out:DI", "a:SI")
	square(out, a, false, false)
	ret()
	kernel("fe8Add", "(out, a, b *fe25519x8)", 24, "out:DI", "a:SI", "b:DX")
	addSub(&out, nil, a, b, false)
	ret()
	kernel("fe8Sub", "(out, a, b *fe25519x8)", 24, "out:DI", "a:SI", "b:DX")
	addSub(nil, &out, a, b, false)
	ret()
}

// The point kernels address edPointx8 {x, y, z, t}, projNielsx8 {yPlusX,
// yMinusX, z, t2d} and affineNielsx8 {yPlusX, yMinusX, xy2d} by field
// index, and their temporaries by index into tmp, a [7]fe25519x8;
// TestPointKernelLayout holds the Go types to these offsets.
const (
	fx, fy, fz, ft    = 0, 1, 2, 3
	nYPlusX, nYMinusX = 0, 1
	nZ, nT2d, nXY2d   = 2, 3, 2
)

// double emits fe8Double(p, q, tmp, needT): p = 2q in every lane,
// dbl-2008-hwcd for a = -1 as edPoint.double computes it, arranged for the
// lanes: E = 2XY and C = 2Z² come doubled out of the multiply, B+A and B-A
// out of one load, and every output coordinate is negated, which is the
// same projective point. A, B and C feed only B ± A and C - G, and are
// left lazy (foldCarryStore).
func double() {
	kernel("fe8Double", "(p, q *edPointx8, tmp *[7]fe25519x8, needT bool)", 25,
		"p:DI", "q:SI", "tmp:DX")
	p("\tMOVBLZX needT+24(FP), AX")
	q := func(f int) fe { return at("SI", f) }
	d := func(f int) fe { return at("DI", f) }
	t := func(i int) fe { return at("DX", i) }
	A, B, C, E, H, G, F := t(0), t(1), t(2), t(3), t(4), t(5), t(6)
	square(A, q(fx), false, true)
	square(B, q(fy), false, true)
	square(C, q(fz), true, true)
	mul(E, q(fx), q(fy), true, false)
	addSub(&H, &G, B, A, true)
	addSub(nil, &F, C, G, false)
	mul(d(fx), E, F, false, false)
	mul(d(fy), G, H, false, false)
	mul(d(fz), F, G, false, false)
	p("\tTESTQ AX, AX")
	p("\tJZ double_done")
	mul(d(ft), E, H, false, false)
	p("double_done:")
	ret()
}

// addNiels emits fe8AddNiels(p, q, n, tmp, sub): p = q + n in every lane,
// or q - n when sub, as edPoint.addProjNiels computes it, with 2·Z·Zn out
// of the multiply and each sum and difference of one pair out of one load.
// Subtraction swaps which entry row each of t1 and t2 multiplies and which
// of f and g takes the sum: both are pointer swaps (CMOV), so one body
// serves both signs. TT, PP, MM and ZZ feed only sums and differences, and
// are left lazy (foldCarryStore).
func addNiels() {
	kernel("fe8AddNiels", "(p, q *edPointx8, n *projNielsx8, tmp *[7]fe25519x8, sub bool)", 33,
		"p:DI", "q:SI", "n:DX", "tmp:CX")
	p("\tMOVBLZX sub+32(FP), AX")
	q := func(f int) fe { return at("SI", f) }
	d := func(f int) fe { return at("DI", f) }
	n := func(f int) fe { return at("DX", f) }
	t := func(i int) fe { return at("CX", i) }
	T1, T2, TT, PP, MM, ZZ, E := t(0), t(1), t(2), t(3), t(4), t(5), t(6)
	// H, F and G reuse slots whose values are dead by then
	H, F, G := t(0), t(1), t(3)
	// R8 multiplies t1 and R9 t2; R10 takes zz + tt and R11 zz - tt
	p("\tLEAQ %s, R8", n(nYPlusX).limb(0))
	p("\tLEAQ %s, R9", n(nYMinusX).limb(0))
	p("\tLEAQ %s, R10", G.limb(0))
	p("\tLEAQ %s, R11", F.limb(0))
	p("\tTESTQ AX, AX")
	p("\tMOVQ R8, R12")
	p("\tCMOVQNE R9, R8")
	p("\tCMOVQNE R12, R9")
	p("\tMOVQ R10, R12")
	p("\tCMOVQNE R11, R10")
	p("\tCMOVQNE R12, R11")
	sum, diff := at("R10", 0), at("R11", 0)
	addSub(&T1, &T2, q(fy), q(fx), false)
	mul(TT, q(ft), n(nT2d), false, true)
	mul(PP, T1, at("R8", 0), false, true)
	mul(MM, T2, at("R9", 0), false, true)
	mul(ZZ, q(fz), n(nZ), true, true)
	addSub(&H, &E, PP, MM, true)
	addSub(&sum, &diff, ZZ, TT, true)
	mul(d(fx), E, F, false, false)
	mul(d(fy), G, H, false, false)
	mul(d(fz), F, G, false, false)
	mul(d(ft), E, H, false, false)
	ret()
}

// edCombx8 as fe8Comb addresses it (TestPointKernelLayout): the
// accumulator is fe25519x8s 0-3, the signed entry 4-6 and the temporaries
// 7-13; then the lanes' table addresses, their row strides and the digits,
// eight per position.
const (
	combN          = 4
	combTmp        = 7
	combTables     = 14 * 320
	combStrides    = combTables + 64
	combDigits     = combStrides + 64
	combEntryBytes = 120 // affineNielsBytes: three fe25519s
)

// comb emits fe8Comb(s, positions), a whole lane-comb pass, one position per
// iteration. The gather builds lane i's entry address in Z22 as
// tables[i] + j·strides[i] + |d|·120 and reads 120 bytes below it, so a
// digit of magnitude v reads entry v-1; every gather is masked to the lanes
// with a non-zero digit (a gather clears its mask, hence the copy into K3
// each time) into registers preset to the identity entry. The negative
// lanes then swap y+x and y-x by blend and take xy2d from 2p, the entry is
// stored to s.n, and addAffine adds it to s.acc in place.
func comb() {
	kernel("fe8Comb", "(s *edCombx8, positions int)", 16, "s:DI", "positions:BX")
	s := func(i int) fe { return at("DI", i) }
	acc := func(f int) fe { return s(f) }
	n := func(f int) fe { return s(combN + f) }
	tmp := func(i int) fe { return s(combTmp + i) }
	p("\tXORQ AX, AX") // position j
	p("\tXORQ R8, R8") // the gathers' base: their indices are whole addresses
	p("\tLEAQ %d(DI), R9", combDigits)
	p("\tTESTQ BX, BX")
	p("\tJLE comb_done")
	p("comb_loop:")
	p("\tVPMOVSXBQ (R9), Z20")
	p("\tVPABSQ Z20, Z21")
	p("\tVPTESTMQ Z21, Z21, K1") // lanes whose digit is not zero
	p("\tVPMOVQ2M Z20, K2")      // lanes whose digit is negative
	p("\tVPBROADCASTQ AX, Z22")
	p("\tVPMULUDQ %d(DI), Z22, Z22", combStrides)
	p("\tVPADDQ %d(DI), Z22, Z22", combTables)
	p("\tVPSLLQ $7, Z21, Z23")
	p("\tVPSLLQ $3, Z21, Z21")
	p("\tVPSUBQ Z21, Z23, Z23")
	p("\tVPADDQ Z23, Z22, Z22")
	// y+x in Z0-Z4, y-x in Z5-Z9, xy2d in Z10-Z14, each the identity's
	p("\tVPBROADCASTQ fe8one<>(SB), Z0")
	p("\tVMOVDQA64 Z0, Z5")
	for r := 1; r < 15; r++ {
		if r != 5 {
			p("\tVPXORQ %s, %s, %s", z(r), z(r), z(r))
		}
	}
	for f := 0; f < 3; f++ {
		for l := 0; l < 5; l++ {
			p("\tKMOVW K1, K3")
			p("\tVPGATHERQQ %d(R8)(Z22*1), K3, %s", 40*f+8*l-combEntryBytes, z(5*f+l))
		}
	}
	for l := 0; l < 5; l++ {
		p("\tVPBLENDMQ %s, %s, K2, %s", z(5+l), z(l), z(15+l))
	}
	for l := 0; l < 5; l++ {
		p("\tVPBLENDMQ %s, %s, K2, %s", z(l), z(5+l), z(5+l))
	}
	p("\tVPBROADCASTQ fe8twoP0<>(SB), %s", z(zTmp0))
	p("\tVPBROADCASTQ fe8twoP<>(SB), %s", z(zTmp1))
	p("\tVPSUBQ Z10, %s, K2, Z10", z(zTmp0))
	for l := 1; l < 5; l++ {
		p("\tVPSUBQ %s, %s, K2, %s", z(10+l), z(zTmp1), z(10+l))
	}
	store([5]int{15, 16, 17, 18, 19}, n(nYPlusX))
	store([5]int{5, 6, 7, 8, 9}, n(nYMinusX))
	store([5]int{10, 11, 12, 13, 14}, n(nXY2d))
	addAffine(acc, acc, n, tmp)
	p("\tINCQ AX")
	p("\tADDQ $8, R9")
	p("\tCMPQ AX, BX")
	p("\tJLT comb_loop")
	p("comb_done:")
	ret()
}

// addAffine emits d = q + n for a signed comb entry n, as
// edPoint.addAffineNiels computes it; d may be q. TT, PP and MM feed only
// sums and differences, and are left lazy (foldCarryStore).
func addAffine(d, q, n, t func(int) fe) {
	T1, T2, TT, PP, MM, Z2, E := t(0), t(1), t(2), t(3), t(4), t(5), t(6)
	H, F, G := t(0), t(1), t(3)
	addSub(&T1, &T2, q(fy), q(fx), false)
	mul(TT, q(ft), n(nXY2d), false, true)
	mul(PP, T1, n(nYPlusX), false, true)
	mul(MM, T2, n(nYMinusX), false, true)
	addSub(&Z2, nil, q(fz), q(fz), false)
	addSub(&H, &E, PP, MM, true)
	addSub(&G, &F, Z2, TT, true)
	mul(d(fx), E, F, false, false)
	mul(d(fy), G, H, false, false)
	mul(d(fz), F, G, false, false)
	mul(d(ft), E, H, false, false)
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
