//go:build ignore

// Command gcm_gen writes gcm_amd64.s: AES-128-GCM over one envelope per
// call on AES-NI and PCLMULQDQ, with nothing kept between calls.
//
//	go run gcm_gen.go > gcm_amd64.s
//
// gcmAES128 expands the key into XMM registers (AESKEYGENASSIST), encrypts
// the zero block for the hash key H and the pre-counter block J0 for the tag
// mask, runs CTR from inc32(J0) four blocks at a time with a partial last
// block, and GHASHes the AAD, the ciphertext and the length block with
// PCLMULQDQ, one block per multiplication. A seal encrypts first and hashes
// its output; an open hashes its input first, so that dst may be src. The
// GHASH arithmetic is crypto/cipher's on amd64: the field is kept
// byte-reflected (PSHUFB), H is multiplied by x once so that a carry-less
// product needs no shift, and a Karatsuba product is reduced in two
// PCLMULQDQ folds by the constant gcmPoly.
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

func x(i int) string { return fmt.Sprintf("X%d", i) }

// Frame layout (bytes above SP): the tail buffer a partial block is staged
// in, E_K(0) and E_K(J0), J0 itself, and the round keys an open saves
// while it hashes.
const (
	offTail = 0
	offH    = 16
	offEJ0  = 32
	offJ0   = 48
	offKeys = 64
	frame   = offKeys + 11*16
)

// Registers. The round keys live in X0-X10 while AES runs; GHASH reuses the
// low registers once they are saved or spent.
const (
	xCtr   = 15 // J0, whose dword 3 every counter block replaces
	xAcc   = 0  // GHASH: the running hash
	xHash  = 1  //        H·x
	xHashK = 2  //        H·x's halves XORed, Karatsuba's middle operand
	xPoly  = 3  //        gcmPoly
	xSwap  = 4  //        bswapMask
	xT     = 5  //        X5-X8: temporaries of a multiplication
)

// rcon is AES-128's round constants.
var rcon = [10]int{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

func main() {
	p("// Code generated by gcm_gen.go. DO NOT EDIT.")
	p("")
	p("//go:build amd64 && !purego")
	p("")
	p(`#include "textflag.h"`)
	p("")
	p("DATA bswapMask<>+0(SB)/8, $0x08090a0b0c0d0e0f")
	p("DATA bswapMask<>+8(SB)/8, $0x0001020304050607")
	p("GLOBL bswapMask<>(SB), RODATA|NOPTR, $16")
	p("")
	p("DATA gcmPoly<>+0(SB)/8, $0x0000000000000001")
	p("DATA gcmPoly<>+8(SB)/8, $0xc200000000000000")
	p("GLOBL gcmPoly<>(SB), RODATA|NOPTR, $16")
	p("")
	p("// func gcmAES128(key *[16]byte, nonce *[12]byte, dst, src, aad []byte, tag *[16]byte, open bool)")
	p("//")
	p("// dst[:len(src)] = CTR(src) and *tag = the GCM tag over aad and the")
	p("// ciphertext: dst when sealing, src when opening. dst may be src.")
	p("TEXT ·gcmAES128(SB), NOSPLIT, $%d-97", frame)
	p("\tLEAQ %d(SP), R11", offTail)
	p("\tMOVQ key+0(FP), AX")
	p("\tMOVOU (AX), X0")
	expandKey()
	p("\t// J0 = nonce || 1; H = E_K(0)")
	p("\tMOVQ nonce+8(FP), AX")
	p("\tMOVQ (AX), %s", x(xCtr))
	p("\tMOVL 8(AX), BX")
	p("\tPINSRD $2, BX, %s", x(xCtr))
	p("\tMOVL $0x01000000, BX")
	p("\tPINSRD $3, BX, %s", x(xCtr))
	p("\tMOVOU %s, %d(R11)", x(xCtr), offJ0)
	p("\tPXOR X11, X11")
	p("\tMOVOU %s, X12", x(xCtr))
	encrypt(11, 12)
	p("\tMOVOU X11, %d(R11)", offH)
	p("\tMOVOU X12, %d(R11)", offEJ0)
	p("\tMOVBLZX open+96(FP), AX")
	p("\tTESTQ AX, AX")
	p("\tJNZ opening")
	p("\t// seal: encrypt, then hash the ciphertext")
	ctr("seal")
	ghash("seal", "dst_base+16(FP)")
	p("\tRET")
	p("opening:")
	p("\t// open: hash the ciphertext, then decrypt")
	for i := 0; i <= 10; i++ {
		p("\tMOVOU %s, %d(R11)", x(i), offKeys+16*i)
	}
	ghash("open", "src_base+40(FP)")
	for i := 0; i <= 10; i++ {
		p("\tMOVOU %d(R11), %s", offKeys+16*i, x(i))
	}
	ctr("open")
	p("\tRET")
	if _, err := os.Stdout.Write(out.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// expandKey writes AES-128's key schedule from the key in X0 into X1-X10:
// round key r is round key r-1 with each word XORed into every word after
// it, XORed with SubWord(RotWord(w3)) ^ rcon broadcast.
func expandKey() {
	p("\t// key schedule into X0-X10")
	for r := 1; r <= 10; r++ {
		prev, cur := x(r-1), x(r)
		p("\tAESKEYGENASSIST $0x%02x, %s, X13", rcon[r-1], prev)
		p("\tPSHUFD $0xff, X13, X13")
		p("\tMOVOU %s, %s", prev, cur)
		p("\tMOVOU %s, X14", prev)
		for i := 0; i < 3; i++ {
			p("\tPSLLDQ $4, X14")
			p("\tPXOR X14, %s", cur)
		}
		p("\tPXOR X13, %s", cur)
	}
}

// encrypt runs AES-128 over the blocks in the given registers, interleaved
// round by round, with the round keys in X0-X10.
func encrypt(regs ...int) {
	for _, b := range regs {
		p("\tPXOR X0, %s", x(b))
	}
	for r := 1; r < 10; r++ {
		for _, b := range regs {
			p("\tAESENC %s, %s", x(r), x(b))
		}
	}
	for _, b := range regs {
		p("\tAESENCLAST X10, %s", x(b))
	}
}

// counter sets register b to the counter block for the 32-bit counter in
// R8 and steps R8.
func counter(b int) {
	p("\tMOVL R8, BX")
	p("\tBSWAPL BX")
	p("\tPINSRD $3, BX, %s", x(xCtr))
	p("\tMOVOU %s, %s", x(xCtr), x(b))
	p("\tINCL R8")
}

// ctr writes CTR mode from inc32(J0): dst = src ^ keystream, four blocks a
// pass while four remain, then single blocks, then the tail through the
// tail buffer.
func ctr(pfx string) {
	p("\tMOVQ src_base+40(FP), SI")
	p("\tMOVQ src_len+48(FP), CX")
	p("\tMOVQ dst_base+16(FP), DI")
	p("\tMOVL $2, R8")
	p("%s_ctr4:", pfx)
	p("\tCMPQ CX, $64")
	p("\tJB %s_ctr1", pfx)
	for b := 11; b <= 14; b++ {
		counter(b)
	}
	encrypt(11, 12, 13, 14)
	for i, b := range []int{11, 12, 13, 14} {
		p("\tMOVOU %d(SI), %s", 16*i, x(xCtr))
		p("\tPXOR %s, %s", x(xCtr), x(b))
		p("\tMOVOU %s, %d(DI)", x(b), 16*i)
	}
	p("\tMOVOU %d(R11), %s", offJ0, x(xCtr))
	p("\tADDQ $64, SI")
	p("\tADDQ $64, DI")
	p("\tSUBQ $64, CX")
	p("\tJMP %s_ctr4", pfx)
	p("%s_ctr1:", pfx)
	p("\tCMPQ CX, $16")
	p("\tJB %s_ctrTail", pfx)
	counter(11)
	encrypt(11)
	p("\tMOVOU (SI), X12")
	p("\tPXOR X12, X11")
	p("\tMOVOU X11, (DI)")
	p("\tADDQ $16, SI")
	p("\tADDQ $16, DI")
	p("\tSUBQ $16, CX")
	p("\tJMP %s_ctr1", pfx)
	p("%s_ctrTail:", pfx)
	p("\tTESTQ CX, CX")
	p("\tJZ %s_ctrDone", pfx)
	counter(11)
	encrypt(11)
	loadTail(pfx+"_ctrIn", "SI", 12)
	p("\tPXOR X12, X11")
	storeTail(pfx+"_ctrOut", 11, "DI")
	p("%s_ctrDone:", pfx)
}

// tailSteps are the power-of-two pieces a tail of 1-15 bytes is moved in,
// widest first, so no byte past the slice is touched.
var tailSteps = []struct {
	n   int
	mov string
}{{8, "MOVQ"}, {4, "MOVL"}, {2, "MOVW"}, {1, "MOVB"}}

// loadTail loads the CX (1-15) bytes at ptr into register b, zero-padded,
// through the tail buffer.
func loadTail(label, ptr string, b int) {
	p("\tPXOR %s, %s", x(b), x(b))
	p("\tMOVOU %s, %d(R11)", x(b), offTail)
	moveTail(label, ptr, "R11")
	p("\tMOVOU %d(R11), %s", offTail, x(b))
}

// storeTail stores the first CX (1-15) bytes of register b at ptr through
// the tail buffer.
func storeTail(label string, b int, ptr string) {
	p("\tMOVOU %s, %d(R11)", x(b), offTail)
	moveTail(label, "R11", ptr)
}

// moveTail copies CX (1-15) bytes from (from) to (to); DX is the offset.
func moveTail(label, from, to string) {
	p("\tXORQ DX, DX")
	for _, s := range tailSteps {
		p("\tTESTQ $%d, CX", s.n)
		p("\tJZ %s%d", label, s.n)
		p("\t%s (%s)(DX*1), AX", s.mov, from)
		p("\t%s AX, (%s)(DX*1)", s.mov, to)
		if s.n > 1 {
			p("\tADDQ $%d, DX", s.n)
		}
		p("%s%d:", label, s.n)
	}
}

// ghash writes GHASH over aad and the len(src) bytes of ciphertext at the
// argument ct, then the length block, and stores the tag: the hash,
// byte-swapped back, XORed with E_K(J0).
func ghash(pfx, ct string) {
	acc, h, hk, poly, swap := x(xAcc), x(xHash), x(xHashK), x(xPoly), x(xSwap)
	t0, t1 := x(xT), x(xT+1)
	p("\tMOVOU bswapMask<>(SB), %s", swap)
	p("\tMOVOU gcmPoly<>(SB), %s", poly)
	p("\t// H·x, and its halves XORed")
	p("\tMOVOU %d(R11), %s", offH, h)
	p("\tPSHUFB %s, %s", swap, h)
	p("\tPSHUFD $0xff, %s, %s", h, t0)
	p("\tMOVOU %s, %s", h, t1)
	p("\tPSRAL $31, %s", t0)
	p("\tPAND %s, %s", poly, t0)
	p("\tPSRLL $31, %s", t1)
	p("\tPSLLDQ $4, %s", t1)
	p("\tPSLLL $1, %s", h)
	p("\tPXOR %s, %s", t0, h)
	p("\tPXOR %s, %s", t1, h)
	p("\tPSHUFD $0x4e, %s, %s", h, hk)
	p("\tPXOR %s, %s", h, hk)
	p("\tPXOR %s, %s", acc, acc)
	p("\tMOVQ aad_base+64(FP), SI")
	p("\tMOVQ aad_len+72(FP), CX")
	blocks(pfx + "_aad")
	p("\tMOVQ %s, SI", ct)
	p("\tMOVQ src_len+48(FP), CX")
	blocks(pfx + "_ct")
	p("\t// the length block: bit lengths, AAD's in the high half once swapped")
	p("\tMOVQ src_len+48(FP), AX")
	p("\tSHLQ $3, AX")
	p("\tMOVQ aad_len+72(FP), BX")
	p("\tSHLQ $3, BX")
	p("\tMOVQ AX, %s", t0)
	p("\tPINSRQ $1, BX, %s", t0)
	p("\tPXOR %s, %s", t0, acc)
	mul()
	p("\tPSHUFB %s, %s", swap, acc)
	p("\tMOVOU %d(R11), %s", offEJ0, t0)
	p("\tPXOR %s, %s", t0, acc)
	p("\tMOVQ tag+88(FP), AX")
	p("\tMOVOU %s, (AX)", acc)
}

// blocks hashes the CX bytes at SI into the accumulator, a zero-padded
// tail last.
func blocks(pfx string) {
	acc, swap, t0 := x(xAcc), x(xSwap), x(xT)
	p("%s_loop:", pfx)
	p("\tCMPQ CX, $16")
	p("\tJB %s_tail", pfx)
	p("\tMOVOU (SI), %s", t0)
	p("\tPSHUFB %s, %s", swap, t0)
	p("\tPXOR %s, %s", t0, acc)
	mul()
	p("\tADDQ $16, SI")
	p("\tSUBQ $16, CX")
	p("\tJMP %s_loop", pfx)
	p("%s_tail:", pfx)
	p("\tTESTQ CX, CX")
	p("\tJZ %s_done", pfx)
	loadTail(pfx+"_in", "SI", xT)
	p("\tPSHUFB %s, %s", swap, t0)
	p("\tPXOR %s, %s", t0, acc)
	mul()
	p("%s_done:", pfx)
}

// mul sets the accumulator to accumulator · H in GF(2^128): a Karatsuba
// carry-less product, lo·lo and hi·hi and the middle term folded into them,
// then two folds by gcmPoly's high half reduce the 256-bit product.
func mul() {
	acc, h, hk, poly := x(xAcc), x(xHash), x(xHashK), x(xPoly)
	lo, hi, mid, t := x(xT), x(xT+1), x(xT+2), x(xT+3)
	p("\tMOVOU %s, %s", h, lo)
	p("\tMOVOU %s, %s", h, hi)
	p("\tPCLMULQDQ $0x00, %s, %s", acc, lo)
	p("\tPCLMULQDQ $0x11, %s, %s", acc, hi)
	p("\tPSHUFD $0x4e, %s, %s", acc, t)
	p("\tPXOR %s, %s", acc, t)
	p("\tMOVOU %s, %s", hk, mid)
	p("\tPCLMULQDQ $0x00, %s, %s", t, mid)
	p("\tPXOR %s, %s", lo, mid)
	p("\tPXOR %s, %s", hi, mid)
	p("\tMOVOU %s, %s", mid, t)
	p("\tPSRLDQ $8, %s", mid)
	p("\tPSLLDQ $8, %s", t)
	p("\tPXOR %s, %s", mid, hi)
	p("\tPXOR %s, %s", t, lo)
	for i := 0; i < 2; i++ {
		p("\tMOVOU %s, %s", poly, t)
		p("\tPCLMULQDQ $0x01, %s, %s", lo, t)
		p("\tPSHUFD $0x4e, %s, %s", lo, lo)
		p("\tPXOR %s, %s", t, lo)
	}
	p("\tPXOR %s, %s", hi, lo)
	p("\tMOVOU %s, %s", lo, acc)
}
