//go:build ignore

// Command sha256x16_gen writes sha256x16_amd64.s: SHA-256 over sixteen
// independent messages at once on AVX-512F, one ZMM register per message
// word (sixteen lanes of 32 bits), and the envelope key derivation built on
// it.
//
//	go run sha256x16_gen.go > sha256x16_amd64.s
//
// One compression, block<>, is written out round by round and called by
// both kernels: sha256x16 runs it over n lane-major blocks (the kernel the
// compression is tested through), and hkdf16 runs the eleven compressions of
// one HKDF-SHA256 key derivation — five dependent hashes — for sixteen
// derivations, with the HMAC pads XORed into the keys in registers. The
// kernels use AVX512F alone (VPRORD, VPTERNLOGD, broadcast operands).
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

// Register roles inside block<>: the sixteen schedule words W[t mod 16] in
// Z0-Z15, the working variables a-h in Z16-Z23 (the chaining value between
// compressions), and temporaries above.
const (
	zW     = 0
	zState = 16
	zT0    = 24 // Σ and Ch/Maj temporaries of a round
	zS0    = 27 // σ temporaries of the schedule
)

// Byte offsets into hkdfLanes (keylanes.go): eight 1024-byte lane blocks,
// the feed-forward copy and the output key words.
const (
	laneBlock = 16 * 64
	offSalt   = 0 * laneBlock // three blocks
	offSecret = 3 * laneBlock
	offIpad   = 4 * laneBlock
	offOpad   = 5 * laneBlock
	offDigest = 6 * laneBlock
	offInfo   = 7 * laneBlock
	offSave   = 8 * laneBlock
	offKey    = offSave + 8*64
)

var k256 = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

var iv = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

func main() {
	p("// Code generated by sha256x16_gen.go. DO NOT EDIT.")
	p("")
	p("//go:build amd64 && !purego")
	p("")
	p(`#include "textflag.h"`)
	p("")
	p("// Sixteen SHA-256 computations at once: row w of a lane block (64 bytes,")
	p("// one ZMM register) holds message word w of all sixteen lanes, as")
	p("// big-endian words. See keylanes.go for the layout of hkdfLanes.")
	p("")
	table("sha256k", k256[:])
	table("sha256iv", iv[:])
	table("hmacpads", []uint32{0x36363636, 0x5c5c5c5c})
	block()
	blocks()
	hkdf()
	if _, err := os.Stdout.Write(out.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func table(name string, ws []uint32) {
	for i, w := range ws {
		p("DATA %s<>+%d(SB)/4, $0x%08x", name, 4*i, w)
	}
	p("GLOBL %s<>(SB), RODATA|NOPTR, $%d", name, 4*len(ws))
	p("")
}

// block writes the compression: the chaining value in Z16-Z23 is updated
// with the lane block at SI, and the 512 bytes at DX hold the chaining value
// for the feed-forward. Every register below Z30 is clobbered.
func block() {
	p("// block<> compresses the lane block at (SI) into the chaining value in")
	p("// Z16-Z23; (DX) is 512 bytes of scratch for the feed-forward.")
	p("TEXT block<>(SB), NOSPLIT|NOFRAME, $0")
	for i := 0; i < 8; i++ {
		p("\tVMOVDQU32 %s, %d(DX)", z(zState+i), 64*i)
	}
	for w := 0; w < 16; w++ {
		p("\tVMOVDQU32 %d(SI), %s", 64*w, z(zW+w))
	}
	v := [8]int{} // registers of a, b, c, d, e, f, g, h
	for i := range v {
		v[i] = zState + i
	}
	for t := 0; t < 64; t++ {
		if t >= 16 {
			schedule(t)
		}
		round(t, v)
		// h now holds the new a and d the new e.
		v = [8]int{v[7], v[0], v[1], v[2], v[3], v[4], v[5], v[6]}
	}
	for i := 0; i < 8; i++ {
		p("\tVPADDD %d(DX), %s, %s", 64*i, z(zState+i), z(zState+i))
	}
	p("\tRET")
	p("")
}

// schedule computes W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16] in
// the register that held W[t-16].
func schedule(t int) {
	w := func(i int) string { return z(zW + (t-i)%16) }
	s0, s1, s2 := z(zS0), z(zS0+1), z(zS0+2)
	p("\tVPRORD $7, %s, %s", w(15), s0)
	p("\tVPRORD $18, %s, %s", w(15), s1)
	p("\tVPSRLD $3, %s, %s", w(15), s2)
	p("\tVPTERNLOGD $0x96, %s, %s, %s", s2, s1, s0)
	p("\tVPADDD %s, %s, %s", s0, w(16), w(16))
	p("\tVPRORD $17, %s, %s", w(2), s0)
	p("\tVPRORD $19, %s, %s", w(2), s1)
	p("\tVPSRLD $10, %s, %s", w(2), s2)
	p("\tVPTERNLOGD $0x96, %s, %s, %s", s2, s1, s0)
	p("\tVPADDD %s, %s, %s", s0, w(16), w(16))
	p("\tVPADDD %s, %s, %s", w(7), w(16), w(16))
}

// round is SHA-256 round t over the registers v = a..h: h becomes
// T1 + T2 (the new a) and d becomes d + T1 (the new e). VPTERNLOGD's
// immediate is the truth table of (dst, src2, src3): 0x96 is a three-way
// XOR, 0xca is Ch (dst ? src2 : src3) and 0xe8 is Maj.
func round(t int, v [8]int) {
	a, b, c, d, e, f, g, h := z(v[0]), z(v[1]), z(v[2]), z(v[3]), z(v[4]), z(v[5]), z(v[6]), z(v[7])
	t0, t1, t2 := z(zT0), z(zT0+1), z(zT0+2)
	p("\tVPADDD.BCST sha256k<>+%d(SB), %s, %s", 4*t, h, h)
	p("\tVPADDD %s, %s, %s", z(zW+t%16), h, h)
	p("\tVPRORD $6, %s, %s", e, t0)
	p("\tVPRORD $11, %s, %s", e, t1)
	p("\tVPRORD $25, %s, %s", e, t2)
	p("\tVPTERNLOGD $0x96, %s, %s, %s", t2, t1, t0)
	p("\tVPADDD %s, %s, %s", t0, h, h)
	p("\tVMOVDQA32 %s, %s", e, t1)
	p("\tVPTERNLOGD $0xca, %s, %s, %s", g, f, t1)
	p("\tVPADDD %s, %s, %s", t1, h, h)
	p("\tVPADDD %s, %s, %s", h, d, d)
	p("\tVPRORD $2, %s, %s", a, t0)
	p("\tVPRORD $13, %s, %s", a, t1)
	p("\tVPRORD $22, %s, %s", a, t2)
	p("\tVPTERNLOGD $0x96, %s, %s, %s", t2, t1, t0)
	p("\tVPADDD %s, %s, %s", t0, h, h)
	p("\tVMOVDQA32 %s, %s", a, t1)
	p("\tVPTERNLOGD $0xe8, %s, %s, %s", c, b, t1)
	p("\tVPADDD %s, %s, %s", t1, h, h)
}

func initState() {
	for i := 0; i < 8; i++ {
		p("\tVPBROADCASTD sha256iv<>+%d(SB), %s", 4*i, z(zState+i))
	}
}

func call(off int) {
	p("\tLEAQ %d(DI), SI", off)
	p("\tCALL block<>(SB)")
}

// blocks writes sha256x16: n blocks into sixteen chaining values.
func blocks() {
	p("// func sha256x16(h *[8][16]uint32, blocks *[16][16]uint32, n int)")
	p("//")
	p("// h holds sixteen chaining values, word-major; blocks points at n")
	p("// consecutive lane blocks.")
	p("TEXT ·sha256x16(SB), 0, $512-24")
	p("\tMOVQ h+0(FP), DI")
	p("\tMOVQ blocks+8(FP), SI")
	p("\tMOVQ n+16(FP), CX")
	p("\tMOVQ SP, DX")
	for i := 0; i < 8; i++ {
		p("\tVMOVDQU32 %d(DI), %s", 64*i, z(zState+i))
	}
	p("\tTESTQ CX, CX")
	p("\tJZ done")
	p("loop:")
	p("\tCALL block<>(SB)")
	p("\tADDQ $%d, SI", laneBlock)
	p("\tDECQ CX")
	p("\tJNZ loop")
	p("done:")
	for i := 0; i < 8; i++ {
		p("\tVMOVDQU32 %s, %d(DI)", z(zState+i), 64*i)
	}
	p("\tVZEROUPPER")
	p("\tRET")
	p("")
}

// padKey writes the HMAC key in Z16-Z23 (a 32-byte key: words 8-15 of the
// pad blocks are the pads alone, preset by the Go side) XORed with ipad
// and opad into rows 0-7 of the ipad and opad blocks.
func padKey() {
	ipad, opad, tmp := z(zT0), z(zT0+1), z(zT0+2)
	p("\tVPBROADCASTD hmacpads<>+0(SB), %s", ipad)
	p("\tVPBROADCASTD hmacpads<>+4(SB), %s", opad)
	for i := 0; i < 8; i++ {
		p("\tVPXORD %s, %s, %s", ipad, z(zState+i), tmp)
		p("\tVMOVDQU32 %s, %d(DI)", tmp, offIpad+64*i)
		p("\tVPXORD %s, %s, %s", opad, z(zState+i), tmp)
		p("\tVMOVDQU32 %s, %d(DI)", tmp, offOpad+64*i)
	}
}

// storeDigest writes the first words of the chaining value to rows of the
// block at off.
func storeDigest(off, words int) {
	for i := 0; i < words; i++ {
		p("\tVMOVDQU32 %s, %d(DI)", z(zState+i), off+64*i)
	}
}

// hkdf writes hkdf16. With K = SHA-256(salt) (the salt is longer than a
// block), PRK = HMAC(K, secret) and OKM = HMAC(PRK, info || 0x01), each HMAC
// is two hashes of two blocks: H(key^ipad || msg) and H(key^opad || inner).
func hkdf() {
	p("// func hkdf16(l *hkdfLanes)")
	p("//")
	p("// Sixteen HKDF-SHA256 derivations, eleven compressions each: the salt's")
	p("// hash (three blocks), then HMAC(K, secret) and HMAC(PRK, info||1), two")
	p("// blocks per hash. The first four words of each OKM go to l.key.")
	p("TEXT ·hkdf16(SB), NOSPLIT, $0-8")
	p("\tMOVQ l+0(FP), DI")
	p("\tLEAQ %d(DI), DX", offSave)
	p("\t// K = SHA-256(ephPub || rcptPub)")
	initState()
	for i := 0; i < 3; i++ {
		call(offSalt + i*laneBlock)
	}
	padKey()
	p("\t// PRK = HMAC(K, secret)")
	initState()
	call(offIpad)
	call(offSecret)
	storeDigest(offDigest, 8)
	initState()
	call(offOpad)
	call(offDigest)
	padKey()
	p("\t// OKM = HMAC(PRK, info || 0x01)")
	initState()
	call(offIpad)
	call(offInfo)
	storeDigest(offDigest, 8)
	initState()
	call(offOpad)
	call(offDigest)
	storeDigest(offKey, 4)
	p("\tVZEROUPPER")
	p("\tRET")
}
