// Package gf128 implements arithmetic in the finite field GF(2^128) with the
// reduction polynomial x^128 + x^7 + x^2 + x + 1 (the AES-GCM-SIV/POLYVAL
// polynomial orientation). It is the algebraic substrate for the Shamir
// secret sharing used by Prochlo's secret-share encoder (§4.2): field
// elements are exactly 16 bytes, so a 128-bit AES key can be shared without
// any encoding overhead.
//
// The implementation is constant-size (no big.Int) and allocation-free; it is
// not constant-time, which is acceptable here because shares are secret only
// until threshold-many reports arrive, and the simulator is not defending
// against local timing attacks.
package gf128

import "encoding/binary"

// Elem is an element of GF(2^128). The zero value is the additive identity.
// Bit i of the polynomial is bit (i mod 64) of word i/64, i.e. Lo holds
// x^0..x^63 and Hi holds x^64..x^127.
type Elem struct {
	Lo, Hi uint64
}

// Zero and One are the additive and multiplicative identities.
var (
	Zero = Elem{}
	One  = Elem{Lo: 1}
)

// reduction constant for x^128 = x^7 + x^2 + x + 1.
const polyLow = 0x87

// FromBytes interprets a 16-byte little-endian value as a field element.
func FromBytes(b [16]byte) Elem {
	return Elem{
		Lo: binary.LittleEndian.Uint64(b[0:8]),
		Hi: binary.LittleEndian.Uint64(b[8:16]),
	}
}

// Bytes returns the 16-byte little-endian encoding of e.
func (e Elem) Bytes() [16]byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], e.Lo)
	binary.LittleEndian.PutUint64(b[8:16], e.Hi)
	return b
}

// IsZero reports whether e is the additive identity.
func (e Elem) IsZero() bool { return e.Lo == 0 && e.Hi == 0 }

// Add returns e + f, which in characteristic 2 is XOR. Subtraction is
// identical to addition.
func (e Elem) Add(f Elem) Elem {
	return Elem{Lo: e.Lo ^ f.Lo, Hi: e.Hi ^ f.Hi}
}

// double returns e multiplied by x (a left shift with reduction).
func (e Elem) double() Elem {
	carry := e.Hi >> 63
	hi := e.Hi<<1 | e.Lo>>63
	lo := e.Lo << 1
	if carry != 0 {
		lo ^= polyLow
	}
	return Elem{Lo: lo, Hi: hi}
}

// Mul returns the product e*f in GF(2^128).
func (e Elem) Mul(f Elem) Elem {
	// Russian-peasant multiplication: accumulate shifted copies of e for
	// each set bit of f, reducing as we go. 128 iterations.
	var p Elem
	a := e
	lo, hi := f.Lo, f.Hi
	for i := 0; i < 64; i++ {
		if lo&1 != 0 {
			p.Lo ^= a.Lo
			p.Hi ^= a.Hi
		}
		lo >>= 1
		a = a.double()
	}
	for i := 0; i < 64; i++ {
		if hi&1 != 0 {
			p.Lo ^= a.Lo
			p.Hi ^= a.Hi
		}
		hi >>= 1
		a = a.double()
	}
	return p
}

// Square returns e*e. Squaring is a linear operation in characteristic 2 and
// is implemented by bit interleaving, which is faster than a general Mul.
func (e Elem) Square() Elem {
	// Spread the low 64 bits into 128 bits (each bit moves to position 2i),
	// then reduce the high part.
	l0, l1 := spread(e.Lo)
	h0, h1 := spread(e.Hi)
	// Result before reduction: [l0, l1, h0, h1] as a 256-bit value.
	// Reduce words 2 and 3 (x^128..x^255) using x^128 = x^7+x^2+x+1.
	return reduce256(l0, l1, h0, h1)
}

// spread inserts a zero bit between consecutive bits of x, returning the low
// and high 64-bit halves of the 128-bit result.
func spread(x uint64) (lo, hi uint64) {
	return interleaveZeros(uint32(x)), interleaveZeros(uint32(x >> 32))
}

// interleaveZeros spaces the 32 bits of x into the even bit positions of a
// 64-bit word.
func interleaveZeros(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// reduce256 reduces a 256-bit polynomial (w0 lowest) modulo the field
// polynomial.
func reduce256(w0, w1, w2, w3 uint64) Elem {
	// Multiply the high 128 bits by (x^7 + x^2 + x + 1) and fold into the
	// low 128 bits: word w2 (bits 128..191) folds into bits 0.. shifted by
	// {0,1,2,7}; w3 folds into bits 64.. likewise. Bits of w3 shifted past
	// position 128 (at most 7 of them) wrap around through the polynomial
	// once more; that second fold cannot overflow again.
	var lo, hi uint64
	lo, hi = w0, w1
	for _, s := range [4]uint{0, 1, 2, 7} {
		lo ^= w2 << s
		if s != 0 {
			hi ^= w2 >> (64 - s)
		}
		hi ^= w3 << s
		if s != 0 {
			// Bits of w3 shifted past 128 wrap around again.
			over := w3 >> (64 - s) // bits 128.. of the fold
			lo ^= over
			lo ^= over << 1
			lo ^= over << 2
			lo ^= over << 7
		}
	}
	return Elem{Lo: lo, Hi: hi}
}

// Inv returns the multiplicative inverse of e, computed as e^(2^128 - 2) by
// Fermat's little theorem. Inv of the zero element returns zero.
func (e Elem) Inv() Elem {
	if e.IsZero() {
		return Zero
	}
	// 2^128 - 2 = sum of 2^i for i in 1..127.
	s := e
	r := One
	for i := 1; i < 128; i++ {
		s = s.Square()
		r = r.Mul(s)
	}
	return r
}

// Div returns e / f. Division by zero returns zero.
func (e Elem) Div(f Elem) Elem {
	return e.Mul(f.Inv())
}

// Pow returns e raised to the (unsigned 64-bit) power n.
func (e Elem) Pow(n uint64) Elem {
	r := One
	s := e
	for n != 0 {
		if n&1 != 0 {
			r = r.Mul(s)
		}
		s = s.Square()
		n >>= 1
	}
	return r
}

// FromUint64 lifts a 64-bit integer into the field.
func FromUint64(x uint64) Elem { return Elem{Lo: x} }
