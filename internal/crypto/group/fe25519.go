// Radix-51 field arithmetic over GF(2^255 - 19), the base field of
// ristretto255. Five 51-bit limbs in uint64s leave headroom for lazy
// carries, and every public operation returns fully carried limbs (< 2^52),
// which keeps the bounds analysis trivial at a cost of a few nanoseconds per
// op. The multiplication kernel is the batch hot path: one extended-Edwards
// point operation is 7-9 of these, and an epoch-sized slice runs millions.
//
// Mul and Square exist in two build variants, selected by build constraint
// and nothing else. On amd64 they are the MULQ/ADCQ kernels of
// fe25519_amd64.s (baseline ISA, so they need no CPUID check); on every
// other GOARCH, and on amd64 under -tags purego, they are mulGeneric and
// squareGeneric below (fe25519_noasm.go). The two compute identical limbs,
// not merely identical field values, so nothing downstream can tell them
// apart. The eight-lane fe25519x8 of the batch ladder is a separate type
// with its own limb contract (fe25519x8_amd64.go); the dispatch rule for all
// three kernels is stated once, in group.go.
//
// Correctness is pinned three ways: TestFe25519Arithmetic cross-validates
// every operation against math/big on random and boundary inputs, the
// exponentiation-based inversion and square roots are checked against their
// big.Int counterparts, and FuzzFe25519Kernel holds Mul/Square, the generic
// bodies and math/big to each other on random inputs, on limbs pinned at the
// lazy bound, and under every aliasing of the operands.

package group

import (
	"math/big"
	"math/bits"
)

// fe25519 is a field element of GF(2^255-19): v = Σ limb[i]·2^(51i).
type fe25519 [5]uint64

const mask51 = (1 << 51) - 1

// p25519 is 2^255 - 19 as a big.Int, for the slow reference paths
// (inversion, constant generation).
var p25519 = func() *big.Int {
	p := new(big.Int).Lsh(big.NewInt(1), 255)
	return p.Sub(p, big.NewInt(19))
}()

// carry fully propagates carries, leaving every limb below 2^51 + epsilon
// (strictly: limb 0 may briefly hold up to 2^51 + 19·2^13; one more pass
// bounds all limbs under 2^52, which is the invariant ops rely on).
func (v *fe25519) carry() {
	c0 := v[0] >> 51
	c1 := v[1] >> 51
	c2 := v[2] >> 51
	c3 := v[3] >> 51
	c4 := v[4] >> 51
	v[0] = v[0]&mask51 + c4*19
	v[1] = v[1]&mask51 + c0
	v[2] = v[2]&mask51 + c1
	v[3] = v[3]&mask51 + c2
	v[4] = v[4]&mask51 + c3
}

// Zero sets v = 0.
func (v *fe25519) Zero() { *v = fe25519{} }

// One sets v = 1.
func (v *fe25519) One() { *v = fe25519{1, 0, 0, 0, 0} }

// Set sets v = a.
func (v *fe25519) Set(a *fe25519) { *v = *a }

// Add sets v = a + b.
func (v *fe25519) Add(a, b *fe25519) {
	v[0] = a[0] + b[0]
	v[1] = a[1] + b[1]
	v[2] = a[2] + b[2]
	v[3] = a[3] + b[3]
	v[4] = a[4] + b[4]
	v.carry()
}

// Sub sets v = a - b, adding 2p so limbs stay non-negative.
func (v *fe25519) Sub(a, b *fe25519) {
	v[0] = a[0] + (mask51+1)*2 - 38 - b[0]
	v[1] = a[1] + (mask51+1)*2 - 2 - b[1]
	v[2] = a[2] + (mask51+1)*2 - 2 - b[2]
	v[3] = a[3] + (mask51+1)*2 - 2 - b[3]
	v[4] = a[4] + (mask51+1)*2 - 2 - b[4]
	v.carry()
}

// Neg sets v = -a.
func (v *fe25519) Neg(a *fe25519) {
	var zero fe25519
	v.Sub(&zero, a)
}

// feLazyBits bounds the limbs Mul and Square accept: every input limb must
// be below 2^feLazyBits. The binding constraint is the limb-4 accumulator:
// five plain products of such limbs sum to 5·2^108, so the folded carry c4 is
// below 2^59.4 and c4*19 (< 2^63.6) plus limb 0's 51 bits stays inside a
// uint64; one more bit of input would wrap it. The widest accumulator, r0,
// holds 77·2^108 < 2^114.3 and its carry 2^63.3, also inside 64 bits. The
// same derivation, instruction by instruction, heads fe25519_amd64.s.
const feLazyBits = 54

// addLazy and subLazy are the carry-free variants of Add and Sub for the
// point-arithmetic hot paths. Skipping the carry pass is sound for one lazy
// level: with carried inputs (limbs < 2^51.01) a lazy add stays below
// 2^52.01 and a lazy sub below 2^52.6 (the 2p offset dominates), and one
// more add of such values stays below 2^53.3 — inside feLazyBits. Lazy
// subtrahends are NOT allowed: subLazy's 2p offset only covers carried
// (< 2^52-38) subtrahend limbs.
func (v *fe25519) addLazy(a, b *fe25519) {
	v[0] = a[0] + b[0]
	v[1] = a[1] + b[1]
	v[2] = a[2] + b[2]
	v[3] = a[3] + b[3]
	v[4] = a[4] + b[4]
}

// subLazy sets v = a - b without the carry pass; b must be fully carried.
func (v *fe25519) subLazy(a, b *fe25519) {
	v[0] = a[0] + (mask51+1)*2 - 38 - b[0]
	v[1] = a[1] + (mask51+1)*2 - 2 - b[1]
	v[2] = a[2] + (mask51+1)*2 - 2 - b[2]
	v[3] = a[3] + (mask51+1)*2 - 2 - b[3]
	v[4] = a[4] + (mask51+1)*2 - 2 - b[4]
}

// mul64 accumulation helper: returns (hi, lo) of a*b added into (h, l).
func addMul(h, l, a, b uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	var c uint64
	l, c = bits.Add64(l, lo, 0)
	h += hi + c
	return h, l
}

// mulGeneric sets v = a * b: 5x5 schoolbook with the high limbs pre-folded
// by 19, five 128-bit accumulators, then reduce128. It is Mul on every
// GOARCH but amd64 and under -tags purego, and the limb-for-limb reference
// the assembly kernel is tested against.
func (v *fe25519) mulGeneric(a, b *fe25519) {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	b0, b1, b2, b3, b4 := b[0], b[1], b[2], b[3], b[4]
	a1_19, a2_19, a3_19, a4_19 := a1*19, a2*19, a3*19, a4*19

	h0, l0 := bits.Mul64(a0, b0)
	h0, l0 = addMul(h0, l0, a1_19, b4)
	h0, l0 = addMul(h0, l0, a2_19, b3)
	h0, l0 = addMul(h0, l0, a3_19, b2)
	h0, l0 = addMul(h0, l0, a4_19, b1)

	h1, l1 := bits.Mul64(a0, b1)
	h1, l1 = addMul(h1, l1, a1, b0)
	h1, l1 = addMul(h1, l1, a2_19, b4)
	h1, l1 = addMul(h1, l1, a3_19, b3)
	h1, l1 = addMul(h1, l1, a4_19, b2)

	h2, l2 := bits.Mul64(a0, b2)
	h2, l2 = addMul(h2, l2, a1, b1)
	h2, l2 = addMul(h2, l2, a2, b0)
	h2, l2 = addMul(h2, l2, a3_19, b4)
	h2, l2 = addMul(h2, l2, a4_19, b3)

	h3, l3 := bits.Mul64(a0, b3)
	h3, l3 = addMul(h3, l3, a1, b2)
	h3, l3 = addMul(h3, l3, a2, b1)
	h3, l3 = addMul(h3, l3, a3, b0)
	h3, l3 = addMul(h3, l3, a4_19, b4)

	h4, l4 := bits.Mul64(a0, b4)
	h4, l4 = addMul(h4, l4, a1, b3)
	h4, l4 = addMul(h4, l4, a2, b2)
	h4, l4 = addMul(h4, l4, a3, b1)
	h4, l4 = addMul(h4, l4, a4, b0)

	v.reduce128(h0, l0, h1, l1, h2, l2, h3, l3, h4, l4)
}

// squareGeneric sets v = a * a, saving the symmetric half of the products;
// the portable counterpart of mulGeneric.
func (v *fe25519) squareGeneric(a *fe25519) {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	a0_2, a1_2 := a0*2, a1*2
	a1_38, a2_38, a3_38 := a1*38, a2*38, a3*38
	a3_19, a4_19 := a3*19, a4*19

	h0, l0 := bits.Mul64(a0, a0)
	h0, l0 = addMul(h0, l0, a1_38, a4)
	h0, l0 = addMul(h0, l0, a2_38, a3)

	h1, l1 := bits.Mul64(a0_2, a1)
	h1, l1 = addMul(h1, l1, a2_38, a4)
	h1, l1 = addMul(h1, l1, a3_19, a3)

	h2, l2 := bits.Mul64(a0_2, a2)
	h2, l2 = addMul(h2, l2, a1, a1)
	h2, l2 = addMul(h2, l2, a3_38, a4)

	h3, l3 := bits.Mul64(a0_2, a3)
	h3, l3 = addMul(h3, l3, a1_2, a2)
	h3, l3 = addMul(h3, l3, a4_19, a4)

	h4, l4 := bits.Mul64(a0_2, a4)
	h4, l4 = addMul(h4, l4, a1_2, a3)
	h4, l4 = addMul(h4, l4, a2, a2)

	v.reduce128(h0, l0, h1, l1, h2, l2, h3, l3, h4, l4)
}

// reduce128 folds five 128-bit accumulators back to 51-bit limbs: split
// each at bit 51, fold the top carry into limb 0 times 19, then one parallel
// carry pass (every limb hands its overflow to the next at once, limb 4's
// wrapping to limb 0 times 19). For inputs within feLazyBits the first fold
// leaves limbs below 2^63.6, so the second pass's carries are below 2^12.6
// and every output limb is below 2^51 + 2^17 — fully carried.
func (v *fe25519) reduce128(h0, l0, h1, l1, h2, l2, h3, l3, h4, l4 uint64) {
	c0 := h0<<13 | l0>>51
	c1 := h1<<13 | l1>>51
	c2 := h2<<13 | l2>>51
	c3 := h3<<13 | l3>>51
	c4 := h4<<13 | l4>>51

	r0 := l0&mask51 + c4*19
	r1 := l1&mask51 + c0
	r2 := l2&mask51 + c1
	r3 := l3&mask51 + c2
	r4 := l4&mask51 + c3

	c0 = r0 >> 51
	c1 = r1 >> 51
	c2 = r2 >> 51
	c3 = r3 >> 51
	c4 = r4 >> 51

	v[0] = r0&mask51 + c4*19
	v[1] = r1&mask51 + c0
	v[2] = r2&mask51 + c1
	v[3] = r3&mask51 + c2
	v[4] = r4&mask51 + c3
}

// reduceFull brings v to its canonical representative in [0, p).
func (v *fe25519) reduceFull() {
	v.carry()
	v.carry()
	// v < 2^255 + small now; subtract p iff v >= p, detected by whether
	// v + 19 overflows 255 bits.
	c := (v[0] + 19) >> 51
	c = (v[1] + c) >> 51
	c = (v[2] + c) >> 51
	c = (v[3] + c) >> 51
	c = (v[4] + c) >> 51
	v[0] += 19 * c
	v[1] += v[0] >> 51
	v[0] &= mask51
	v[2] += v[1] >> 51
	v[1] &= mask51
	v[3] += v[2] >> 51
	v[2] &= mask51
	v[4] += v[3] >> 51
	v[3] &= mask51
	v[4] &= mask51 // drop the 2^255 bit
}

// SetBytes loads a 32-byte little-endian value, masking the top bit (the
// RFC 8032 convention); the value is reduced mod p.
func (v *fe25519) SetBytes(b []byte) {
	_ = b[31]
	v[0] = le64(b[0:]) & mask51
	v[1] = (le64(b[6:]) >> 3) & mask51
	v[2] = (le64(b[12:]) >> 6) & mask51
	v[3] = (le64(b[19:]) >> 1) & mask51
	v[4] = (le64(b[24:]) >> 12) & mask51
	v.reduceFull()
}

// isCanonicalBytes reports whether the 32-byte little-endian value (top bit
// masked off by the caller's convention check) is already < p.
func isCanonicalBytes25519(b []byte) bool {
	if b[31]&0x7f != 0x7f {
		return true
	}
	for i := 30; i > 0; i-- {
		if b[i] != 0xff {
			return true
		}
	}
	return b[0] < 0xed
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Bytes appends the canonical 32-byte little-endian encoding to dst.
func (v *fe25519) Bytes(dst []byte) []byte {
	var t fe25519
	t = *v
	t.reduceFull()
	w0 := t[0] | t[1]<<51
	w1 := t[1]>>13 | t[2]<<38
	w2 := t[2]>>26 | t[3]<<25
	w3 := t[3]>>39 | t[4]<<12
	var out [32]byte
	for i, w := range [4]uint64{w0, w1, w2, w3} {
		for j := 0; j < 8; j++ {
			out[i*8+j] = byte(w >> (8 * j))
		}
	}
	return append(dst, out[:]...)
}

// IsZero reports whether v == 0.
func (v *fe25519) IsZero() bool {
	var t fe25519
	t = *v
	t.reduceFull()
	return t[0]|t[1]|t[2]|t[3]|t[4] == 0
}

// Equal reports whether v == a.
func (v *fe25519) Equal(a *fe25519) bool {
	var t, u fe25519
	t = *v
	u = *a
	t.reduceFull()
	u.reduceFull()
	return t == u
}

// IsNegative reports whether the canonical encoding of v is odd — the
// RFC 8032 / ristretto sign convention.
func (v *fe25519) IsNegative() bool {
	var t fe25519
	t = *v
	t.reduceFull()
	return t[0]&1 == 1
}

// Abs sets v = a if a is non-negative, -a otherwise.
func (v *fe25519) Abs(a *fe25519) {
	if a.IsNegative() {
		v.Neg(a)
	} else {
		v.Set(a)
	}
}

// CondNeg sets v = -v if cond, in variable time (see the package note on
// timing).
func (v *fe25519) CondNeg(cond bool) {
	if cond {
		var t fe25519
		t.Neg(v)
		*v = t
	}
}

// toBig returns v as a big.Int.
func (v *fe25519) toBig() *big.Int {
	var t fe25519
	t = *v
	t.reduceFull()
	x := new(big.Int)
	for i := 4; i >= 0; i-- {
		x.Lsh(x, 51)
		x.Or(x, new(big.Int).SetUint64(t[i]))
	}
	return x
}

// fromBig sets v from a big.Int (reduced mod p first).
func (v *fe25519) fromBig(x *big.Int) {
	t := new(big.Int).Mod(x, p25519)
	var b [32]byte
	t.FillBytes(b[:])
	// FillBytes is big-endian; SetBytes wants little-endian.
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	v.SetBytes(b[:])
}

// Invert sets v = a^-1 via Fermat exponentiation (a^(p-2)). Batch callers
// amortize this with the Montgomery trick (see batchInvert25519); solo
// callers pay the fixed 254-squaring addition chain below.
func (v *fe25519) Invert(a *fe25519) {
	// a^(p-2) = a^(2^255-21) = (a^(2^250-1))^(2^5) * a^11, via the standard
	// ref10 chain: 254 squarings + 11 multiplies, versus ~380 operations for
	// naive square-and-multiply over the same exponent.
	var t250, a11 fe25519
	pow250m1(&t250, &a11, a)
	for i := 0; i < 5; i++ {
		t250.Square(&t250)
	}
	v.Mul(&t250, &a11)
}

// pow22523 sets v = a^(2^252-3), the (p-5)/8 exponent used by SqrtRatio:
// (a^(2^250-1))^(2^2) * a.
func (v *fe25519) pow22523(a *fe25519) {
	var t250, a11 fe25519
	pow250m1(&t250, &a11, a)
	t250.Square(&t250)
	t250.Square(&t250)
	v.Mul(&t250, a)
}

// pow250m1 computes t250 = a^(2^250-1) and, as a byproduct of the chain's
// prefix, a11 = a^11. Shared tail of Invert and pow22523.
func pow250m1(t250, a11, a *fe25519) {
	var t0, t1, t2, t3 fe25519
	t0.Square(a)      // a^2
	t1.Square(&t0)    //
	t1.Square(&t1)    // a^8
	t1.Mul(a, &t1)    // a^9
	a11.Mul(&t0, &t1) // a^11
	t2.Square(a11)    // a^22
	t1.Mul(&t1, &t2)  // a^31 = a^(2^5-1)
	t2.Square(&t1)    //
	for i := 0; i < 4; i++ {
		t2.Square(&t2)
	}
	t1.Mul(&t2, &t1) // a^(2^10-1)
	t2.Square(&t1)   //
	for i := 0; i < 9; i++ {
		t2.Square(&t2)
	}
	t2.Mul(&t2, &t1) // a^(2^20-1)
	t3.Square(&t2)   //
	for i := 0; i < 19; i++ {
		t3.Square(&t3)
	}
	t2.Mul(&t3, &t2) // a^(2^40-1)
	for i := 0; i < 10; i++ {
		t2.Square(&t2)
	}
	t1.Mul(&t2, &t1) // a^(2^50-1)
	t2.Square(&t1)   //
	for i := 0; i < 49; i++ {
		t2.Square(&t2)
	}
	t2.Mul(&t2, &t1) // a^(2^100-1)
	t3.Square(&t2)   //
	for i := 0; i < 99; i++ {
		t3.Square(&t3)
	}
	t2.Mul(&t3, &t2) // a^(2^200-1)
	for i := 0; i < 50; i++ {
		t2.Square(&t2)
	}
	t250.Mul(&t2, &t1) // a^(2^250-1)
}

// sqrtM1_25519 is sqrt(-1) = 2^((p-1)/4) mod p.
var sqrtM1_25519 = func() *fe25519 {
	e := new(big.Int).Sub(p25519, big.NewInt(1))
	e.Rsh(e, 2)
	r := new(big.Int).Exp(big.NewInt(2), e, p25519)
	var f fe25519
	f.fromBig(r)
	return &f
}()

// SqrtRatio sets v = sqrt(u/w) and returns true when u/w is square; when it
// is not, v is set to sqrt(i·u/w) (i = sqrt(-1)) and false is returned. The
// result is the non-negative root. This is the ristretto255 SQRT_RATIO_M1
// primitive, used by point decompression and the hash-to-group map.
func (v *fe25519) SqrtRatio(u, w *fe25519) bool {
	var w3, w7, uw7, r, check, t fe25519
	w3.Square(w)     // w^2
	w3.Mul(&w3, w)   // w^3
	w7.Square(&w3)   // w^6
	w7.Mul(&w7, w)   // w^7
	uw7.Mul(u, &w7)  // u·w^7
	r.pow22523(&uw7) // (u·w^7)^((p-5)/8)
	r.Mul(&r, &w3)
	r.Mul(&r, u) // r = u·w^3·(u·w^7)^((p-5)/8)

	check.Square(&r)
	check.Mul(&check, w) // w·r^2
	var negU fe25519
	negU.Neg(u)
	wasSquare := check.Equal(u)
	flippedSign := check.Equal(&negU)
	t.Mul(&negU, sqrtM1_25519)
	flippedSignI := check.Equal(&t)
	if flippedSign || flippedSignI {
		r.Mul(&r, sqrtM1_25519)
	}
	v.Abs(&r)
	return wasSquare || flippedSign
}

// batchInvert25519 replaces each non-zero element of zs with its inverse
// using one field inversion for the whole slice (the Montgomery trick:
// prefix products forward, one Invert, suffix unwinding backward). Zero
// entries are left as zero, preserving point-at-infinity slots. Each entry
// is tested for zero once, on the way forward: a zero one's prefix is left
// as all-zero limbs, which no product of non-zero elements has (all-zero
// limbs are the value 0), so the way back compares limbs without reducing.
func batchInvert25519(zs []*fe25519) {
	n := len(zs)
	if n == 0 {
		return
	}
	prefix := make([]fe25519, n)
	var acc fe25519
	acc.One()
	for i, z := range zs {
		if !z.IsZero() {
			prefix[i] = acc
			acc.Mul(&acc, z)
		}
	}
	var inv fe25519
	inv.Invert(&acc)
	for i := n - 1; i >= 0; i-- {
		if prefix[i] == (fe25519{}) {
			continue
		}
		z := zs[i]
		var t fe25519
		t.Mul(&inv, &prefix[i])
		inv.Mul(&inv, z)
		*z = t
	}
}
