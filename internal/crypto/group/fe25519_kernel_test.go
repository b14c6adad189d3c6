package group

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// The kernel tests hold three implementations to each other: Mul/Square (the
// amd64 assembly, or the generic bodies again under -tags purego or on
// another GOARCH), mulGeneric/squareGeneric, and math/big. Assembly and
// generic must agree limb for limb; both must agree with math/big as field
// values and return fully carried limbs.

const feLazyMax = 1<<feLazyBits - 1

// limbsBig returns Σ limb[i]·2^(51i) without reducing, so lazy limbs are
// valued as the kernels value them.
func limbsBig(v *fe25519) *big.Int {
	x := new(big.Int)
	for i := 4; i >= 0; i-- {
		x.Lsh(x, 51)
		x.Add(x, new(big.Int).SetUint64(v[i]))
	}
	return x
}

func checkKernels(t *testing.T, a, b *fe25519) {
	t.Helper()
	carried := func(name string, v *fe25519) {
		t.Helper()
		for i, l := range v {
			if l >= 1<<51+1<<17 {
				t.Fatalf("%s(%x, %x): limb %d = %#x is not carried", name, *a, *b, i, l)
			}
		}
	}
	value := func(name string, got *fe25519, x, y *big.Int) {
		t.Helper()
		want := new(big.Int).Mul(x, y)
		want.Mod(want, p25519)
		if g := got.toBig(); g.Cmp(want) != 0 {
			t.Fatalf("%s(%x, %x) = %v, math/big says %v", name, *a, *b, g, want)
		}
	}
	same := func(name string, got, want *fe25519) {
		t.Helper()
		if *got != *want {
			t.Fatalf("%s(%x, %x) = %x, generic = %x", name, *a, *b, *got, *want)
		}
	}
	aBig, bBig := limbsBig(a), limbsBig(b)

	var mulRef, sqRef, got fe25519
	mulRef.mulGeneric(a, b)
	carried("mulGeneric", &mulRef)
	value("mulGeneric", &mulRef, aBig, bBig)
	sqRef.squareGeneric(a)
	carried("squareGeneric", &sqRef)
	value("squareGeneric", &sqRef, aBig, aBig)

	got.Mul(a, b)
	same("Mul", &got, &mulRef)
	got.Square(a)
	same("Square", &got, &sqRef)

	// every aliasing of the operands
	got = *a
	got.Mul(&got, b) // out == a
	same("Mul[out==a]", &got, &mulRef)
	got = *b
	got.Mul(a, &got) // out == b
	same("Mul[out==b]", &got, &mulRef)
	got.Mul(a, a) // a == b
	same("Mul[a==b]", &got, &sqRef)
	got = *a
	got.Mul(&got, &got) // all three
	same("Mul[out==a==b]", &got, &sqRef)
	got = *a
	got.Square(&got)
	same("Square[out==a]", &got, &sqRef)
}

func TestFe25519KernelDifferential(t *testing.T) {
	// every limb at zero, at the carried maximum, or at the lazy bound: all
	// 3^5 patterns on each side, which includes the all-maximum pair that
	// drives the c4·19 fold and the r0 accumulator to their limits
	pins := [3]uint64{0, mask51, feLazyMax}
	var patterns []fe25519
	for i := 0; i < 243; i++ {
		var v fe25519
		for l, n := 0, i; l < 5; l, n = l+1, n/3 {
			v[l] = pins[n%3]
		}
		patterns = append(patterns, v)
	}
	for i := range patterns {
		for j := range patterns {
			checkKernels(t, &patterns[i], &patterns[j])
		}
	}
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 20000; i++ {
		var a, b fe25519
		for l := range a {
			a[l] = r.Uint64() & feLazyMax
			b[l] = r.Uint64() & feLazyMax
		}
		// mix pinned limbs into random ones
		if i%4 == 1 {
			a[r.Intn(5)] = pins[r.Intn(3)]
			b[r.Intn(5)] = pins[r.Intn(3)]
		}
		checkKernels(t, &a, &b)
	}
}

func FuzzFe25519Kernel(f *testing.F) {
	const m, c = uint64(feLazyMax), uint64(mask51)
	// both operands at the lazy bound in every limb: the c4·19 fold and r0
	// at their maxima
	f.Add(m, m, m, m, m, m, m, m, m, m)
	// limb 4's accumulator alone at its maximum: a's limbs against b0..b4
	f.Add(m, m, m, m, m, m, uint64(0), uint64(0), uint64(0), m)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), m, m, c, uint64(0), c, m)
	f.Add(c, c, c, c, c, c, c, c, c, c)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), m, c, m, c, m)
	f.Add(uint64(1), uint64(0), uint64(0), uint64(0), uint64(0), uint64(19), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, a4, b0, b1, b2, b3, b4 uint64) {
		a := fe25519{a0 & m, a1 & m, a2 & m, a3 & m, a4 & m}
		b := fe25519{b0 & m, b1 & m, b2 & m, b3 & m, b4 & m}
		checkKernels(t, &a, &b)
	})
}

// wnafDigitsRef is the recoder wnafDigits replaced, verbatim, kept as its
// reference: subtract the digit from the scalar and shift the whole scalar
// right, one bit per step.
func wnafDigitsRef(k []byte, digits *[258]int8) int {
	var limbs [5]uint64 // extra limb absorbs the borrow-carry headroom
	for i := 0; i < 32; i++ {
		limbs[i/8] |= uint64(k[31-i]) << ((i % 8) * 8)
	}
	n := 0
	for limbs != ([5]uint64{}) {
		if limbs[0]&1 == 1 {
			d := int8(limbs[0] & 31)
			if d > 16 {
				d -= 32
			}
			if d > 0 {
				var borrow uint64
				limbs[0], borrow = bits.Sub64(limbs[0], uint64(d), 0)
				for i := 1; i < 5; i++ {
					limbs[i], borrow = bits.Sub64(limbs[i], 0, borrow)
				}
			} else {
				var carry uint64
				limbs[0], carry = bits.Add64(limbs[0], uint64(-d), 0)
				for i := 1; i < 5; i++ {
					limbs[i], carry = bits.Add64(limbs[i], 0, carry)
				}
			}
			digits[n] = d
		} else {
			digits[n] = 0
		}
		for i := 0; i < 4; i++ {
			limbs[i] = limbs[i]>>1 | limbs[i+1]<<63
		}
		limbs[4] >>= 1
		n++
	}
	return n
}

func TestWNAFDigitsMatchReference(t *testing.T) {
	scalars := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(15), big.NewInt(16), big.NewInt(17), big.NewInt(31),
		new(big.Int).Lsh(big.NewInt(1), 252),
		new(big.Int).Sub(edOrder, big.NewInt(1)),
		// out-of-range but accepted: the carry must reach digit 256
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1<<5)),
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		scalars = append(scalars, randEdScalar(r))
		scalars = append(scalars, new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 256)))
	}
	for _, k := range scalars {
		var kb [32]byte
		k.FillBytes(kb[:])
		var got, want [258]int8
		// stale contents must not leak into the digits
		for i := range got {
			got[i] = 99
		}
		n, m := wnafDigits(kb[:], &got), wnafDigitsRef(kb[:], &want)
		if n != m || got != want {
			t.Fatalf("k=%v: got %d digits %v, want %d digits %v", k, n, got[:n], m, want[:m])
		}
	}
}
