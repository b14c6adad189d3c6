//go:build amd64 && !purego

package group

import (
	"math/big"
	"math/rand"
	"testing"
)

// The x8 kernel tests hold every lane of Mul/Square/Add/Sub to the scalar
// fe25519 operation on the same lane and to math/big, with limbs up to the
// x8 input bound and under every aliasing of the operands.

const fe8LimbMax = 1<<fe8LimbBits - 1

func requireIFMA(t testing.TB) {
	t.Helper()
	if !hasIFMA() {
		t.Skip("x8 kernels not run: this CPU/OS pair does not report AVX-512 IFMA with ZMM state enabled")
	}
}

// checkKernelsx8 checks the four kernels on eight (a, b) pairs at once.
func checkKernelsx8(t *testing.T, as, bs *[8]fe25519) {
	t.Helper()
	var a, b fe25519x8
	for i := 0; i < 8; i++ {
		a.setLane(i, &as[i])
		b.setLane(i, &bs[i])
	}
	type op struct {
		name string
		x8   func(out, a, b *fe25519x8)
		ref  func(x, y *big.Int) *big.Int
		// scalar is the fe25519 counterpart; nil where the scalar
		// contract (carried subtrahends) is narrower than the x8 one
		scalar func(out, a, b *fe25519)
	}
	ops := []op{
		{"Mul", (*fe25519x8).Mul,
			func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) },
			(*fe25519).Mul},
		{"Square", func(out, a, _ *fe25519x8) { out.Square(a) },
			func(x, _ *big.Int) *big.Int { return new(big.Int).Mul(x, x) },
			func(out, a, _ *fe25519) { out.Square(a) }},
		{"Add", (*fe25519x8).Add,
			func(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) },
			(*fe25519).Add},
		{"Sub", (*fe25519x8).Sub,
			func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) },
			nil},
	}
	check := func(name string, got *fe25519x8, o op, as, bs *[8]fe25519) {
		t.Helper()
		for i := 0; i < 8; i++ {
			var g fe25519
			got.lane(i, &g)
			for l, limb := range g {
				if limb >= 1<<51+1<<15 {
					t.Fatalf("%s lane %d (%x, %x): limb %d = %#x is not carried", name, i, as[i], bs[i], l, limb)
				}
			}
			want := o.ref(limbsBig(&as[i]), limbsBig(&bs[i]))
			want.Mod(want, p25519)
			if v := g.toBig(); v.Cmp(want) != 0 {
				t.Fatalf("%s lane %d (%x, %x) = %v, math/big says %v", name, i, as[i], bs[i], v, want)
			}
			if o.scalar != nil {
				var s fe25519
				o.scalar(&s, &as[i], &bs[i])
				if !s.Equal(&g) {
					t.Fatalf("%s lane %d (%x, %x) = %x, fe25519 says %x", name, i, as[i], bs[i], g, s)
				}
			}
		}
	}
	for _, o := range ops {
		var got fe25519x8
		o.x8(&got, &a, &b)
		check(o.name, &got, o, as, bs)
		// every aliasing of the operands
		got = a
		o.x8(&got, &got, &b)
		check(o.name+"[out==a]", &got, o, as, bs)
		got = b
		o.x8(&got, &a, &got)
		check(o.name+"[out==b]", &got, o, as, bs)
		o.x8(&got, &a, &a)
		check(o.name+"[a==b]", &got, o, as, as)
		got = a
		o.x8(&got, &got, &got)
		check(o.name+"[out==a==b]", &got, o, as, as)
	}
}

func TestFe25519x8Differential(t *testing.T) {
	requireIFMA(t)
	// every limb at zero, at the radix maximum, or at the x8 input bound:
	// all 3^5 patterns on each side, eight pairs per kernel call. The
	// all-maximum pair drives r0 = 267·2^52 and the carries to their limits.
	pins := [3]uint64{0, mask51, fe8LimbMax}
	var patterns []fe25519
	for i := 0; i < 243; i++ {
		var v fe25519
		for l, n := 0, i; l < 5; l, n = l+1, n/3 {
			v[l] = pins[n%3]
		}
		patterns = append(patterns, v)
	}
	var as, bs [8]fe25519
	n := 0
	for i := range patterns {
		for j := range patterns {
			as[n], bs[n] = patterns[i], patterns[j]
			if n++; n == 8 {
				checkKernelsx8(t, &as, &bs)
				n = 0
			}
		}
	}
	checkKernelsx8(t, &as, &bs) // the last, partly refilled group
	r := rand.New(rand.NewSource(45))
	for i := 0; i < 4000; i++ {
		for lane := range as {
			for l := 0; l < 5; l++ {
				as[lane][l] = r.Uint64() & fe8LimbMax
				bs[lane][l] = r.Uint64() & fe8LimbMax
			}
			// mix pinned limbs into random ones
			if r.Intn(4) == 1 {
				as[lane][r.Intn(5)] = pins[r.Intn(3)]
				bs[lane][r.Intn(5)] = pins[r.Intn(3)]
			}
		}
		checkKernelsx8(t, &as, &bs)
	}
}

func FuzzFe25519x8Kernel(f *testing.F) {
	const m, c = uint64(fe8LimbMax), uint64(mask51)
	f.Add(m, m, m, m, m, m, m, m, m, m, uint8(0))
	f.Add(m, m, m, m, m, m, uint64(0), uint64(0), uint64(0), m, uint8(3))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), m, m, c, uint64(0), c, m, uint8(7))
	f.Add(c, c, c, c, c, c, c, c, c, c, uint8(1))
	f.Add(uint64(1), uint64(0), uint64(0), uint64(0), uint64(0), uint64(19), uint64(0), uint64(0), uint64(0), uint64(0), uint8(5))
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, a4, b0, b1, b2, b3, b4 uint64, lane uint8) {
		requireIFMA(t)
		// the fuzzed pair in one lane, derived pairs in the others: a lane
		// must not leak into its neighbours
		var as, bs [8]fe25519
		r := rand.New(rand.NewSource(int64(a0 ^ b4)))
		for i := range as {
			for l := 0; l < 5; l++ {
				as[i][l] = r.Uint64() & m
				bs[i][l] = r.Uint64() & m
			}
		}
		as[lane%8] = fe25519{a0 & m, a1 & m, a2 & m, a3 & m, a4 & m}
		bs[lane%8] = fe25519{b0 & m, b1 & m, b2 & m, b3 & m, b4 & m}
		checkKernelsx8(t, &as, &bs)
	})
}

func BenchmarkFe25519x8Mul(b *testing.B) {
	requireIFMA(b)
	x, y := new(fe25519x8), new(fe25519x8)
	var half, one fe25519
	half.fromBig(new(big.Int).Rsh(p25519, 1))
	one.One()
	one.Add(&one, &half)
	for i := 0; i < 8; i++ {
		x.setLane(i, &half)
		y.setLane(i, &one)
	}
	for i := 0; i < b.N; i++ {
		x.Mul(x, y)
	}
}

func BenchmarkFe25519x8Square(b *testing.B) {
	requireIFMA(b)
	x := new(fe25519x8)
	var half fe25519
	half.fromBig(new(big.Int).Rsh(p25519, 1))
	for i := 0; i < 8; i++ {
		x.setLane(i, &half)
	}
	for i := 0; i < b.N; i++ {
		x.Square(x)
	}
}
