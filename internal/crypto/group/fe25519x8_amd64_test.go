//go:build amd64 && !purego

package group

import (
	"math/big"
	"math/rand"
	"testing"
	"unsafe"
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

// pointKernelRef evaluates, with math/big, the formula a point kernel runs
// on one lane: in holds the operand coordinates in kernel argument order (q,
// then n), and the result is (X3, Y3, Z3, T3) as field values. The formulas
// are polynomials, so they are checked on arbitrary field elements, not only
// on curve points: that is what reaches every limb pattern.
func pointKernelRef(kernel string, sub bool, in []*big.Int) [4]*big.Int {
	P := p25519
	mod := func(v *big.Int) *big.Int { return v.Mod(v, P) }
	add := func(a, b *big.Int) *big.Int { return mod(new(big.Int).Add(a, b)) }
	subm := func(a, b *big.Int) *big.Int { return mod(new(big.Int).Sub(a, b)) }
	mul := func(a, b *big.Int) *big.Int { return mod(new(big.Int).Mul(a, b)) }
	two := big.NewInt(2)
	x, y, z, t := in[0], in[1], in[2], in[3]
	var e, f, g, h *big.Int
	switch kernel {
	case "double":
		a, b := mul(x, x), mul(y, y)
		c := mul(two, mul(z, z))
		e = mul(two, mul(x, y))
		h, g = add(b, a), subm(b, a)
		f = subm(c, g)
	default:
		yPlusX, yMinusX := in[4], in[5]
		t1, t2 := add(y, x), subm(y, x)
		var tt, zz *big.Int
		if kernel == "addNiels" {
			tt = mul(t, in[7])
			zz = mul(two, mul(z, in[6]))
		} else {
			tt = mul(t, in[6])
			zz = add(z, z)
		}
		if sub {
			yPlusX, yMinusX = yMinusX, yPlusX
		}
		pp, mm := mul(t1, yPlusX), mul(t2, yMinusX)
		e, h = subm(pp, mm), add(pp, mm)
		f, g = subm(zz, tt), add(zz, tt)
		if sub {
			f, g = g, f
		}
	}
	return [4]*big.Int{mul(e, f), mul(g, h), mul(f, g), mul(e, h)}
}

// combAddx8 runs fe8Comb over one position whose entry in lane i is lane i
// of n, with digit digits[i]: 1 adds the entry to q, -1 its negative, 0 the
// identity entry. It is the comb kernel's affine-Niels add on entries the
// test chooses, always in place.
func combAddx8(p, q *edPointx8, n *affineNielsx8, digits [8]int8) {
	s := new(edCombx8)
	s.acc = *q
	entries := make([]affineNiels, 8)
	for i := range entries {
		n.yPlusX.lane(i, &entries[i].yPlusX)
		n.yMinusX.lane(i, &entries[i].yMinusX)
		n.xy2d.lane(i, &entries[i].xy2d)
		s.tables[i] = &entries[i]
		s.digits[0] |= uint64(uint8(digits[i])) << (8 * i)
	}
	fe8Comb(s, 1)
	*p = s.acc
}

// TestPointKernelsx8 holds fe8Double, fe8AddNiels (both signs) and the
// affine-Niels add of fe8Comb (positive, negative and zero digits) to
// pointKernelRef in every lane, on limbs pinned at 0, 2^51 - 1 and 2^52 - 1
// and on random limbs below 2^52 — a negated entry's xy2d below 2^51, as a
// comb table's carried entries are — in place (p == q) and not: their
// values, their carried output limbs, and — for a double without T — the T
// row left as it was.
func TestPointKernelsx8(t *testing.T) {
	requireIFMA(t)
	r := rand.New(rand.NewSource(50))
	pins := [3]uint64{0, mask51, fe8LimbMax}
	checkPointKernelsx8(t, 300, func(round int) fe25519 {
		var v fe25519
		for l := range v {
			if round%3 == 0 {
				v[l] = pins[r.Intn(3)]
			} else {
				v[l] = r.Uint64() & fe8LimbMax
			}
		}
		return v
	})
}

// TestPointKernelsx8LimbBound is TestPointKernelsx8 with every input limb
// at its largest allowed value, 2^52 - 1 (a negated comb entry's xy2d at
// 2^51 - 1): the operands whose products, left uncarried into the sums and
// differences of the point kernels, come nearest the bound derived at
// foldCarryStore in fe25519x8_gen.go.
func TestPointKernelsx8LimbBound(t *testing.T) {
	requireIFMA(t)
	checkPointKernelsx8(t, 2, func(int) fe25519 {
		return fe25519{fe8LimbMax, fe8LimbMax, fe8LimbMax, fe8LimbMax, fe8LimbMax}
	})
}

// checkPointKernelsx8 runs the point kernels of TestPointKernelsx8 for the
// given rounds on the operands operand(round) returns, each call one
// operand of one lane.
func checkPointKernelsx8(t *testing.T, rounds int, operand func(round int) fe25519) {
	for round := 0; round < rounds; round++ {
		for _, c := range []struct {
			kernel string
			sub    bool
			rows   int // q's four, then n's
		}{
			{"double", false, 4}, {"addNiels", false, 8}, {"addNiels", true, 8}, {"addAffine", false, 7}, {"addAffine", true, 7},
		} {
			// the comb's digits: every fourth lane adds the identity entry
			var digits [8]int8
			var lanes [8][]fe25519
			rows := make([]fe25519x8, c.rows)
			for i := range lanes {
				digits[i] = 1
				if c.sub {
					digits[i] = -1
				}
				if i%4 == 3 {
					digits[i] = 0
				}
				for k := 0; k < c.rows; k++ {
					v := operand(round)
					if c.kernel == "addAffine" && c.sub && k == 6 {
						for l := range v {
							v[l] &= mask51
						}
					}
					rows[k].setLane(i, &v)
					if c.kernel == "addAffine" && digits[i] == 0 && k >= 4 {
						v = [3]fe25519{{1}, {1}, {}}[k-4]
					}
					lanes[i] = append(lanes[i], v)
				}
			}
			for _, inPlace := range []bool{false, true} {
				q := edPointx8{rows[0], rows[1], rows[2], rows[3]}
				var out edPointx8
				p := &out
				if inPlace {
					p = &q
				}
				tBefore := p.t
				var tmp [7]fe25519x8
				switch c.kernel {
				case "double":
					fe8Double(p, &q, &tmp, round%2 == 0)
				case "addNiels":
					n := projNielsx8{rows[4], rows[5], rows[6], rows[7]}
					fe8AddNiels(p, &q, &n, &tmp, c.sub)
				case "addAffine":
					n := affineNielsx8{rows[4], rows[5], rows[6]}
					combAddx8(p, &q, &n, digits)
				}
				for i := range lanes {
					in := make([]*big.Int, len(lanes[i]))
					for k := range lanes[i] {
						in[k] = limbsBig(&lanes[i][k])
					}
					want := pointKernelRef(c.kernel, c.sub && (c.kernel != "addAffine" || digits[i] != 0), in)
					for k, row := range []*fe25519x8{&p.x, &p.y, &p.z, &p.t} {
						var g fe25519
						row.lane(i, &g)
						if k == 3 && c.kernel == "double" && round%2 != 0 {
							var before fe25519
							tBefore.lane(i, &before)
							if g != before {
								t.Fatalf("double without T, lane %d: T row changed", i)
							}
							continue
						}
						for l, limb := range g {
							if limb >= 1<<51+1<<15 {
								t.Fatalf("%s sub=%v lane %d coordinate %d: limb %d = %#x is not carried", c.kernel, c.sub, i, k, l, limb)
							}
						}
						if v := g.toBig(); v.Cmp(want[k]) != 0 {
							t.Fatalf("%s sub=%v in-place=%v lane %d coordinate %d = %v, math/big says %v (inputs %x)",
								c.kernel, c.sub, inPlace, i, k, v, want[k], lanes[i])
						}
					}
				}
			}
		}
	}
}

// TestPointKernelLayout holds the Go types the point kernels address to the
// offsets fe25519x8_gen.go assumes: each field one 320-byte fe25519x8 after
// the last, in declaration order, and fe8Comb's state after its fourteen
// fe25519x8s the lanes' table addresses, their strides and the digits, over
// 120-byte table entries.
func TestPointKernelLayout(t *testing.T) {
	const row = unsafe.Sizeof(fe25519x8{})
	var p edPointx8
	var n projNielsx8
	var a affineNielsx8
	var s edCombx8
	for _, c := range []struct {
		name   string
		got    uintptr
		fields uintptr
	}{
		{"edPointx8.y", unsafe.Offsetof(p.y), 1}, {"edPointx8.z", unsafe.Offsetof(p.z), 2}, {"edPointx8.t", unsafe.Offsetof(p.t), 3},
		{"projNielsx8.yMinusX", unsafe.Offsetof(n.yMinusX), 1}, {"projNielsx8.z", unsafe.Offsetof(n.z), 2}, {"projNielsx8.t2d", unsafe.Offsetof(n.t2d), 3},
		{"affineNielsx8.yMinusX", unsafe.Offsetof(a.yMinusX), 1}, {"affineNielsx8.xy2d", unsafe.Offsetof(a.xy2d), 2},
		{"edCombx8.n", unsafe.Offsetof(s.n), 4}, {"edCombx8.tmp", unsafe.Offsetof(s.tmp), 7},
	} {
		if c.got != c.fields*row || row != 320 {
			t.Errorf("%s at byte %d, the kernels address it at %d", c.name, c.got, c.fields*320)
		}
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"edCombx8.tables", unsafe.Offsetof(s.tables), 14 * 320},
		{"edCombx8.strides", unsafe.Offsetof(s.strides), 14*320 + 64},
		{"edCombx8.digits", unsafe.Offsetof(s.digits), 14*320 + 128},
		{"affineNiels size", unsafe.Sizeof(affineNiels{}), affineNielsBytes},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d, fe8Comb assumes %d", c.name, c.got, c.want)
		}
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

func init() {
	combKernelPasses = func(ms []edCombMul) func() {
		// one state, as a Run uses, with each pass's lanes copied in
		type pass struct {
			tables    [8]*affineNiels
			strides   [8]uint64
			digits    [edCombMaxPositions]uint64
			positions int
		}
		s := new(edCombx8)
		passes := make([]pass, (len(ms)+7)/8)
		for p := range passes {
			passes[p].positions = s.load(ms[8*p : min(8*p+8, len(ms))])
			passes[p].tables, passes[p].strides, passes[p].digits = s.tables, s.strides, s.digits
		}
		return func() {
			for p := range passes {
				s.tables, s.strides, s.digits = passes[p].tables, passes[p].strides, passes[p].digits
				fe8Comb(s, passes[p].positions)
			}
		}
	}
}

// TestCombRecodeMatchesCombDigits holds a pass's recoding (edCombx8.recode:
// combWords and the byte transpose) to combDigits lane by lane, for tables
// of width 8 (the generator's) and 6 (a key's), alone and mixed in a pass,
// on digitScalars, combScalars and random scalars, in passes of eight lanes
// and shorter: each lane's digit at every position of its table, and zero
// past its table's last position and in the spare lanes.
func TestCombRecodeMatchesCombDigits(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	tables := combTables(r)[:2]
	if tables[0].t.w != 8 || tables[1].t.w != 6 {
		t.Fatalf("tables of widths %d and %d, want 8 and 6", tables[0].t.w, tables[1].t.w)
	}
	var ms []edCombMul
	for _, tb := range tables {
		for _, k := range digitScalars(t, tb.t) {
			ms = append(ms, edCombMul{t: tb.t, k: k})
		}
		for _, k := range combScalars(tb.t.w, tb.t.positions) {
			ms = append(ms, edCombMul{t: tb.t, k: k})
		}
	}
	for i := 0; i < 200; i++ {
		ms = append(ms, edCombMul{t: tables[r.Intn(2)].t, k: ScalarFromBig(randEdScalar(r))})
	}
	s := new(edCombx8)
	for base, pass := 0, 0; base < len(ms); base, pass = base+8-pass%8, pass+1 {
		// passes of eight lanes, then seven, down to one, and again
		group := ms[base:min(base+8-pass%8, len(ms))]
		s.digits = [edCombMaxPositions]uint64{}
		positions := 0
		for _, m := range group {
			positions = max(positions, m.t.positions)
		}
		s.recode(group, positions)
		for i := 0; i < 8; i++ {
			var want [edCombMaxPositions]int8
			if i < len(group) {
				combDigits(&group[i].k, group[i].t, want[:], 1)
			}
			for j := 0; j < positions; j++ {
				if got := int8(s.digits[j] >> (8 * i)); got != want[j] {
					t.Fatalf("pass at %d, lane %d of %d (width %d, k=%x): digit %d = %d, combDigits says %d",
						base, i, len(group), group[min(i, len(group)-1)].t.w, group[min(i, len(group)-1)].k, j, got, want[j])
				}
			}
		}
	}
}
