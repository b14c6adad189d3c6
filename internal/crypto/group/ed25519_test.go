package group

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
)

// edModel is a big.Int affine model of the twisted Edwards curve
// -x^2 + y^2 = 1 + d x^2 y^2, used to cross-validate the fe25519 kernels.
type edModel struct{ x, y *big.Int }

func edModelIdentity() edModel {
	return edModel{big.NewInt(0), big.NewInt(1)}
}

func edModelD() *big.Int { return edD.toBig() }

// add on the affine model via the complete Edwards addition law.
func (p edModel) add(q edModel) edModel {
	P := p25519
	d := edModelD()
	x1y2 := new(big.Int).Mul(p.x, q.y)
	y1x2 := new(big.Int).Mul(p.y, q.x)
	y1y2 := new(big.Int).Mul(p.y, q.y)
	x1x2 := new(big.Int).Mul(p.x, q.x)
	t := new(big.Int).Mul(d, new(big.Int).Mul(x1x2, y1y2))
	t.Mod(t, P)
	one := big.NewInt(1)
	xden := new(big.Int).Add(one, t)
	yden := new(big.Int).Sub(one, t)
	x3 := new(big.Int).Add(x1y2, y1x2)
	x3.Mul(x3, new(big.Int).ModInverse(xden, P))
	x3.Mod(x3, P)
	y3 := new(big.Int).Add(y1y2, x1x2)
	y3.Mul(y3, new(big.Int).ModInverse(yden, P))
	y3.Mod(y3, P)
	return edModel{x3, y3}
}

func (p edModel) mul(k *big.Int) edModel {
	acc := edModelIdentity()
	add := p
	for i := 0; i < k.BitLen(); i++ {
		if k.Bit(i) == 1 {
			acc = acc.add(add)
		}
		add = add.add(add)
	}
	return acc
}

func (p *edPoint) model(t *testing.T) edModel {
	t.Helper()
	P := p25519
	zinv := new(big.Int).ModInverse(p.z.toBig(), P)
	x := new(big.Int).Mul(p.x.toBig(), zinv)
	x.Mod(x, P)
	y := new(big.Int).Mul(p.y.toBig(), zinv)
	y.Mod(y, P)
	// check the T invariant: T*Z == X*Y
	tz := new(big.Int).Mul(p.t.toBig(), p.z.toBig())
	tz.Mod(tz, P)
	xy := new(big.Int).Mul(p.x.toBig(), p.y.toBig())
	xy.Mod(xy, P)
	if tz.Cmp(xy) != 0 {
		t.Fatal("extended coordinate invariant T*Z == X*Y violated")
	}
	return edModel{x, y}
}

func modelEqual(a, b edModel) bool {
	return a.x.Cmp(b.x) == 0 && a.y.Cmp(b.y) == 0
}

func checkOnCurve(t *testing.T, m edModel) {
	t.Helper()
	P := p25519
	d := edModelD()
	x2 := new(big.Int).Mul(m.x, m.x)
	y2 := new(big.Int).Mul(m.y, m.y)
	lhs := new(big.Int).Sub(y2, x2)
	lhs.Mod(lhs, P)
	rhs := new(big.Int).Mul(x2, y2)
	rhs.Mul(rhs, d)
	rhs.Add(rhs, big.NewInt(1))
	rhs.Mod(rhs, P)
	if lhs.Cmp(rhs) != 0 {
		t.Fatalf("point (%v, %v) not on curve", m.x, m.y)
	}
}

func randEdPoint(t testing.TB, r *mrand.Rand) *edPoint {
	t.Helper()
	var seed [32]byte
	r.Read(seed[:])
	return edHashToPoint(seed[:])
}

func randEdScalar(r *mrand.Rand) *big.Int {
	b := make([]byte, 32)
	r.Read(b)
	v := new(big.Int).SetBytes(b)
	return v.Mod(v, edOrder)
}

func TestEdBaseOnCurve(t *testing.T) {
	checkOnCurve(t, edBase.model(t))
	// base point must have order l: l*B == identity
	var kb [32]byte
	edOrder.FillBytes(kb[:])
	var digits [258]int8
	n := wnafDigits(kb[:], &digits)
	var p edPoint
	edScalarMulWNAF(&p, digits[:n], &edBase)
	if !p.isIdentity() {
		t.Fatal("l*B != identity")
	}
}

func TestEdAddDoubleVsModel(t *testing.T) {
	r := mrand.New(mrand.NewSource(10))
	for i := 0; i < 30; i++ {
		p := randEdPoint(t, r)
		q := randEdPoint(t, r)
		pm, qm := p.model(t), q.model(t)
		checkOnCurve(t, pm)

		var sum edPoint
		sum.add(p, q)
		if !modelEqual(sum.model(t), pm.add(qm)) {
			t.Fatal("add mismatch")
		}

		var dbl edPoint
		dbl.double(p, true)
		if !modelEqual(dbl.model(t), pm.add(pm)) {
			t.Fatal("double mismatch")
		}

		// P + (-P) == identity
		var np, id edPoint
		np.neg(p)
		id.add(p, &np)
		if !id.isIdentity() {
			t.Fatal("P + (-P) != identity")
		}

		// P + identity == P
		var idt, same edPoint
		idt.identity()
		same.add(p, &idt)
		if !modelEqual(same.model(t), pm) {
			t.Fatal("P + 0 != P")
		}

		// P == Q degenerate add (complete law must handle it)
		var pp edPoint
		pp.add(p, p)
		if !modelEqual(pp.model(t), pm.add(pm)) {
			t.Fatal("add(P, P) != double(P)")
		}
	}
}

func TestEdNielsFormsVsAdd(t *testing.T) {
	r := mrand.New(mrand.NewSource(11))
	for i := 0; i < 20; i++ {
		p := randEdPoint(t, r)
		q := randEdPoint(t, r)
		var want, got edPoint
		want.add(p, q)
		wm := want.model(t)

		var pn projNiels
		q.toProjNiels(&pn)
		got.addProjNiels(p, &pn, false)
		if !modelEqual(got.model(t), wm) {
			t.Fatal("addProjNiels mismatch")
		}

		// subtraction form
		var diff, nq edPoint
		nq.neg(q)
		diff.add(p, &nq)
		got.addProjNiels(p, &pn, true)
		if !modelEqual(got.model(t), diff.model(t)) {
			t.Fatal("addProjNiels sub mismatch")
		}

		// affine niels requires z == 1
		normalizeEd([]*edPoint{q})
		var an affineNiels
		q.toAffineNiels(&an)
		got.addAffineNiels(p, &an, false)
		if !modelEqual(got.model(t), wm) {
			t.Fatal("addAffineNiels mismatch")
		}
		got.addAffineNiels(p, &an, true)
		if !modelEqual(got.model(t), diff.model(t)) {
			t.Fatal("addAffineNiels sub mismatch")
		}
	}
}

func TestEdScalarMulVsModel(t *testing.T) {
	r := mrand.New(mrand.NewSource(12))
	for i := 0; i < 12; i++ {
		p := randEdPoint(t, r)
		k := randEdScalar(r)
		if i == 0 {
			k.SetInt64(0)
		}
		if i == 1 {
			k.SetInt64(1)
		}
		var kb [32]byte
		k.FillBytes(kb[:])
		var digits [258]int8
		n := wnafDigits(kb[:], &digits)
		var got edPoint
		edScalarMulWNAF(&got, digits[:n], p)
		want := p.model(t).mul(k)
		if !modelEqual(got.model(t), want) {
			t.Fatalf("wNAF mult mismatch at k=%v", k)
		}
	}
}

func TestEdCombVsModel(t *testing.T) {
	r := mrand.New(mrand.NewSource(13))
	for _, w := range []uint{6, 8} {
		p := randEdPoint(t, r)
		normalizeEd([]*edPoint{p})
		table := buildEdComb(p, w)
		for i := 0; i < 6; i++ {
			k := randEdScalar(r)
			if i == 0 {
				k.SetInt64(0)
			}
			kb := ScalarFromBig(k)
			var got edPoint
			table.mulComb(&got, &kb)
			want := p.model(t).mul(k)
			if !modelEqual(got.model(t), want) {
				t.Fatalf("comb w=%d mismatch at k=%v", w, k)
			}
		}
	}
}

func TestEdCombMatchesWNAF(t *testing.T) {
	// same scalar through both kernels must agree
	r := mrand.New(mrand.NewSource(14))
	p := randEdPoint(t, r)
	normalizeEd([]*edPoint{p})
	table := buildEdComb(p, 6)
	for i := 0; i < 10; i++ {
		k := randEdScalar(r)
		kb := ScalarFromBig(k)
		var a, b edPoint
		table.mulComb(&a, &kb)
		var digits [258]int8
		n := wnafDigits(kb[:], &digits)
		edScalarMulWNAF(&b, digits[:n], p)
		if !a.equal(&b) {
			t.Fatalf("comb vs wNAF mismatch at k=%v", k)
		}
	}
}

func TestEdNormalizeBatch(t *testing.T) {
	r := mrand.New(mrand.NewSource(15))
	pts := make([]*edPoint, 17)
	models := make([]edModel, len(pts))
	for i := range pts {
		if i == 5 {
			pts[i] = new(edPoint)
			pts[i].identity()
		} else {
			pts[i] = randEdPoint(t, r)
		}
		models[i] = pts[i].model(t)
	}
	normalizeEd(pts)
	for i, p := range pts {
		if !p.z.Equal(func() *fe25519 { var o fe25519; o.One(); return &o }()) {
			t.Fatalf("entry %d not normalized", i)
		}
		if !modelEqual(p.model(t), models[i]) {
			t.Fatalf("entry %d changed value during normalization", i)
		}
	}
}

func TestEdHashToPointSubgroup(t *testing.T) {
	// hash output must be on-curve and in the prime-order subgroup
	var lb [32]byte
	edOrder.FillBytes(lb[:])
	var digits [258]int8
	n := wnafDigits(lb[:], &digits)
	for i := 0; i < 8; i++ {
		p := edHashToPoint([]byte{byte(i), 0xab})
		checkOnCurve(t, p.model(t))
		var lp edPoint
		edScalarMulWNAF(&lp, digits[:n], p)
		if !lp.isIdentity() {
			t.Fatalf("hash point %d not in prime-order subgroup", i)
		}
		if p.isIdentity() {
			t.Fatalf("hash point %d is identity", i)
		}
	}
	// determinism
	a := edHashToPoint([]byte("crowd"))
	b := edHashToPoint([]byte("crowd"))
	if !a.equal(b) {
		t.Fatal("hash not deterministic")
	}
	c := edHashToPoint([]byte("other"))
	if a.equal(c) {
		t.Fatal("distinct inputs collided")
	}
}

func TestEdFromYRoundTrip(t *testing.T) {
	r := mrand.New(mrand.NewSource(16))
	for i := 0; i < 10; i++ {
		p := randEdPoint(t, r)
		normalizeEd([]*edPoint{p})
		xNeg := p.x.IsNegative()
		q, ok := edFromY(&p.y, xNeg)
		if !ok {
			t.Fatal("edFromY rejected a valid y")
		}
		if !p.equal(q) {
			t.Fatal("edFromY round trip mismatch")
		}
	}
}

func TestEdScalarMulRandomized(t *testing.T) {
	// (a+b)P == aP + bP with crypto/rand scalars
	for i := 0; i < 4; i++ {
		var seed [32]byte
		rand.Read(seed[:])
		p := edHashToPoint(seed[:])
		a, _ := new(big.Int).SetString("123456789123456789123456789", 10)
		b := new(big.Int).Sub(edOrder, big.NewInt(int64(i)+2))
		sum := new(big.Int).Add(a, b)
		sum.Mod(sum, edOrder)
		mulBy := func(k *big.Int) *edPoint {
			var kb [32]byte
			k.FillBytes(kb[:])
			var digits [258]int8
			n := wnafDigits(kb[:], &digits)
			var out edPoint
			edScalarMulWNAF(&out, digits[:n], p)
			return &out
		}
		var lhs edPoint
		lhs.add(mulBy(a), mulBy(b))
		if !lhs.equal(mulBy(sum)) {
			t.Fatal("(a+b)P != aP + bP")
		}
	}
}

// randomScalarBig is the math/big wide reduction Group.RandomScalar used
// to run, kept as the reference its fixed-width reduction is fuzzed against.
func randomScalarBig(rng io.Reader) (Scalar, error) {
	var b [64]byte
	for {
		if _, err := io.ReadFull(rng, b[:]); err != nil {
			return Scalar{}, err
		}
		k := new(big.Int).SetBytes(b[:])
		k.Mod(k, edOrder)
		if k.Sign() != 0 {
			return ScalarFromBig(k), nil
		}
	}
}

// FuzzRandomScalarMatchesBig holds Group.RandomScalar to randomScalarBig
// on the same stream — scalar bytes, error and bytes consumed — and
// reduceWide to big.Int.Mod on the stream's first 64 bytes. The seeds put
// multiples of l (which reduce to zero and must be rejected), l ± 1, powers
// of two and all-ones in the first attempt.
func FuzzRandomScalarMatchesBig(f *testing.F) {
	wideBytes := func(v *big.Int) []byte {
		b := make([]byte, 64)
		v.FillBytes(b)
		return b
	}
	two := big.NewInt(2)
	for _, v := range []*big.Int{
		big.NewInt(0), big.NewInt(1), edOrder,
		new(big.Int).Sub(edOrder, big.NewInt(1)), new(big.Int).Add(edOrder, big.NewInt(1)),
		new(big.Int).Mul(edOrder, two), new(big.Int).Lsh(edOrder, 259),
		new(big.Int).Lsh(big.NewInt(1), 252), new(big.Int).Lsh(big.NewInt(1), 256),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 512), big.NewInt(1)),
	} {
		stream := wideBytes(v)
		f.Add(append(stream, bytes.Repeat([]byte{0x5a}, 64)...))
	}
	f.Add(append(wideBytes(edOrder), wideBytes(new(big.Int).Mul(edOrder, two))...)) // two rejections, then EOF
	f.Add([]byte("short"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) >= 64 {
			var x wide
			for i := range x {
				x[i] = binary.BigEndian.Uint64(stream[56-8*i:])
			}
			got := reduceWide(x)
			want := new(big.Int).Mod(new(big.Int).SetBytes(stream[:64]), edOrder)
			var gotBytes [64]byte
			for i := range got {
				binary.BigEndian.PutUint64(gotBytes[56-8*i:], got[i])
			}
			if new(big.Int).SetBytes(gotBytes[:]).Cmp(want) != 0 {
				t.Fatalf("reduceWide(%x) = %x, math/big says %x", stream[:64], gotBytes, want)
			}
		}
		r1, r2 := bytes.NewReader(stream), bytes.NewReader(stream)
		k1, err1 := Group{}.RandomScalar(r1)
		k2, err2 := randomScalarBig(r2)
		if k1 != k2 || err1 != err2 || r1.Len() != r2.Len() {
			t.Fatalf("RandomScalar = %x, %v with %d bytes left; math/big reference = %x, %v with %d left",
				k1, err1, r1.Len(), k2, err2, r2.Len())
		}
	})
}

func BenchmarkEdCombMul(b *testing.B) {
	r := mrand.New(mrand.NewSource(27))
	var seed [32]byte
	r.Read(seed[:])
	p := edHashToPoint(seed[:])
	normalizeEd([]*edPoint{p})
	table := buildEdComb(p, 6)
	var k Scalar
	r.Read(k[:])
	k[0] &= 0x0f
	b.ReportAllocs()
	b.ResetTimer()
	var out edPoint
	for i := 0; i < b.N; i++ {
		table.mulComb(&out, &k)
	}
}

func BenchmarkEdWNAFMul(b *testing.B) {
	r := mrand.New(mrand.NewSource(28))
	var seed [32]byte
	r.Read(seed[:])
	p := edHashToPoint(seed[:])
	k := make([]byte, 32)
	r.Read(k)
	k[0] &= 0x0f
	var digits [258]int8
	n := wnafDigits(k, &digits)
	b.ReportAllocs()
	b.ResetTimer()
	var out edPoint
	for i := 0; i < b.N; i++ {
		edScalarMulWNAF(&out, digits[:n], p)
	}
}

// BenchmarkEdMulBatch is what the batch API is for: one scalar across a
// 256-point slice (the chunk hybrid and shuffler hand the group), through
// whichever kernel this process selected. ns/point is comparable with
// BenchmarkEdWNAFMul's ns/op.
func BenchmarkEdMulBatch(b *testing.B) {
	r := mrand.New(mrand.NewSource(29))
	ps := make([]Element, 256)
	for i := range ps {
		var seed [32]byte
		r.Read(seed[:])
		ps[i] = Element{ed: edHashToPoint(seed[:])}
	}
	k := ScalarFromBig(randEdScalar(r))
	dst := make([]Element, len(ps))
	for _, dh := range []bool{false, true} {
		name := "plain"
		if dh {
			name = "dh"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mulBatch(dst, ps, k, dh)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)), "ns/point")
		})
	}
}
