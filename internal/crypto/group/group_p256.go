// The P-256 Group backend. Point addition, normalization, and fixed-point
// comb multiplication run on the Jacobian/Montgomery kernels in p256.go;
// variable-point and base-point multiplications delegate to crypto/elliptic,
// whose assembly nistec code is faster than any portable Go kernel. Wire
// and compressed encodings are SEC1, byte-compatible with the
// crypto/elliptic + crypto/ecdh paths this backend replaced.

package group

import (
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"math/big"
)

type p256Group struct{}

func (p256Group) Name() string    { return "p256" }
func (p256Group) Order() *big.Int { return p256N }

func (p256Group) RandomScalar(rng io.Reader) (Scalar, error) {
	// True rejection sampling in [1, n-1]: each attempt consumes exactly
	// 32 bytes, so seeded streams are deterministic; a candidate out of
	// range is discarded, never folded back with Mod (which would bias
	// low residues).
	var b [32]byte
	for {
		if _, err := io.ReadFull(rng, b[:]); err != nil {
			return nil, err
		}
		k := new(big.Int).SetBytes(b[:])
		if k.Sign() != 0 && k.Cmp(p256N) < 0 {
			return ScalarFromBig(k), nil
		}
	}
}

func (p256Group) Identity() Element { return Element{pj: &p256Point{}} }

func (p256Group) Generator() Element {
	var p p256Point
	p.fromAffineBig(p256Curve.Params().Gx, p256Curve.Params().Gy)
	return Element{pj: &p}
}

func (g p256Group) BaseMul(k Scalar) Element {
	kb := mustScalar(k)
	x, y := p256Curve.ScalarBaseMult(kb[:])
	var p p256Point
	p.fromAffineBig(x, y)
	return Element{pj: &p}
}

func (g p256Group) Mul(p Element, k Scalar) Element {
	pt := p.p256(g)
	if pt.isInfinity() {
		return g.Identity()
	}
	kb := mustScalar(k)
	ax, ay := pt.affineBig()
	x, y := p256Curve.ScalarMult(ax, ay, kb[:])
	var out p256Point
	out.fromAffineBig(x, y)
	return Element{pj: &out}
}

func (g p256Group) MulBatch(dst, ps []Element, k Scalar) {
	if len(dst) != len(ps) {
		panic("group: MulBatch length mismatch")
	}
	kb := mustScalar(k)
	// normalize inputs first so each ScalarMult gets affine coordinates
	// from one shared inversion instead of one per point
	g.Normalize(ps)
	for i := range ps {
		pt := ps[i].p256(g)
		if pt.isInfinity() {
			dst[i] = g.Identity()
			continue
		}
		x, y := p256Curve.ScalarMult(pt.x.toBig(), pt.y.toBig(), kb[:])
		var out p256Point
		out.fromAffineBig(x, y)
		dst[i] = Element{pj: &out}
	}
}

type p256Table struct {
	comb *p256CombTable
}

func (t *p256Table) Mul(k Scalar) Element {
	kb := mustScalar(k)
	var out p256Point
	t.comb.mulComb(&out, kb[:])
	return Element{pj: &out}
}

func (g p256Group) Precompute(p Element) Table {
	pt := p.p256(g)
	x, y := pt.affineBig()
	return &p256Table{comb: buildP256Comb(x, y, 6)}
}

func (g p256Group) Add(p, q Element) Element {
	var out p256Point
	out.add(p.p256(g), q.p256(g))
	return Element{pj: &out}
}

func (g p256Group) Sub(p, q Element) Element {
	var nq p256Point
	qq := q.p256(g)
	if !qq.isInfinity() {
		nq = *qq
		nq.y.Neg(&nq.y)
	}
	var out p256Point
	out.add(p.p256(g), &nq)
	return Element{pj: &out}
}

func (g p256Group) Neg(p Element) Element {
	pt := p.p256(g)
	if pt.isInfinity() {
		return g.Identity()
	}
	out := *pt
	out.y.Neg(&out.y)
	return Element{pj: &out}
}

func (g p256Group) Equal(p, q Element) bool {
	a, b := p.p256(g), q.p256(g)
	if a.isInfinity() || b.isInfinity() {
		return a.isInfinity() == b.isInfinity()
	}
	// x1*z2^2 == x2*z1^2 and y1*z2^3 == y2*z1^3
	var z1z1, z2z2, t1, t2 fep256
	z1z1.Square(&a.z)
	z2z2.Square(&b.z)
	t1.montMul(&a.x, &z2z2)
	t2.montMul(&b.x, &z1z1)
	if t1 != t2 {
		return false
	}
	var z1z1z1, z2z2z2 fep256
	z1z1z1.montMul(&z1z1, &a.z)
	z2z2z2.montMul(&z2z2, &b.z)
	t1.montMul(&a.y, &z2z2z2)
	t2.montMul(&b.y, &z1z1z1)
	return t1 == t2
}

func (g p256Group) IsIdentity(p Element) bool { return p.p256(g).isInfinity() }

// p256HashParams holds the constants of the try-and-increment loop, hoisted
// out of the per-candidate iteration: the historical implementation
// allocated big.NewInt(3) and re-fetched curve.Params() on every attempt.
var p256HashParams = struct {
	p, b, three *big.Int
}{p256P, p256Curve.Params().B, big.NewInt(3)}

func (g p256Group) HashToElement(data []byte) Element {
	p := p256HashParams.p
	b := p256HashParams.b
	three := p256HashParams.three
	h := sha256.New()
	var cb [4]byte
	for ctr := uint32(0); ; ctr++ {
		h.Reset()
		h.Write([]byte("prochlo-h2c"))
		h.Write(data)
		binary.BigEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		x := new(big.Int).SetBytes(h.Sum(nil))
		x.Mod(x, p)
		// y^2 = x^3 - 3x + b mod p
		y2 := new(big.Int).Exp(x, three, p)
		y2.Sub(y2, new(big.Int).Mul(three, x))
		y2.Add(y2, b)
		y2.Mod(y2, p)
		y := new(big.Int).ModSqrt(y2, p)
		if y == nil {
			continue
		}
		var out p256Point
		out.fromAffineBig(x, y)
		return Element{pj: &out}
	}
}

func (g p256Group) Normalize(ps []Element) {
	pts := make([]*p256Point, len(ps))
	for i := range ps {
		pts[i] = ps[i].p256(g)
		ps[i] = Element{pj: pts[i]}
	}
	normalizeP256(pts)
}

// p256BytesOf writes the canonical big-endian bytes of a Montgomery field
// element without going through big.Int.
func p256BytesOf(v *fep256, dst []byte) {
	one := fep256{1, 0, 0, 0}
	var plain fep256
	plain.montMul(v, &one)
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(dst[24-8*i:], plain[i])
	}
}

func (g p256Group) Encode(p Element) []byte {
	pt := p.p256(g)
	if pt.isInfinity() {
		return identityEncoding
	}
	if pt.z != p256MontID {
		normalizeP256([]*p256Point{pt})
	}
	out := make([]byte, WireSize)
	out[0] = tagP256
	p256BytesOf(&pt.x, out[1:33])
	p256BytesOf(&pt.y, out[33:65])
	return out
}

func (g p256Group) Compress(p Element) []byte {
	pt := p.p256(g)
	if pt.isInfinity() {
		return identityEncoding
	}
	if pt.z != p256MontID {
		normalizeP256([]*p256Point{pt})
	}
	out := make([]byte, 33)
	p256BytesOf(&pt.x, out[1:])
	var ybytes [32]byte
	p256BytesOf(&pt.y, ybytes[:])
	out[0] = 0x02 | (ybytes[31] & 1)
	return out
}

// p256OnCurve checks y^2 == x^3 - 3x + b in the Montgomery field.
func p256OnCurve(x, y *fep256) bool {
	var lhs, rhs, t fep256
	lhs.Square(y)
	rhs.Square(x)
	rhs.montMul(&rhs, x)
	t.montMul(&p256Mont3, x)
	rhs.Sub(&rhs, &t)
	rhs.Add(&rhs, &p256MontB)
	return lhs == rhs
}

func (g p256Group) Decode(b []byte) (Element, error) {
	switch {
	case len(b) == 1 && b[0] == 0:
		return g.Identity(), nil
	case len(b) == WireSize && b[0] == tagP256:
		xb := new(big.Int).SetBytes(b[1:33])
		yb := new(big.Int).SetBytes(b[33:65])
		if xb.Cmp(p256P) >= 0 || yb.Cmp(p256P) >= 0 {
			return Element{}, errors.New("group: p256 coordinate out of range")
		}
		var pt p256Point
		pt.fromAffineBig(xb, yb)
		if pt.isInfinity() || !p256OnCurve(&pt.x, &pt.y) {
			return Element{}, errors.New("group: p256 point not on curve")
		}
		return Element{pj: &pt}, nil
	case len(b) == 33 && (b[0] == 0x02 || b[0] == 0x03):
		x, y := elliptic.UnmarshalCompressed(p256Curve, b)
		if x == nil {
			return Element{}, errors.New("group: invalid compressed p256 point")
		}
		var pt p256Point
		pt.fromAffineBig(x, y)
		return Element{pj: &pt}, nil
	}
	return Element{}, errors.New("group: invalid p256 encoding")
}

func (p256Group) PrepareDH(k Scalar) Scalar {
	out := make(Scalar, len(k))
	copy(out, k)
	return out
}

func (g p256Group) MulDH(p Element, k Scalar) Element { return g.Mul(p, k) }

func (g p256Group) MulDHBatch(dst, ps []Element, k Scalar) { g.MulBatch(dst, ps, k) }

func (g p256Group) SharedBytes(p Element) []byte {
	pt := p.p256(g)
	if pt.isInfinity() {
		return nil
	}
	if pt.z != p256MontID {
		normalizeP256([]*p256Point{pt})
	}
	out := make([]byte, 32)
	p256BytesOf(&pt.x, out)
	return out
}

// p256 extracts the backend point, treating the zero Element as identity
// and rejecting cross-backend mixing.
func (e Element) p256(p256Group) *p256Point {
	if e.ed != nil {
		panic("group: ristretto255 element passed to the p256 group")
	}
	if e.pj == nil {
		return &p256Point{}
	}
	return e.pj
}
