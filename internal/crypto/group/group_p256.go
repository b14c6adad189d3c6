// The P-256 Group backend: the reference the ristretto255 stack is tested
// against. Every point operation is a crypto/elliptic call on affine
// coordinates, so the only arithmetic written here is what the standard
// library has no entry point for — the curve equation, for the
// try-and-increment hash and for validating decoded points. No deployment
// runs this backend and nothing about it is tuned: MulBatch and a
// CombBatch are loops, Normalize has nothing to do, a Precompute table
// multiplies from scratch.
// What it must keep is its bytes: SEC1 wire and compressed encodings, the
// x-coordinate shared secret crypto/ecdh derives, and 32 rng bytes per
// RandomScalar attempt.

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

var (
	p256Curve = elliptic.P256()
	p256P     = p256Curve.Params().P
	p256N     = p256Curve.Params().N
	p256B     = p256Curve.Params().B
	p256Three = big.NewInt(3)
)

// p256Point is an affine point. The point at infinity is (0, 0), which is
// how crypto/elliptic reports and accepts it; coordinates are never mutated,
// so points may share them.
type p256Point struct{ x, y *big.Int }

var p256Infinity = &p256Point{new(big.Int), new(big.Int)}

func (p *p256Point) isInfinity() bool { return p.x.Sign() == 0 && p.y.Sign() == 0 }

func p256Element(x, y *big.Int) Element { return Element{ref: &p256Point{x, y}} }

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

func (p256Group) Identity() Element { return Element{ref: p256Infinity} }

func (p256Group) Generator() Element {
	return p256Element(p256Curve.Params().Gx, p256Curve.Params().Gy)
}

func (p256Group) BaseMul(k Scalar) Element {
	return p256Element(p256Curve.ScalarBaseMult(mustScalar(k)[:]))
}

func (g p256Group) Mul(p Element, k Scalar) Element {
	pt := p.p256(g)
	if pt.isInfinity() {
		return g.Identity()
	}
	return p256Element(p256Curve.ScalarMult(pt.x, pt.y, mustScalar(k)[:]))
}

func (g p256Group) MulBatch(dst, ps []Element, k Scalar) {
	if len(dst) != len(ps) {
		panic("group: MulBatch length mismatch")
	}
	for i := range ps {
		dst[i] = g.Mul(ps[i], k)
	}
}

// p256Table is the reference Table: no table, one ScalarMult per call.
type p256Table struct{ p Element }

func (t p256Table) Mul(k Scalar) Element { return p256Group{}.Mul(t.p, k) }

// mulTables is CombBatch.Run: a loop over Mul and Add.
func (g p256Group) mulTables(dst []Element, slots []combSlot) {
	for i, s := range slots {
		dst[i] = g.Add(s.t.Mul(s.k), s.q)
	}
}

func (p256Group) Precompute(p Element) Table { return p256Table{p} }

func (g p256Group) BaseTable() Table { return p256Table{g.Generator()} }

func (g p256Group) Add(p, q Element) Element {
	a, b := p.p256(g), q.p256(g)
	return p256Element(p256Curve.Add(a.x, a.y, b.x, b.y))
}

func (g p256Group) Sub(p, q Element) Element { return g.Add(p, g.Neg(q)) }

func (g p256Group) Neg(p Element) Element {
	pt := p.p256(g)
	if pt.isInfinity() {
		return g.Identity()
	}
	return p256Element(pt.x, new(big.Int).Sub(p256P, pt.y))
}

func (g p256Group) Equal(p, q Element) bool {
	a, b := p.p256(g), q.p256(g)
	return a.x.Cmp(b.x) == 0 && a.y.Cmp(b.y) == 0
}

func (g p256Group) IsIdentity(p Element) bool { return p.p256(g).isInfinity() }

// p256CurveRHS returns x^3 - 3x + b mod p, the right-hand side of the curve
// equation.
func p256CurveRHS(x *big.Int) *big.Int {
	y2 := new(big.Int).Exp(x, p256Three, p256P)
	y2.Sub(y2, new(big.Int).Mul(p256Three, x))
	y2.Add(y2, p256B)
	return y2.Mod(y2, p256P)
}

func (p256Group) HashToElement(data []byte) Element {
	h := sha256.New()
	var cb [4]byte
	for ctr := uint32(0); ; ctr++ {
		h.Reset()
		h.Write([]byte("prochlo-h2c"))
		h.Write(data)
		binary.BigEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		x := new(big.Int).SetBytes(h.Sum(nil))
		x.Mod(x, p256P)
		if y := new(big.Int).ModSqrt(p256CurveRHS(x), p256P); y != nil {
			return p256Element(x, y)
		}
	}
}

// Normalize has nothing to do: every element is already affine.
func (p256Group) Normalize([]Element) {}

func (g p256Group) Encode(p Element) []byte {
	pt := p.p256(g)
	if pt.isInfinity() {
		return identityEncoding
	}
	out := make([]byte, WireSize)
	out[0] = tagP256
	pt.x.FillBytes(out[1:33])
	pt.y.FillBytes(out[33:65])
	return out
}

func (g p256Group) Compress(p Element) []byte {
	pt := p.p256(g)
	if pt.isInfinity() {
		return identityEncoding
	}
	out := make([]byte, 33)
	out[0] = 0x02 | byte(pt.y.Bit(0))
	pt.x.FillBytes(out[1:])
	return out
}

func (g p256Group) Decode(b []byte) (Element, error) {
	switch {
	case len(b) == 1 && b[0] == 0:
		return g.Identity(), nil
	case len(b) == WireSize && b[0] == tagP256:
		x := new(big.Int).SetBytes(b[1:33])
		y := new(big.Int).SetBytes(b[33:65])
		if x.Cmp(p256P) >= 0 || y.Cmp(p256P) >= 0 {
			return Element{}, errors.New("group: p256 coordinate out of range")
		}
		// crypto/elliptic panics on a point off the curve, so nothing
		// unvalidated may reach it. (0, 0) fails here too: b != 0.
		y2 := new(big.Int).Mul(y, y)
		if y2.Mod(y2, p256P).Cmp(p256CurveRHS(x)) != 0 {
			return Element{}, errors.New("group: p256 point not on curve")
		}
		return p256Element(x, y), nil
	case len(b) == 33 && (b[0] == 0x02 || b[0] == 0x03):
		x, y := elliptic.UnmarshalCompressed(p256Curve, b)
		if x == nil {
			return Element{}, errors.New("group: invalid compressed p256 point")
		}
		return p256Element(x, y), nil
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
	return pt.x.FillBytes(make([]byte, 32))
}

// p256 extracts the backend point, treating the zero Element as identity
// and rejecting cross-backend mixing.
func (e Element) p256(p256Group) *p256Point {
	if e.ed != nil {
		panic("group: ristretto255 element passed to the p256 group")
	}
	if e.ref == nil {
		return p256Infinity
	}
	return e.ref
}
