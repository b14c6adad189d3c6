// The ristretto255 Group backend: arithmetic in the prime-order subgroup of
// edwards25519 on the extended-coordinate kernels in ed25519.go, ristretto
// Elligator hash-to-group with cofactor clearing, and a DH path that
// multiplies untrusted points by the cofactor (compensated by 8^-1 folded
// into the prepared private scalar) so small-subgroup components can never
// probe a private key.
//
// Encodings: the 65-byte wire form is 0x05 || x || y (little-endian field
// elements, canonical), so parsing costs a curve-equation check and no
// square root; the 32-byte compressed form packs Edwards y with the sign of
// x in the top bit (RFC 8032 layout). Within the prime-order subgroup the
// affine pair is unique per element, which makes both forms canonical —
// two equal elements always compress identically, the property the blinded
// pseudonym histogram keys rely on. Decoded points are only guaranteed
// subgroup members when they came from honest encoders; a torsion component
// added by a malicious client changes only that client's own pseudonym
// (self-harm equivalent to submitting a random crowd ID), and the DH path
// clears it.

package group

import (
	"encoding/binary"
	"errors"
	"io"
	"math/big"
	"slices"
)

type edGroup struct{}

func (edGroup) Name() string    { return "ristretto255" }
func (edGroup) Order() *big.Int { return edOrder }

func (edGroup) RandomScalar(rng io.Reader) (Scalar, error) {
	// Wide reduction: 64 uniform bytes mod the ~252-bit order leave
	// negligible bias, and every attempt consumes exactly 64 bytes so
	// seeded streams stay deterministic. Zero (probability ~2^-252) is
	// rejected to keep scalars invertible.
	var b [64]byte
	for {
		if _, err := io.ReadFull(rng, b[:]); err != nil {
			return nil, err
		}
		var x wide
		for i := range x {
			x[i] = binary.BigEndian.Uint64(b[56-8*i:])
		}
		if k := reduceWide(x); k != (wide{}) {
			out := make(Scalar, ScalarSize)
			for i := 0; i < 4; i++ {
				binary.BigEndian.PutUint64(out[24-8*i:], k[i])
			}
			return out, nil
		}
	}
}

func (edGroup) Identity() Element {
	var p edPoint
	p.identity()
	return Element{ed: &p}
}

func (edGroup) Generator() Element {
	p := edBase
	return Element{ed: &p}
}

func (edGroup) BaseMul(k Scalar) Element { return edBaseTable().Mul(k) }

func (g edGroup) Mul(p Element, k Scalar) Element {
	kb := mustScalar(k)
	var digits [258]int8
	n := wnafDigits(kb[:], &digits)
	var out edPoint
	edScalarMulWNAF(&out, digits[:n], p.edwards(g))
	return Element{ed: &out}
}

func (g edGroup) MulBatch(dst, ps []Element, k Scalar) { g.mulBatch(dst, ps, k, false) }

// laneLadder, when set, is the vector form of mulBatch's loop: outs[i] =
// k*ps[i] for the scalar with the given wNAF digits, each point cofactor-
// cleared first when dh. Package init sets it once, on amd64 hosts whose CPU
// reports AVX-512 IFMA (ed25519x8_amd64.go), and nothing else writes it
// outside tests; nil means the scalar ladder is the only path.
var laneLadder func(outs []edPoint, ps []Element, digits []int8, dh bool)

// mulBatch is MulBatch and, with dh set, MulDHBatch (each point is cofactor-
// cleared first): the shared scalar is recoded once per slice and all
// results live in one allocation.
func (g edGroup) mulBatch(dst, ps []Element, k Scalar, dh bool) {
	if len(dst) != len(ps) {
		panic("group: MulBatch length mismatch")
	}
	kb := mustScalar(k)
	var digits [258]int8
	n := wnafDigits(kb[:], &digits)
	outs := make([]edPoint, len(ps))
	if laneLadder != nil {
		laneLadder(outs, ps, digits[:n], dh)
	} else {
		for i := range ps {
			q := ps[i].edwards(g)
			if dh {
				outs[i].clearCofactor(q)
				q = &outs[i]
			}
			edScalarMulWNAF(&outs[i], digits[:n], q)
		}
	}
	for i := range outs {
		dst[i] = Element{ed: &outs[i]}
	}
}

type edTable struct {
	comb *edCombTable
}

func (t *edTable) Mul(k Scalar) Element {
	var out edPoint
	t.comb.mulComb(&out, k)
	return Element{ed: &out}
}

// edCombMul is one multiplication of a comb batch: *out = k*P + *q for the
// point P of t, where a nil q is the identity.
type edCombMul struct {
	t   *edCombTable
	k   Scalar
	q   *edPoint
	out *edPoint
}

// laneComb, when set, is the vector form of mulTables's loop, eight
// multiplications per pass from any mix of tables. Package init sets it
// beside laneLadder, on the same hosts (ed25519x8_amd64.go), and nothing
// else writes it outside tests; nil means mulComb is the only path.
var laneComb func(ms []edCombMul)

// combLaneMin is the fewest multiplications the lane comb takes: an
// eight-lane pass costs about the same however many lanes are live, about
// one and a half mulComb calls, so a lone multiplication loses to mulComb
// and two already win (BenchmarkEdCombBatch). A batch's last group is held
// to the same cutoff.
const combLaneMin = 2

// mulTables is CombBatch.Run. A pass costs as many positions as its longest
// table has, so the multiplications go to the lanes longest table first,
// in slot order among equals: every pass but one reads tables of a single
// length, and a group of fewer than combLaneMin left for mulComb reads the
// shortest.
func (g edGroup) mulTables(dst []Element, slots []combSlot) {
	outs := make([]edPoint, len(slots))
	ms := make([]edCombMul, len(slots))
	for i, s := range slots {
		ms[i] = edCombMul{t: s.t.(*edTable).comb, k: s.k, out: &outs[i]}
		if s.q != (Element{}) {
			ms[i].q = s.q.edwards(g)
		}
		dst[i] = Element{ed: &outs[i]}
	}
	slices.SortStableFunc(ms, func(a, b edCombMul) int { return b.t.positions - a.t.positions })
	lanes := 0
	if laneComb != nil {
		lanes = len(ms)
		if tail := lanes % 8; tail < combLaneMin {
			lanes -= tail
		}
		laneComb(ms[:lanes])
	}
	for _, m := range ms[lanes:] {
		m.t.mulComb(m.out, m.k)
		if m.q != nil {
			m.out.add(m.out, m.q)
		}
	}
}

func (edGroup) BaseTable() Table { return edBaseTable() }

func (g edGroup) Precompute(p Element) Table {
	pt := *p.edwards(g)
	normalizeEd([]*edPoint{&pt})
	return &edTable{comb: buildEdComb(&pt, 6)}
}

func (g edGroup) Add(p, q Element) Element {
	var out edPoint
	out.add(p.edwards(g), q.edwards(g))
	return Element{ed: &out}
}

func (g edGroup) Sub(p, q Element) Element {
	var nq, out edPoint
	nq.neg(q.edwards(g))
	out.add(p.edwards(g), &nq)
	return Element{ed: &out}
}

func (g edGroup) Neg(p Element) Element {
	var out edPoint
	out.neg(p.edwards(g))
	return Element{ed: &out}
}

func (g edGroup) Equal(p, q Element) bool { return p.edwards(g).equal(q.edwards(g)) }

func (g edGroup) IsIdentity(p Element) bool { return p.edwards(g).isIdentity() }

func (g edGroup) HashToElement(data []byte) Element {
	return Element{ed: edHashToPoint(data)}
}

func (g edGroup) Normalize(ps []Element) {
	pts := make([]*edPoint, len(ps))
	for i := range ps {
		pts[i] = ps[i].edwards(g)
		ps[i] = Element{ed: pts[i]}
	}
	normalizeEd(pts)
}

func (g edGroup) Encode(p Element) []byte {
	pt := p.edwards(g)
	if pt.isIdentity() {
		return identityEncoding
	}
	var one fe25519
	one.One()
	if !pt.z.Equal(&one) {
		normalizeEd([]*edPoint{pt})
	}
	out := make([]byte, WireSize)
	out[0] = tagRistretto
	pt.x.Bytes(out[1:1:33])
	pt.y.Bytes(out[33:33:65])
	return out
}

func (g edGroup) Compress(p Element) []byte {
	pt := p.edwards(g)
	if pt.isIdentity() {
		return identityEncoding
	}
	var one fe25519
	one.One()
	if !pt.z.Equal(&one) {
		normalizeEd([]*edPoint{pt})
	}
	out := pt.y.Bytes(make([]byte, 0, 32))
	if pt.x.IsNegative() {
		out[31] |= 0x80
	}
	return out
}

// edOnCurve checks -x^2 + y^2 == 1 + d*x^2*y^2.
func edOnCurve(x, y *fe25519) bool {
	var x2, y2, lhs, rhs, one fe25519
	one.One()
	x2.Square(x)
	y2.Square(y)
	lhs.Sub(&y2, &x2)
	rhs.Mul(&x2, &y2)
	rhs.Mul(&rhs, &edD)
	rhs.Add(&rhs, &one)
	return lhs.Equal(&rhs)
}

func (g edGroup) Decode(b []byte) (Element, error) {
	switch {
	case len(b) == 1 && b[0] == 0:
		return g.Identity(), nil
	case len(b) == WireSize && b[0] == tagRistretto:
		if !isCanonicalBytes25519(b[1:33]) || b[32]&0x80 != 0 ||
			!isCanonicalBytes25519(b[33:65]) || b[64]&0x80 != 0 {
			return Element{}, errors.New("group: non-canonical ristretto255 coordinate")
		}
		var pt edPoint
		pt.x.SetBytes(b[1:33])
		pt.y.SetBytes(b[33:65])
		if !edOnCurve(&pt.x, &pt.y) {
			return Element{}, errors.New("group: ristretto255 point not on curve")
		}
		pt.z.One()
		pt.t.Mul(&pt.x, &pt.y)
		if pt.isIdentity() {
			return Element{}, errors.New("group: identity must use the 1-byte encoding")
		}
		return Element{ed: &pt}, nil
	case len(b) == 32:
		yb := make([]byte, 32)
		copy(yb, b)
		xNeg := yb[31]&0x80 != 0
		yb[31] &= 0x7f
		if !isCanonicalBytes25519(yb) {
			return Element{}, errors.New("group: non-canonical ristretto255 y")
		}
		var y fe25519
		y.SetBytes(yb)
		pt, ok := edFromY(&y, xNeg)
		if !ok {
			return Element{}, errors.New("group: invalid compressed ristretto255 point")
		}
		return Element{ed: pt}, nil
	}
	return Element{}, errors.New("group: invalid ristretto255 encoding")
}

func (edGroup) PrepareDH(k Scalar) Scalar {
	// Fold 8^-1 mod l into the scalar: MulDH multiplies untrusted points
	// by 8 (cofactor clearing), and the inverse factor cancels it for
	// honest subgroup points, leaving k*P.
	v := new(big.Int).SetBytes(k)
	v.Mul(v, edInv8)
	v.Mod(v, edOrder)
	return ScalarFromBig(v)
}

func (g edGroup) MulDH(p Element, k Scalar) Element {
	var cleared edPoint
	cleared.clearCofactor(p.edwards(g))
	return g.Mul(Element{ed: &cleared}, k)
}

func (g edGroup) MulDHBatch(dst, ps []Element, k Scalar) { g.mulBatch(dst, ps, k, true) }

func (g edGroup) SharedBytes(p Element) []byte {
	return g.Compress(p)
}

// edwards extracts the backend point, treating the zero Element as identity
// and rejecting cross-backend mixing.
func (e Element) edwards(edGroup) *edPoint {
	if e.ref != nil {
		panic("group: p256 element passed to the ristretto255 group")
	}
	if e.ed == nil {
		var p edPoint
		p.identity()
		return &p
	}
	return e.ed
}
