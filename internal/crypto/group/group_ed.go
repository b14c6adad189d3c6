// Group's methods: ristretto255 arithmetic in the prime-order subgroup of
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
	"math/rand/v2"
	"slices"
)

// Order returns the group order (callers must not mutate it).
func (Group) Order() *big.Int { return edOrder }

// RandomScalar samples a uniform non-zero scalar by wide reduction. Every
// attempt consumes exactly 64 bytes of rng, so seeded streams stay
// deterministic.
func (Group) RandomScalar(rng io.Reader) (Scalar, error) {
	// 64 uniform bytes mod the ~252-bit order leave negligible bias. Zero
	// (probability ~2^-252) is rejected to keep scalars invertible.
	var b [64]byte
	for {
		if err := read64(rng, &b); err != nil {
			return Scalar{}, err
		}
		var x wide
		for i := range x {
			x[i] = binary.BigEndian.Uint64(b[56-8*i:])
		}
		if k := reduceWide(x); k != (wide{}) {
			var out Scalar
			for i := 0; i < 4; i++ {
				binary.BigEndian.PutUint64(out[24-8*i:], k[i])
			}
			return out, nil
		}
	}
}

// read64 fills b from rng. A ChaCha8 — every batch path's per-record stream
// (hybrid.Seeds) — fills it in place; any other reader reads through a
// buffer of its own, since a slice handed to an interface method escapes.
func read64(rng io.Reader, b *[64]byte) error {
	if c, ok := rng.(*rand.ChaCha8); ok {
		c.Read(b[:])
		return nil
	}
	buf := make([]byte, len(b))
	if _, err := io.ReadFull(rng, buf); err != nil {
		return err
	}
	copy(b[:], buf)
	return nil
}

// Identity returns the neutral element.
func (Group) Identity() Element {
	var p edPoint
	p.identity()
	return Element{ed: &p}
}

// BaseMul returns k*G via the precomputed base table.
func (Group) BaseMul(k Scalar) Element { return edBaseTable().Mul(k) }

// Mul returns k*P for a variable point.
func (Group) Mul(p Element, k Scalar) Element {
	var digits [258]int8
	n := wnafDigits(k[:], &digits)
	var out edPoint
	edScalarMulWNAF(&out, digits[:n], p.edwards())
	return Element{ed: &out}
}

// MulBatch sets dst[i] = k*ps[i] for a scalar fixed across the batch, for
// callers that hold elements: it normalizes ps in place (the same
// elements), runs MulEncode on their encodings and decodes the products,
// all of them in one allocation. dst and ps may alias. The batch paths
// hold bytes and call MulEncode directly.
func (g Group) MulBatch(dst, ps []Element, k Scalar) {
	if len(dst) != len(ps) {
		panic("group: MulBatch length mismatch")
	}
	g.Normalize(ps)
	in := make([][]byte, len(ps))
	for i, p := range ps {
		in[i] = g.Encode(nil, p)
	}
	enc, lens := make([]byte, WireSize*len(ps)), make([]uint8, len(ps))
	g.MulEncode(&MulOp{K: k, Form: WireSize}, enc, lens, in, nil)
	outs := make([]edPoint, len(ps))
	for i := range outs {
		if decode(&outs[i], enc[WireSize*i:WireSize*i+int(lens[i])]) != nil {
			panic("group: MulEncode wrote an encoding decode refuses")
		}
		dst[i] = Element{ed: &outs[i]}
	}
}

// Mul returns k*P for the table's fixed point P. The result may be in
// projective form; batch callers put their multiplications in a CombBatch
// instead.
func (t *Table) Mul(k Scalar) Element {
	var out edPoint
	t.mulComb(&out, &k)
	return Element{ed: &out}
}

// edCombMul is one multiplication of a comb batch: k*P + *q for the point
// P of t, where a nil q is the identity, whose encoding in form goes to
// the batch's slot.
type edCombMul struct {
	t    *Table
	k    Scalar
	q    *edPoint
	slot int32
	form uint8
}

// laneComb, when set, is the lane form of combEncodeScalar, eight
// multiplications per pass from any mix of tables. Package init sets it
// beside laneLadder, on the same hosts (ed25519x8_amd64.go), and nothing
// else writes it outside tests; nil means mulComb is the only path.
var laneComb func(ms []edCombMul, out sink)

// combLaneMin is the fewest multiplications the lane comb takes: an
// eight-lane pass costs about the same however many lanes are live, about
// one and a half mulComb calls, so a lone multiplication loses to mulComb
// and two already win (BenchmarkEdCombBatch). A batch's last group is held
// to the same cutoff.
const combLaneMin = 2

// combEncodeScalar is one chunk of a CombBatch's Run on the scalar comb.
func combEncodeScalar(ms []edCombMul, out sink) {
	s := pointScratches.Get().(*pointScratch)
	pts := s.pts[:len(ms)]
	for j := range ms {
		m := &ms[j]
		m.t.mulComb(&pts[j], &m.k)
		if m.q != nil {
			pts[j].add(&pts[j], m.q)
		}
	}
	encodePoints(pts, s.prefix[:len(ms)], &out)
	pointScratches.Put(s)
}

// combOrder fills order with the indices of ms in the order the lanes take
// them. A pass costs as many positions as its longest table has, so the
// longest tables come first, in index order among equals — one stable
// counting pass by table length — and every pass but one reads tables of a
// single length, and a group of fewer than combLaneMin left for mulComb
// reads the shortest.
func combOrder(ms []edCombMul, order []int32) {
	var at [edCombMaxPositions + 1]int
	for i := range ms {
		at[ms[i].t.positions]++
	}
	next := 0
	for p := edCombMaxPositions; p >= 0; p-- {
		at[p], next = next, next+at[p]
	}
	for i := range ms {
		p := ms[i].t.positions
		order[at[p]] = int32(i)
		at[p]++
	}
}

// BaseTable returns the generator's table, built once per process:
// BaseTable().Mul(k) is BaseMul(k).
func (Group) BaseTable() *Table { return edBaseTable() }

// Precompute builds a comb table for a point fixed across batches.
func (Group) Precompute(p Element) *Table {
	pt := *p.edwards()
	normalizeEd([]*edPoint{&pt})
	return buildEdComb(&pt, 6)
}

// Add returns p + q.
func (Group) Add(p, q Element) Element {
	var out edPoint
	out.add(p.edwards(), q.edwards())
	return Element{ed: &out}
}

// Sub returns p - q.
func (Group) Sub(p, q Element) Element {
	var nq, out edPoint
	nq.neg(q.edwards())
	out.add(p.edwards(), &nq)
	return Element{ed: &out}
}

// Equal reports p == q (projective-aware).
func (Group) Equal(p, q Element) bool { return p.edwards().equal(q.edwards()) }

// IsIdentity reports whether p is the neutral element.
func (Group) IsIdentity(p Element) bool { return p.edwards().isIdentity() }

// HashToElement maps data to a group element (ristretto Elligator with
// cofactor clearing).
func (Group) HashToElement(data []byte) Element {
	return Element{ed: edHashToPoint(data)}
}

// Normalize converts a slice of elements to affine form with one shared
// field inversion.
func (Group) Normalize(ps []Element) {
	pts := make([]*edPoint, len(ps))
	for i := range ps {
		pts[i] = ps[i].edwards()
		ps[i] = Element{ed: pts[i]}
	}
	normalizeEd(pts)
}

// affine returns p's point scaled to z == 1, in place, and whether it is
// the identity (left as it is).
func affine(p Element) (*edPoint, bool) {
	pt := p.edwards()
	if pt.isIdentity() {
		return pt, true
	}
	if pt.z != (fe25519{1}) {
		normalizeEd([]*edPoint{pt})
	}
	return pt, false
}

// Encode appends the wire encoding of p to dst: {0} for identity, else
// WireSize bytes.
func (Group) Encode(dst []byte, p Element) []byte {
	pt, identity := affine(p)
	if identity {
		return append(dst, 0)
	}
	dst = append(slices.Grow(dst, WireSize), tagRistretto)
	dst = pt.x.Bytes(dst)
	return pt.y.Bytes(dst)
}

// Compress appends the short canonical encoding of p, the form used as a map
// key, to dst: {0} for identity, else 32 bytes.
func (Group) Compress(dst []byte, p Element) []byte {
	pt, identity := affine(p)
	if identity {
		return append(dst, 0)
	}
	dst = pt.y.Bytes(slices.Grow(dst, 32))
	if pt.x.IsNegative() {
		dst[len(dst)-1] |= 0x80
	}
	return dst
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

// Decode parses either encoding (wire or compressed) and validates it.
func (Group) Decode(b []byte) (Element, error) {
	pt := new(edPoint)
	if err := decode(pt, b); err != nil {
		return Element{}, err
	}
	return Element{ed: pt}, nil
}

// Valid reports whether Decode accepts b, without keeping the point.
func (Group) Valid(b []byte) bool {
	var pt edPoint
	return decode(&pt, b) == nil
}

// decode is Decode into pt.
func decode(pt *edPoint, b []byte) error {
	switch {
	case len(b) == 1 && b[0] == 0:
		pt.identity()
		return nil
	case len(b) == WireSize && b[0] == tagRistretto:
		if !isCanonicalBytes25519(b[1:33]) || b[32]&0x80 != 0 ||
			!isCanonicalBytes25519(b[33:65]) || b[64]&0x80 != 0 {
			return errors.New("group: non-canonical ristretto255 coordinate")
		}
		pt.x.SetBytes(b[1:33])
		pt.y.SetBytes(b[33:65])
		if !edOnCurve(&pt.x, &pt.y) {
			return errors.New("group: ristretto255 point not on curve")
		}
		pt.z.One()
		pt.t.Mul(&pt.x, &pt.y)
		if pt.isIdentity() {
			return errors.New("group: identity must use the 1-byte encoding")
		}
		return nil
	case len(b) == 32:
		var yb [32]byte
		copy(yb[:], b)
		xNeg := yb[31]&0x80 != 0
		yb[31] &= 0x7f
		if !isCanonicalBytes25519(yb[:]) {
			return errors.New("group: non-canonical ristretto255 y")
		}
		var y fe25519
		y.SetBytes(yb[:])
		if !edFromY(pt, &y, xNeg) {
			return errors.New("group: invalid compressed ristretto255 point")
		}
		return nil
	}
	return errors.New("group: not a ristretto255 encoding")
}

// PrepareDH turns a private scalar into the form MulDH expects: it folds
// 8^-1 mod l into the scalar, so the cofactor clearing of MulDH cancels for
// honest subgroup points, leaving k*P.
func (Group) PrepareDH(k Scalar) Scalar {
	v := ScalarToBig(k)
	v.Mul(v, edInv8)
	v.Mod(v, edOrder)
	return ScalarFromBig(v)
}

// MulDH computes the Diffie-Hellman product of an untrusted decoded point
// and a prepared scalar, clearing the cofactor first.
func (g Group) MulDH(p Element, k Scalar) Element {
	var cleared edPoint
	cleared.clearCofactor(p.edwards())
	return g.Mul(Element{ed: &cleared}, k)
}

// SharedBytes appends the 32-byte KDF input of a DH result to dst: its
// compressed encoding.
func (g Group) SharedBytes(dst []byte, p Element) []byte {
	return g.Compress(dst, p)
}

// edwards returns the element's point, treating the zero Element as the
// identity.
func (e Element) edwards() *edPoint {
	if e.ed == nil {
		var p edPoint
		p.identity()
		return &p
	}
	return e.ed
}
