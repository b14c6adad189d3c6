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

// MulBatch sets dst[i] = k*ps[i] for a scalar fixed across the batch,
// recoding the scalar once per slice. dst and ps may alias. Results are
// projective; call Normalize before encoding.
func (Group) MulBatch(dst, ps []Element, k Scalar) { mulBatch(dst, ps, k, false) }

// laneLadder, when set, is the vector form of mulBatch's loop: outs[i] =
// k*ps[i] for the scalar with the given wNAF digits, each point cofactor-
// cleared first when dh. Package init sets it once, on amd64 hosts whose CPU
// reports AVX-512 IFMA (ed25519x8_amd64.go), and nothing else writes it
// outside tests; nil means the scalar ladder is the only path.
var laneLadder func(outs []edPoint, ps []Element, digits []int8, dh bool)

// mulBatch is MulBatch and, with dh set, MulDHBatch (each point is cofactor-
// cleared first): the shared scalar is recoded once per slice and all
// results live in one allocation.
func mulBatch(dst, ps []Element, k Scalar, dh bool) {
	if len(dst) != len(ps) {
		panic("group: MulBatch length mismatch")
	}
	var digits [258]int8
	n := wnafDigits(k[:], &digits)
	outs := make([]edPoint, len(ps))
	if laneLadder != nil {
		laneLadder(outs, ps, digits[:n], dh)
	} else {
		for i := range ps {
			q := ps[i].edwards()
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

// Mul returns k*P for the table's fixed point P. The result may be in
// projective form; batch callers put their multiplications in a CombBatch
// instead.
func (t *Table) Mul(k Scalar) Element {
	var out edPoint
	t.mulComb(&out, &k)
	return Element{ed: &out}
}

// edCombMul is one multiplication of a comb batch: *out = k*P + *q for the
// point P of t, where a nil q is the identity.
type edCombMul struct {
	t   *Table
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

// mulTables is CombBatch.Run: outs[i] = slots[i]'s product, with ms the
// range's scratch.
func mulTables(outs []edPoint, slots []combSlot, ms []edCombMul) {
	combOrder(outs, slots, ms)
	lanes := 0
	if laneComb != nil {
		lanes = len(ms)
		if tail := lanes % 8; tail < combLaneMin {
			lanes -= tail
		}
		laneComb(ms[:lanes])
	}
	for _, m := range ms[lanes:] {
		m.t.mulComb(m.out, &m.k)
		if m.q != nil {
			m.out.add(m.out, m.q)
		}
	}
}

// combOrder fills ms with the multiplications of slots, outs[i] receiving
// slot i's product, in the order the lanes take them. A pass costs as many
// positions as its longest table has, so the longest tables come first, in
// slot order among equals — one stable counting pass by table length — and
// every pass but one reads tables of a single length, and a group of fewer
// than combLaneMin left for mulComb reads the shortest.
func combOrder(outs []edPoint, slots []combSlot, ms []edCombMul) {
	var at [edCombMaxPositions + 1]int
	for i := range slots {
		at[slots[i].t.positions]++
	}
	next := 0
	for p := edCombMaxPositions; p >= 0; p-- {
		at[p], next = next, next+at[p]
	}
	for i := range slots {
		s := &slots[i]
		m := &ms[at[s.t.positions]]
		at[s.t.positions]++
		*m = edCombMul{t: s.t, k: s.k, out: &outs[i]}
		if s.q != (Element{}) {
			m.q = s.q.edwards()
		}
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
func (g Group) Decode(b []byte) (Element, error) {
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
	return Element{}, errors.New("group: not a ristretto255 encoding")
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

// MulDHBatch sets dst[i] = MulDH(ps[i], k) for a prepared scalar fixed
// across the batch, recoding it once per slice. dst and ps may alias.
// Results are projective; call Normalize before SharedBytes so the whole
// slice shares one field inversion.
func (Group) MulDHBatch(dst, ps []Element, k Scalar) { mulBatch(dst, ps, k, true) }

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
