// Edwards25519 point arithmetic for ristretto255: extended
// (X:Y:Z:T) coordinates so that additions and doublings need no per-op field
// inversion, Niels-form precomputation for the fixed-point comb tables, a
// width-5 wNAF kernel for variable-point multiplication (the eight-lane forms
// of both, for batches, are in ed25519x8_amd64.go), batch affine
// normalization via the Montgomery trick, and the fixed-width scalar
// reduction behind RandomScalar.
//
// Group structure: all long-lived elements live in the prime-order subgroup
// (order l). HashToElement clears the cofactor, honest keys and ciphertexts
// are subgroup multiples by construction, and the DH path multiplies
// untrusted decoded points by 8 (compensated by 8^-1 folded into the private
// scalar), so a small-subgroup component contributed by a malicious encoder
// can never probe the private key. Within the subgroup the affine (x, y)
// pair is unique per element, which is what makes the compressed-y encoding
// canonical for pseudonym map keys.

package group

import (
	"crypto/sha512"
	"encoding/binary"
	"math/big"
	"math/bits"
)

// edPoint is a point in extended coordinates: x = X/Z, y = Y/Z, T·Z = X·Y.
type edPoint struct {
	x, y, z, t fe25519
}

// affineNiels is the precomputed form used by comb-table entries (z == 1).
type affineNiels struct {
	yPlusX, yMinusX, xy2d fe25519
}

// projNiels is the precomputed form used by the wNAF table (projective).
type projNiels struct {
	yPlusX, yMinusX, z, t2d fe25519
}

// --- curve constants, derived at init from d = -121665/121666 ---

var (
	edD    fe25519 // d
	edD2   fe25519 // 2d
	edBase edPoint // generator B (y = 4/5, x positive)

	// ristretto Elligator map constants
	edOneMinusDSq  fe25519 // 1 - d^2
	edDMinusOneSq  fe25519 // (d - 1)^2
	edSqrtAdMinus1 fe25519 // sqrt(-d - 1)
)

func init() {
	num := big.NewInt(-121665)
	den := big.NewInt(121666)
	dBig := new(big.Int).ModInverse(den, p25519)
	dBig.Mul(dBig, num)
	dBig.Mod(dBig, p25519)
	edD.fromBig(dBig)
	edD2.Add(&edD, &edD)

	one := new(big.Int).SetInt64(1)
	edOneMinusDSqBig := new(big.Int).Mul(dBig, dBig)
	edOneMinusDSqBig.Sub(one, edOneMinusDSqBig)
	edOneMinusDSq.fromBig(edOneMinusDSqBig)

	dm1 := new(big.Int).Sub(dBig, one)
	dm1.Mul(dm1, dm1)
	edDMinusOneSq.fromBig(dm1)

	// sqrt(-d-1): -d-1 is a square mod p (the ristretto255 spec constant
	// SQRT_AD_MINUS_ONE exists); assert that at init.
	var radicand, oneFe fe25519
	oneFe.One()
	radicand.Neg(&edD)
	radicand.Sub(&radicand, &oneFe)
	if !edSqrtAdMinus1.SqrtRatio(&radicand, &oneFe) {
		panic("group: -d-1 is not a square")
	}

	// generator: y = 4/5, x = +sqrt((y^2-1)/(d*y^2+1))
	yBig := new(big.Int).ModInverse(big.NewInt(5), p25519)
	yBig.Mul(yBig, big.NewInt(4))
	yBig.Mod(yBig, p25519)
	var y fe25519
	y.fromBig(yBig)
	if !edFromY(&edBase, &y, false) {
		panic("group: generator y is not on the curve")
	}
}

// edFromY recovers the point with the given y coordinate and sign of x
// (xNeg true selects the negative root). Returns false if y is not on the
// curve.
func edFromY(p *edPoint, y *fe25519, xNeg bool) bool {
	var one, u, v, x fe25519
	one.One()
	u.Square(y)
	v.Mul(&u, &edD)
	u.Sub(&u, &one) // y^2 - 1
	v.Add(&v, &one) // d*y^2 + 1
	if !x.SqrtRatio(&u, &v) {
		return false
	}
	if x.IsZero() && xNeg {
		return false // -0 is not a valid sign choice
	}
	x.CondNeg(xNeg)
	*p = edPoint{x: x, y: *y}
	p.z.One()
	p.t.Mul(&x, y)
	return true
}

// identity sets p to the neutral element (0, 1).
func (p *edPoint) identity() {
	p.x.Zero()
	p.y.One()
	p.z.One()
	p.t.Zero()
}

func (p *edPoint) isIdentity() bool {
	// (0 : Z : Z : 0) for any Z: x == 0 and y == z.
	return p.x.IsZero() && p.y.Equal(&p.z)
}

// equal compares two projective points: x1*z2 == x2*z1 and y1*z2 == y2*z1.
func (p *edPoint) equal(q *edPoint) bool {
	var a, b fe25519
	a.Mul(&p.x, &q.z)
	b.Mul(&q.x, &p.z)
	if !a.Equal(&b) {
		return false
	}
	a.Mul(&p.y, &q.z)
	b.Mul(&q.y, &p.z)
	return a.Equal(&b)
}

// neg sets p = -q.
func (p *edPoint) neg(q *edPoint) {
	p.x.Neg(&q.x)
	p.y.Set(&q.y)
	p.z.Set(&q.z)
	p.t.Neg(&q.t)
}

// double sets p = 2q (dbl-2008-hwcd, 4S+4M, 3M when T is not needed).
// The intermediate sums use the lazy (carry-free) field ops: one lazy
// level stays within Mul/Square's input headroom (see addLazy), and this
// runs once per scalar bit in every wNAF ladder, so the six saved carry
// passes are the single hottest line of the batch kernels.
func (p *edPoint) double(q *edPoint, needT bool) {
	var a, b, c, e, f, g, h, xy fe25519
	a.Square(&q.x)
	b.Square(&q.y)
	c.Square(&q.z)
	c.addLazy(&c, &c)
	h.addLazy(&a, &b)
	xy.addLazy(&q.x, &q.y)
	xy.Square(&xy)
	e.subLazy(&h, &xy)
	g.subLazy(&a, &b)
	f.addLazy(&c, &g)
	p.x.Mul(&e, &f)
	p.y.Mul(&g, &h)
	p.z.Mul(&f, &g)
	if needT {
		p.t.Mul(&e, &h)
	}
}

// add sets p = q + r (extended, add-2008-hwcd-3 with 2d, 9M).
func (p *edPoint) add(q, r *edPoint) {
	var a, b, c, d, e, f, g, h, t1, t2 fe25519
	t1.Sub(&q.y, &q.x)
	t2.Sub(&r.y, &r.x)
	a.Mul(&t1, &t2)
	t1.Add(&q.y, &q.x)
	t2.Add(&r.y, &r.x)
	b.Mul(&t1, &t2)
	c.Mul(&q.t, &r.t)
	c.Mul(&c, &edD2)
	d.Mul(&q.z, &r.z)
	d.Add(&d, &d)
	e.Sub(&b, &a)
	f.Sub(&d, &c)
	g.Add(&d, &c)
	h.Add(&b, &a)
	p.x.Mul(&e, &f)
	p.y.Mul(&g, &h)
	p.z.Mul(&f, &g)
	p.t.Mul(&e, &h)
}

// addAffineNiels sets p = q + n where n is a z==1 precomputed entry (7M).
// sub negates the entry.
func (p *edPoint) addAffineNiels(q *edPoint, n *affineNiels, sub bool) {
	var pp, mm, tt, z2, e, f, g, h, t1, t2 fe25519
	t1.addLazy(&q.y, &q.x)
	t2.subLazy(&q.y, &q.x)
	tt.Mul(&q.t, &n.xy2d)
	if sub {
		pp.Mul(&t1, &n.yMinusX)
		mm.Mul(&t2, &n.yPlusX)
	} else {
		pp.Mul(&t1, &n.yPlusX)
		mm.Mul(&t2, &n.yMinusX)
	}
	z2.addLazy(&q.z, &q.z)
	e.subLazy(&pp, &mm)
	// subtracting the entry flips tt's sign; fold it into f and g instead
	// of negating (tt stays carried, as subLazy requires)
	if sub {
		f.addLazy(&z2, &tt)
		g.subLazy(&z2, &tt)
	} else {
		f.subLazy(&z2, &tt)
		g.addLazy(&z2, &tt)
	}
	h.addLazy(&pp, &mm)
	p.x.Mul(&e, &f)
	p.y.Mul(&g, &h)
	p.z.Mul(&f, &g)
	p.t.Mul(&e, &h)
}

// addProjNiels sets p = q + n for a projective Niels entry (8M).
func (p *edPoint) addProjNiels(q *edPoint, n *projNiels, sub bool) {
	var pp, mm, tt, zz, e, f, g, h, t1, t2 fe25519
	t1.addLazy(&q.y, &q.x)
	t2.subLazy(&q.y, &q.x)
	tt.Mul(&q.t, &n.t2d)
	if sub {
		pp.Mul(&t1, &n.yMinusX)
		mm.Mul(&t2, &n.yPlusX)
	} else {
		pp.Mul(&t1, &n.yPlusX)
		mm.Mul(&t2, &n.yMinusX)
	}
	zz.Mul(&q.z, &n.z)
	zz.addLazy(&zz, &zz)
	e.subLazy(&pp, &mm)
	// fold the entry's sign flip into f and g (see addAffineNiels)
	if sub {
		f.addLazy(&zz, &tt)
		g.subLazy(&zz, &tt)
	} else {
		f.subLazy(&zz, &tt)
		g.addLazy(&zz, &tt)
	}
	h.addLazy(&pp, &mm)
	p.x.Mul(&e, &f)
	p.y.Mul(&g, &h)
	p.z.Mul(&f, &g)
	p.t.Mul(&e, &h)
}

// toProjNiels converts p to its projective Niels form. The y±x entries are
// stored lazily (one uncarried level); their only consumers are the Muls in
// addProjNiels, which accept that headroom.
func (p *edPoint) toProjNiels(n *projNiels) {
	n.yPlusX.addLazy(&p.y, &p.x)
	n.yMinusX.subLazy(&p.y, &p.x)
	n.z.Set(&p.z)
	n.t2d.Mul(&p.t, &edD2)
}

// toAffineNiels converts a normalized (z == 1) point to affine Niels form.
// Unlike toProjNiels's, these entries are carried (every limb below 2^52):
// comb tables are read by the lane comb too, whose kernels take nothing
// wider (see Table).
func (p *edPoint) toAffineNiels(n *affineNiels) {
	n.yPlusX.Add(&p.y, &p.x)
	n.yMinusX.Sub(&p.y, &p.x)
	n.xy2d.Mul(&p.x, &p.y)
	n.xy2d.Mul(&n.xy2d, &edD2)
}

// normalizeEd scales each point to z == 1 with a single shared field
// inversion (Montgomery trick). Identity slots (z may be any value) are
// normalized too; z is never zero for a valid edwards point.
func normalizeEd(ps []*edPoint) {
	if len(ps) == 0 {
		return
	}
	zs := make([]*fe25519, len(ps))
	for i, p := range ps {
		zs[i] = &p.z
	}
	batchInvert25519(zs)
	for _, p := range ps {
		// p.z now holds 1/z
		p.x.Mul(&p.x, &p.z)
		p.y.Mul(&p.y, &p.z)
		p.z.One()
		p.t.Mul(&p.x, &p.y)
	}
}

// clearCofactor sets p = 8q (three doublings), projecting onto the
// prime-order subgroup.
func (p *edPoint) clearCofactor(q *edPoint) {
	p.double(q, false)
	p.double(p, false)
	p.double(p, true)
}

// --- scalar multiplication kernels ---

// wnafDigits recodes a scalar (32-byte big-endian, any value) into width-5
// NAF digits, least significant first. Digits are odd, in [-15, 15], and at
// most one in five is non-zero. Returns the number of digits used.
//
// The scalar is scanned in place: at each bit position the next five bits
// plus the carry from the digit below form a window; an even window is a
// zero digit, an odd one becomes the digit (re-centred into [-15, 15], the
// borrow carried up) and the four positions it covers are skipped. Nothing
// is subtracted from or shifted through the scalar itself.
func wnafDigits(k []byte, digits *[258]int8) int {
	// four little-endian limbs; the zero fifth serves window reads that
	// straddle or start at bit 256
	var limbs [5]uint64
	for i := 0; i < 4; i++ {
		limbs[i] = binary.BigEndian.Uint64(k[24-8*i:])
	}
	*digits = [258]int8{}
	n := 0
	carry := uint64(0)
	// A digit at bit 252 or above leaves no carry (its window is at most
	// 15), so position 256 only ever spends one left by a digit below.
	for pos := 0; pos <= 256; {
		limb, off := pos/64, uint(pos%64)
		window := limbs[limb] >> off
		if off > 64-5 {
			window |= limbs[limb+1] << (64 - off)
		}
		window = window&31 + carry
		if window&1 == 0 {
			pos++
			continue
		}
		if window < 16 {
			carry = 0
			digits[pos] = int8(window)
		} else {
			carry = 1
			digits[pos] = int8(window) - 32
		}
		n = pos + 1
		pos += 5
	}
	return n
}

// edScalarMulWNAF sets p = k*q using the width-5 wNAF kernel: a per-point
// table of 8 projective-Niels odd multiples, then one double per scalar bit
// with ~one add per five bits. The digits slice comes from wnafDigits so
// batch callers with a fixed scalar (the Blinder's alpha, the Decrypter's
// x) recode once per slice instead of once per point.
func edScalarMulWNAF(p *edPoint, digits []int8, q *edPoint) {
	if len(digits) == 0 {
		p.identity()
		return
	}
	// table[i] = (2i+1)*q in projective Niels form
	var table [8]projNiels
	var q2, acc edPoint
	var q2n projNiels
	q.toProjNiels(&table[0])
	q2.double(q, true)
	q2.toProjNiels(&q2n)
	tmp := *q
	for i := 1; i < 8; i++ {
		tmp.addProjNiels(&tmp, &q2n, false)
		tmp.toProjNiels(&table[i])
	}
	acc.identity()
	for i := len(digits) - 1; i >= 0; i-- {
		acc.double(&acc, digits[i] != 0 || i == 0)
		if d := digits[i]; d > 0 {
			acc.addProjNiels(&acc, &table[(d-1)/2], false)
		} else if d < 0 {
			acc.addProjNiels(&acc, &table[(-d-1)/2], true)
		}
	}
	*p = acc
}

// --- fixed-point comb tables ---

// Table is a precomputed fixed-point multiplication table (BaseTable,
// Precompute): a signed-digit comb table for a fixed point. Row j holds
// v * 2^(w*j) * P in affine Niels form at entry v-1, so a full multiplication
// is one table add per digit and no doublings at all. Entries are batch-
// normalized at build time with one shared inversion.
//
// One table serves both comb kernels: mulComb here and, for batches, the lane
// comb (ed25519x8_amd64.go), whose kernel gathers each lane's entry by its
// address. That is why the rows are one flat array, a fixed stride apart,
// and why every entry is stored carried, limbs below 2^52: the lanes' input
// bound (fe8LimbBits), which a lazily stored y±x (up to 2^52.6) would break,
// and which the scalar Mul accepts with room to spare.
type Table struct {
	w         uint
	positions int
	entries   []affineNiels // positions rows of 2^(w-1) entries
}

// entry returns the entry of row j for the digit magnitude v >= 1.
func (t *Table) entry(j, v int) *affineNiels {
	return &t.entries[j<<(t.w-1)+v-1]
}

// edCombMaxPositions is the digit count of the narrowest window in use
// (width 6: the per-key tables; the base table is width 8, 32 positions). It
// sizes the digit arrays so a fixed-base multiplication stays off the heap.
const edCombMaxPositions = 43

// buildEdComb precomputes the comb table for p with window width 6 (a key's
// table) or 8 (the generator's): the widths the lane comb's recoder
// (combWords) knows, whose signed digits fit an int8.
func buildEdComb(p *edPoint, w uint) *Table {
	positions := (256 + int(w) - 1) / int(w)
	if w != 6 && w != 8 {
		panic("group: comb window of a width other than 6 or 8")
	}
	half := 1 << (w - 1)
	// build all entries in extended coordinates first
	ext := make([][]edPoint, positions)
	base := *p
	for j := 0; j < positions; j++ {
		ext[j] = make([]edPoint, half)
		ext[j][0] = base
		for v := 1; v < half; v++ {
			ext[j][v].add(&ext[j][v-1], &base)
		}
		if j < positions-1 {
			for i := uint(0); i < w; i++ {
				base.double(&base, i == w-1)
			}
		}
	}
	// one shared inversion for every entry
	flat := make([]*edPoint, 0, positions*half)
	for j := range ext {
		for v := range ext[j] {
			flat = append(flat, &ext[j][v])
		}
	}
	normalizeEd(flat)
	t := &Table{w: w, positions: positions, entries: make([]affineNiels, positions*half)}
	for j := range ext {
		for v := range ext[j] {
			ext[j][v].toAffineNiels(t.entry(j, v+1))
		}
	}
	return t
}

// combDigits recodes a scalar into the table's signed radix-2^w digits, each in [-2^(w-1), 2^(w-1)), least
// significant position first: digit j goes to out[j*stride], so the lane comb
// writes each lane's digits straight into its position-major layout and the
// scalar comb passes a stride of 1. Each digit is its window plus the carry
// from below, re-centred without a branch.
func combDigits(k *Scalar, t *Table, out []int8, stride int) {
	// little-endian limbs; the zero fifth serves the top window's read
	var limbs [5]uint64
	for i := 0; i < 4; i++ {
		limbs[i] = binary.BigEndian.Uint64(k[24-8*i:])
	}
	w := t.w
	mask, half := uint64(1)<<w-1, uint64(1)<<(w-1)
	carry := uint64(0)
	for j := 0; j < t.positions; j++ {
		bit := uint(j) * w
		limb, off := bit/64, bit%64
		// a shift by 64 is zero in Go, so off == 0 needs no case
		d := (limbs[limb]>>off|limbs[limb+1]<<(64-off))&mask + carry
		carry = (d + half) >> w
		out[j*stride] = int8(int64(d) - int64(carry<<w))
	}
	if carry != 0 {
		panic("group: comb recoding overflow")
	}
}

// mulComb sets p = k*P for the table's fixed point P: one affine-Niels add
// per non-zero digit, no doublings.
func (t *Table) mulComb(p *edPoint, k *Scalar) {
	var digits [edCombMaxPositions]int8
	combDigits(k, t, digits[:], 1)
	var acc edPoint
	acc.identity()
	for j, d := range digits[:t.positions] {
		if d > 0 {
			acc.addAffineNiels(&acc, t.entry(j, int(d)), false)
		} else if d < 0 {
			acc.addAffineNiels(&acc, t.entry(j, -int(d)), true)
		}
	}
	*p = acc
}

// --- scalar field (mod l) ---

// edOrder is the group order l = 2^252 + 27742317777372353535851937790883648493.
var edOrder = func() *big.Int {
	l := new(big.Int).Lsh(big.NewInt(1), 252)
	delta, ok := new(big.Int).SetString("27742317777372353535851937790883648493", 10)
	if !ok {
		panic("group: bad order constant")
	}
	return l.Add(l, delta)
}()

// edInv8 is 8^-1 mod l, folded into private DH scalars so untrusted points
// can be cofactor-cleared without changing honest shared secrets.
var edInv8 = new(big.Int).ModInverse(big.NewInt(8), edOrder)

// wide is a 512-bit integer in little-endian 64-bit limbs: the width of the
// uniform bytes RandomScalar reduces.
type wide [8]uint64

// edOrderLimbs is l; edOrderDelta is l - 2^252, below 2^125.
var (
	edOrderLimbs = wide{0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0, 1 << 60}
	edOrderDelta = [2]uint64(edOrderLimbs[:2])
)

// edOrderFolds are the multiples of l that keep reduceWide's three folds
// non-negative: l·2^133 > 2^260·delta, l·2^7 > 2^134·delta, l > 2^8·delta.
var edOrderFolds = [3]wide{edOrderLimbs.shl(133), edOrderLimbs.shl(7), edOrderLimbs}

// shl returns v << s (bits shifted past 2^512 are dropped).
func (v wide) shl(s uint) wide {
	var out wide
	limbs, off := int(s/64), s%64
	for i := len(v) - 1; i >= limbs; i-- {
		out[i] = v[i-limbs] << off
		if off != 0 && i > limbs {
			out[i] |= v[i-limbs-1] >> (64 - off)
		}
	}
	return out
}

// reduceWide returns x mod l in fixed width, the reduction behind
// RandomScalar. Since 2^252 ≡ -delta (mod l), each fold replaces
// x = hi·2^252 + lo by lo + m - hi·delta, with m the multiple of l that
// keeps it non-negative: 512 bits fold to 386, then 260, then below 2l, and
// one conditional subtraction finishes.
func reduceWide(x wide) wide {
	for i := range edOrderFolds {
		x = foldOrder(x, &edOrderFolds[i])
	}
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != edOrderLimbs[i] {
			if x[i] > edOrderLimbs[i] {
				var b uint64
				for j := range x {
					x[j], b = bits.Sub64(x[j], edOrderLimbs[j], b)
				}
			}
			return x
		}
	}
	return wide{} // x == l
}

// foldOrder returns lo + m - hi·delta for x = hi·2^252 + lo.
func foldOrder(x wide, m *wide) wide {
	var hi [5]uint64 // x >> 252: at most 260 bits
	for i := range hi {
		hi[i] = x[i+3] >> 60
		if i+4 < len(x) {
			hi[i] |= x[i+4] << 4
		}
	}
	lo := wide{x[0], x[1], x[2], x[3] & (1<<60 - 1)}
	var prod wide // hi·delta, below 2^385
	for i, h := range hi {
		var carry uint64
		for j, d := range edOrderDelta {
			ph, pl := bits.Mul64(h, d)
			var c uint64
			pl, c = bits.Add64(pl, prod[i+j], 0)
			ph += c
			pl, c = bits.Add64(pl, carry, 0)
			ph += c
			prod[i+j], carry = pl, ph
		}
		prod[i+len(edOrderDelta)] = carry
	}
	var out wide
	var c, b uint64
	for i := range out {
		var s uint64
		s, c = bits.Add64(lo[i], m[i], c)
		out[i], b = bits.Sub64(s, prod[i], b)
	}
	return out
}

// --- hash to group (ristretto Elligator map) ---

// edElligator maps a field element to a curve point via the ristretto255
// one-way MAP. The output may carry a torsion component; callers clear the
// cofactor.
func edElligator(r0 *fe25519) *edPoint {
	var one, r, u, v, s, sPrime, c, n, w0, w1, w2, w3, t1, t2 fe25519
	one.One()
	r.Square(r0)
	r.Mul(&r, sqrtM1_25519) // r = sqrt(-1)*r0^2
	u.Add(&r, &one)
	u.Mul(&u, &edOneMinusDSq) // u = (r+1)*(1-d^2)
	t1.Mul(&r, &edD)
	t1.Add(&t1, &one)
	t1.Neg(&t1) // -(1+r*d)
	t2.Add(&r, &edD)
	v.Mul(&t1, &t2) // v = -(1+r*d)*(r+d)

	wasSquare := s.SqrtRatio(&u, &v)
	sPrime.Mul(&s, r0)
	sPrime.Abs(&sPrime)
	sPrime.Neg(&sPrime) // s' = -|s*r0|
	if wasSquare {
		c.Neg(&one) // c = -1
	} else {
		s.Set(&sPrime)
		c.Set(&r)
	}
	t1.Sub(&r, &one)
	n.Mul(&c, &t1)
	n.Mul(&n, &edDMinusOneSq)
	n.Sub(&n, &v) // N = c*(r-1)*(d-1)^2 - v

	var s2 fe25519
	s2.Square(&s)
	w0.Mul(&s, &v)
	w0.Add(&w0, &w0) // 2sv
	w1.Mul(&n, &edSqrtAdMinus1)
	w2.Sub(&one, &s2)
	w3.Add(&one, &s2)

	p := &edPoint{}
	p.x.Mul(&w0, &w3)
	p.y.Mul(&w2, &w1)
	p.z.Mul(&w1, &w3)
	p.t.Mul(&w0, &w2)
	return p
}

// edHashToPoint hashes arbitrary data into the prime-order subgroup:
// SHA-512 with a domain label, Elligator map, cofactor clearing.
func edHashToPoint(data []byte) *edPoint {
	h := sha512.New()
	h.Write([]byte("prochlo-h2c-ristretto255"))
	h.Write(data)
	sum := h.Sum(nil)
	var r0 fe25519
	sum[31] &= 0x7f
	r0.SetBytes(sum[:32])
	var p edPoint
	p.clearCofactor(edElligator(&r0))
	return &p
}
