//go:build amd64 && !purego

// Two kernels run eight multiplications at once here, one per shape of
// batch.
//
// The lane ladder is edScalarMulWNAF over eight points. A batch whose scalar
// is fixed for the whole slice (the Blinder's alpha, the Decrypter's x, a
// prepared private key) shares its wNAF digits, so the double/add schedule
// and every table index are the same for every point: one stream of control
// flow over independent data, branching on the shared digit and never on a
// lane.
//
// The lane comb is mulComb over eight scalars. Here the point is fixed (the
// generator, a recipient key) and every scalar differs, so the schedule is
// still shared — one affine-Niels add per comb position, no doublings — and
// only the table entry differs per lane: each position gathers every lane's
// signed entry into three fe25519x8 rows, then runs one lane add. A negative
// digit loads its entry with y+x and y-x swapped and xy2d negated, a zero
// digit loads the identity entry (1, 1, 0). The gather is a few dozen loads
// per lane against seven vector multiplies shared by all eight, which is why
// it pays for itself; the entries are read straight from the scalar comb's
// table, stored carried for exactly this (see edCombTable).
//
// Both run their point formulas — double, projective-Niels add, affine-Niels
// add, the formulas of edPoint in ed25519.go — as point kernels of
// fe25519x8_amd64.s, one call per formula with the temporaries in memory the
// caller owns, rather than as one call per field operation: the formula's
// seven to eleven multiplies and squares are the same either way, and what
// one call saves is the per-call entry, the constant loads and a store and
// reload for every intermediate, about a sixth of a ladder multiplication.
// The a = -1 formulas are complete, so identity and small-order lanes, and
// identity entries, need no special case.

package group

func init() {
	if hasIFMA() {
		laneLadder = edMulBatchx8
		laneComb = edCombBatchx8
	}
}

// edPointx8 is eight points in extended coordinates, lane i of each
// coordinate belonging to point i.
type edPointx8 struct {
	x, y, z, t fe25519x8
}

// projNielsx8 is eight wNAF table entries (see projNiels).
type projNielsx8 struct {
	yPlusX, yMinusX, z, t2d fe25519x8
}

// edLadderx8 is the working state of one eight-point multiplication: the
// points, their table of odd multiples, and the temporaries of the point
// kernels. It lives on the heap — 64-byte rows want better alignment than a
// goroutine stack gives — and one value serves every group of a batch.
type edLadderx8 struct {
	q, q2, acc edPointx8
	q2n        projNielsx8
	table      [8]projNielsx8
	d2         fe25519x8 // edD2 in every lane
	tmp        [7]fe25519x8
}

// The point kernels of fe25519x8_amd64.s, each one formula of edPoint in
// one call, its temporaries in tmp; p may alias q, and every output limb is
// below 2^51 + 2^15, as from any fe25519x8 kernel.
//
// fe8Double sets p = 2q, and p.t only when needT (edPoint.double).
//
//go:noescape
func fe8Double(p, q *edPointx8, tmp *[7]fe25519x8, needT bool)

// fe8AddNiels sets p = q + n, or q - n when sub (edPoint.addProjNiels).
//
//go:noescape
func fe8AddNiels(p, q *edPointx8, n *projNielsx8, tmp *[7]fe25519x8, sub bool)

// fe8AddAffine sets p = q + n (edPoint.addAffineNiels, n already signed).
//
//go:noescape
func fe8AddAffine(p, q *edPointx8, n *affineNielsx8, tmp *[7]fe25519x8)

func (v *fe25519x8) broadcast(a *fe25519) {
	for i := 0; i < 8; i++ {
		v.setLane(i, a)
	}
}

func (p *edPointx8) identity() {
	var zero, one fe25519
	one.One()
	p.x.broadcast(&zero)
	p.y.broadcast(&one)
	p.z.broadcast(&one)
	p.t.broadcast(&zero)
}

func (p *edPointx8) setLane(i int, q *edPoint) {
	p.x.setLane(i, &q.x)
	p.y.setLane(i, &q.y)
	p.z.setLane(i, &q.z)
	p.t.setLane(i, &q.t)
}

func (p *edPointx8) lane(i int, q *edPoint) {
	p.x.lane(i, &q.x)
	p.y.lane(i, &q.y)
	p.z.lane(i, &q.z)
	p.t.lane(i, &q.t)
}

func (s *edLadderx8) toProjNiels(n *projNielsx8, p *edPointx8) {
	n.yPlusX.Add(&p.y, &p.x)
	n.yMinusX.Sub(&p.y, &p.x)
	n.z = p.z
	n.t2d.Mul(&p.t, &s.d2)
}

// edScalarMulWNAFx8 sets s.acc = k*s.q in every lane for the scalar whose
// wNAF digits are given, clearing the cofactor of s.q first when dh: the
// lane form of clearCofactor followed by edScalarMulWNAF. s.q is consumed.
func edScalarMulWNAFx8(s *edLadderx8, digits []int8, dh bool) {
	q, acc := &s.q, &s.acc
	if dh {
		fe8Double(q, q, &s.tmp, false)
		fe8Double(q, q, &s.tmp, false)
		fe8Double(q, q, &s.tmp, true)
	}
	acc.identity()
	if len(digits) == 0 {
		return
	}
	// table[i] = (2i+1)*q
	s.toProjNiels(&s.table[0], q)
	fe8Double(&s.q2, q, &s.tmp, true)
	s.toProjNiels(&s.q2n, &s.q2)
	for i := 1; i < 8; i++ {
		fe8AddNiels(q, q, &s.q2n, &s.tmp, false)
		s.toProjNiels(&s.table[i], q)
	}
	for i := len(digits) - 1; i >= 0; i-- {
		fe8Double(acc, acc, &s.tmp, digits[i] != 0 || i == 0)
		if d := digits[i]; d > 0 {
			fe8AddNiels(acc, acc, &s.table[(d-1)/2], &s.tmp, false)
		} else if d < 0 {
			fe8AddNiels(acc, acc, &s.table[(-d-1)/2], &s.tmp, true)
		}
	}
}

// edMulBatchx8 is the lane ladder behind edGroup.mulBatch: outs[i] =
// k*ps[i] (8*k*ps[i] when dh), eight points per pass. A last group shorter
// than eight repeats its points in the spare lanes, so there is no
// scalar tail path.
func edMulBatchx8(outs []edPoint, ps []Element, digits []int8, dh bool) {
	s := new(edLadderx8)
	s.d2.broadcast(&edD2)
	for base := 0; base < len(ps); base += 8 {
		n := min(8, len(ps)-base)
		for i := 0; i < 8; i++ {
			s.q.setLane(i, ps[base+i%n].edwards(edGroup{}))
		}
		edScalarMulWNAFx8(s, digits, dh)
		for i := 0; i < n; i++ {
			s.acc.lane(i, &outs[base+i])
		}
	}
}

// affineNielsx8 is eight comb-table entries (see affineNiels).
type affineNielsx8 struct {
	yPlusX, yMinusX, xy2d fe25519x8
}

// edCombx8 is the working state of one eight-scalar comb multiplication,
// on the heap for the same reason as edLadderx8: the accumulator, the
// gathered entries, the point kernel's temporaries, and each lane's comb
// digits (last, so every row stays 64-byte aligned).
type edCombx8 struct {
	acc edPointx8
	n   affineNielsx8
	tmp [7]fe25519x8

	digits [8][edCombMaxPositions]int16
}

// gather loads every lane's signed entry at comb position j into s.n.
func (s *edCombx8) gather(t *edCombTable, j int) {
	row := t.entries[j]
	for i := range s.digits {
		switch d := s.digits[i][j]; {
		case d > 0:
			s.n.setLane(i, &row[d-1], false)
		case d < 0:
			s.n.setLane(i, &row[-d-1], true)
		default:
			s.n.setLane(i, &affineNielsIdentity, false)
		}
	}
}

// affineNielsIdentity is the identity point's entry: y+x = y-x = 1, xy2d = 0.
var affineNielsIdentity = affineNiels{yPlusX: fe25519{1}, yMinusX: fe25519{1}}

// setLane stores n into lane i, or -n when neg: y+x and y-x swap, and xy2d is
// subtracted from 2p without a carry pass, which stays below 2^52 for the
// carried entries of a comb table.
func (v *affineNielsx8) setLane(i int, n *affineNiels, neg bool) {
	i &= 7
	ypx, ymx, xy2d := &n.yPlusX, &n.yMinusX, &n.xy2d
	var negXY fe25519
	if neg {
		ypx, ymx = ymx, ypx
		negXY.subLazy(&negXY, xy2d)
		xy2d = &negXY
	}
	for l := range ypx {
		v.yPlusX[l][i] = ypx[l]
		v.yMinusX[l][i] = ymx[l]
		v.xy2d[l][i] = xy2d[l]
	}
}

// edCombBatchx8 is the lane comb behind edTable.MulBatch: outs[i] =
// ks[i]*P for the table's point P, eight scalars per pass. The spare lanes
// of a last group shorter than eight carry all-zero digits, so they add
// identity entries and their results are dropped.
func edCombBatchx8(t *edCombTable, outs []edPoint, ks []Scalar) {
	s := new(edCombx8)
	positions := len(t.entries)
	for base := 0; base < len(ks); base += 8 {
		n := min(8, len(ks)-base)
		for i := range s.digits {
			if i < n {
				combDigits(mustScalar(ks[base+i])[:], t.w, s.digits[i][:positions])
			} else {
				s.digits[i] = [edCombMaxPositions]int16{}
			}
		}
		s.acc.identity()
		for j := 0; j < positions; j++ {
			s.gather(t, j)
			fe8AddAffine(&s.acc, &s.acc, &s.n, &s.tmp)
		}
		for i := 0; i < n; i++ {
			s.acc.lane(i, &outs[base+i])
		}
	}
}
