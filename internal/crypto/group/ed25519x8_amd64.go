//go:build amd64 && !purego

// The lane ladder: edScalarMulWNAF over eight points at once. A batch whose
// scalar is fixed for the whole slice (the Blinder's alpha, the Decrypter's
// x, a prepared private key) shares its wNAF digits, so the double/add
// schedule and every table index are the same for every point: one stream of
// control flow over independent data. Each formula below is its scalar
// namesake in ed25519.go with fe25519x8 operands, branching on the shared
// digit and never on a lane. The a = -1 formulas are complete, so identity
// and small-order lanes need no special case.
//
// Lanes need a shared scalar; the fixed-base comb (mulComb) has per-report
// scalars, which would turn each table lookup into a gather, and is not
// vectorised here.

package group

func init() {
	if hasIFMA() {
		laneLadder = edMulBatchx8
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
// formulas. It lives on the heap — 64-byte rows want better alignment than a
// goroutine stack gives — and one value serves every group of a batch.
type edLadderx8 struct {
	q, q2, acc edPointx8
	q2n        projNielsx8
	table      [8]projNielsx8
	d2         fe25519x8 // edD2 in every lane

	a, b, c, e, f, g, h, xy fe25519x8 // double
	t1, t2, tt, pp, mm, zz  fe25519x8 // addProjNiels (with e, f, g, h)
}

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

// double sets p = 2q in every lane (see edPoint.double).
func (s *edLadderx8) double(p, q *edPointx8, needT bool) {
	s.a.Square(&q.x)
	s.b.Square(&q.y)
	s.c.Square(&q.z)
	s.c.Add(&s.c, &s.c)
	s.h.Add(&s.a, &s.b)
	s.xy.Add(&q.x, &q.y)
	s.xy.Square(&s.xy)
	s.e.Sub(&s.h, &s.xy)
	s.g.Sub(&s.a, &s.b)
	s.f.Add(&s.c, &s.g)
	p.x.Mul(&s.e, &s.f)
	p.y.Mul(&s.g, &s.h)
	p.z.Mul(&s.f, &s.g)
	if needT {
		p.t.Mul(&s.e, &s.h)
	}
}

// addProjNiels sets p = q + n in every lane, or q - n when sub (see
// edPoint.addProjNiels).
func (s *edLadderx8) addProjNiels(p, q *edPointx8, n *projNielsx8, sub bool) {
	s.t1.Add(&q.y, &q.x)
	s.t2.Sub(&q.y, &q.x)
	s.tt.Mul(&q.t, &n.t2d)
	if sub {
		s.pp.Mul(&s.t1, &n.yMinusX)
		s.mm.Mul(&s.t2, &n.yPlusX)
	} else {
		s.pp.Mul(&s.t1, &n.yPlusX)
		s.mm.Mul(&s.t2, &n.yMinusX)
	}
	s.zz.Mul(&q.z, &n.z)
	s.zz.Add(&s.zz, &s.zz)
	s.e.Sub(&s.pp, &s.mm)
	if sub {
		s.f.Add(&s.zz, &s.tt)
		s.g.Sub(&s.zz, &s.tt)
	} else {
		s.f.Sub(&s.zz, &s.tt)
		s.g.Add(&s.zz, &s.tt)
	}
	s.h.Add(&s.pp, &s.mm)
	p.x.Mul(&s.e, &s.f)
	p.y.Mul(&s.g, &s.h)
	p.z.Mul(&s.f, &s.g)
	p.t.Mul(&s.e, &s.h)
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
		s.double(q, q, false)
		s.double(q, q, false)
		s.double(q, q, true)
	}
	acc.identity()
	if len(digits) == 0 {
		return
	}
	// table[i] = (2i+1)*q
	s.toProjNiels(&s.table[0], q)
	s.double(&s.q2, q, true)
	s.toProjNiels(&s.q2n, &s.q2)
	for i := 1; i < 8; i++ {
		s.addProjNiels(q, q, &s.q2n, false)
		s.toProjNiels(&s.table[i], q)
	}
	for i := len(digits) - 1; i >= 0; i-- {
		s.double(acc, acc, digits[i] != 0 || i == 0)
		if d := digits[i]; d > 0 {
			s.addProjNiels(acc, acc, &s.table[(d-1)/2], false)
		} else if d < 0 {
			s.addProjNiels(acc, acc, &s.table[(-d-1)/2], true)
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
