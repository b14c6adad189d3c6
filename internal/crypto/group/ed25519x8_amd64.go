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
// The lane comb is mulComb over eight multiplications of a comb batch. Here
// each lane's point is fixed (the generator, a recipient key) and brings its
// own scalar, so the schedule is still shared — one affine-Niels add per comb
// position, no doublings — and only the table entry differs per lane, which
// need not even be the same table: a client's encode call puts all of its
// fixed-base multiplications, generator and key tables mixed, through one
// batch (group.CombBatch), so the 20 of a plain 5-report call fill three
// passes. A pass runs as many positions as its longest table has (43 for a
// key's, 32 for the generator's), a shorter table's lanes adding the
// identity past their last.
//
// One kernel call, fe8Comb, runs a whole pass. At each position it gathers
// every lane's entry into registers with masked VPGATHERQQs, one per limb,
// from the address tables[i] + j·stride + (|d|-1)·120 — a per-lane copy in
// Go cost about as much per position as the add it fed. A zero digit masks
// its lane off and keeps the identity entry (1, 1, 0), a negative digit
// swaps y+x and y-x by blend and negates xy2d as 2p - xy2d, and the signed
// entries go to memory once for the affine-Niels add that follows in the
// same call. The digits are
// recoded straight into the pass's position-major layout; the entries are
// read from the scalar comb's own table, one flat array stored carried for
// exactly this (see Table).
//
// The ladder runs its point formulas — double and projective-Niels add, the
// formulas of edPoint in ed25519.go — as point kernels of fe25519x8_amd64.s,
// one call per formula with the temporaries in memory the caller owns,
// rather than as one call per field operation: the formula's seven to
// eleven multiplies and squares are the same either way, and what one call
// saves is the per-call entry, the constant loads and a store and reload for
// every intermediate, about a sixth of a ladder multiplication. The a = -1
// formulas are complete, so identity and small-order lanes, and identity
// entries, need no special case.

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

// edMulBatchx8 is the lane ladder behind Group.mulBatch: outs[i] =
// k*ps[i] (8*k*ps[i] when dh), eight points per pass. A last group shorter
// than eight repeats its points in the spare lanes, so there is no
// scalar tail path.
func edMulBatchx8(outs []edPoint, ps []Element, digits []int8, dh bool) {
	s := new(edLadderx8)
	s.d2.broadcast(&edD2)
	for base := 0; base < len(ps); base += 8 {
		n := min(8, len(ps)-base)
		for i := 0; i < 8; i++ {
			s.q.setLane(i, ps[base+i%n].edwards())
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

// affineNielsBytes is the size of one comb-table entry, three fe25519s: the
// stride fe8Comb steps a digit's magnitude by (TestPointKernelLayout).
const affineNielsBytes = 120

// edCombx8 is the working state of one eight-lane comb pass, on the heap for
// the same reason as edLadderx8, and laid out as fe8Comb addresses it
// (TestPointKernelLayout): the accumulator, the signed entries of one
// position, the point kernel's temporaries, then each lane's table — the
// address of its first entry and the bytes from one row to the next — and
// the pass's digits, position-major: lane i's digit at position j is
// digits[8*j+i].
type edCombx8 struct {
	acc edPointx8
	n   affineNielsx8
	tmp [7]fe25519x8

	tables  [8]*affineNiels
	strides [8]uint64
	digits  [8 * edCombMaxPositions]int8
}

// fe8Comb runs positions 0 to positions-1 of a comb pass: at each it
// gathers every lane's entry for the magnitude of its digit — a masked
// gather, so a zero digit keeps the identity entry (1, 1, 0) — makes it the
// entry's negative where the digit is negative (y+x and y-x swap, xy2d
// becomes 2p - xy2d, below 2^52 for a carried entry), and adds it to
// s.acc with the formula of edPoint.addAffineNiels. Its sign step uses
// AVX512DQ's VPMOVQ2M besides AVX512F (see hasIFMA).
//
//go:noescape
func fe8Comb(s *edCombx8, positions int)

// edCombBatchx8 is the lane comb behind Group.mulTables: *m.out =
// m.k*P + *m.q for the point P of each m.t, eight multiplications per pass
// from any mix of tables. A pass runs the positions of its longest table; a
// shorter table's lanes past their last position, and the spare lanes of a
// last group smaller than eight, have zero digits and add the identity.
func edCombBatchx8(ms []edCombMul) {
	s := new(edCombx8)
	for base := 0; base < len(ms); base += 8 {
		group := ms[base:min(base+8, len(ms))]
		s.acc.identity()
		s.digits = [8 * edCombMaxPositions]int8{}
		positions := 0
		for i, m := range group {
			s.tables[i] = &m.t.entries[0]
			s.strides[i] = affineNielsBytes << (m.t.w - 1)
			combDigits(&m.k, m.t, s.digits[i:], 8)
			positions = max(positions, m.t.positions)
			if m.q != nil {
				s.acc.setLane(i, m.q)
			}
		}
		fe8Comb(s, positions)
		for i, m := range group {
			s.acc.lane(i, m.out)
		}
	}
}
