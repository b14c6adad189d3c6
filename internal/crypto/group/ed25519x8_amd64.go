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
// same call. The entries are read from the scalar comb's own table, one
// flat array stored carried for exactly this (see Table).
//
// The Go side of a pass is kept to a small share of the kernel's time
// (BenchmarkEdCombBatch's kernel cases). Group.mulTables hands the passes
// their multiplications in one counting pass by table length, into scratch
// and outputs the CombBatch owns for the whole call, and a Run takes its
// pass state from a pool. A pass recodes its eight scalars together
// (edCombx8.recode): each scalar's digits come from one 256-bit addition
// and byte-wise window arithmetic, eight digits a word (combWords, held to
// combDigits), and one 8x8 byte transpose per eight positions lays the
// lanes' words out position-major, eight lanes' digits a word, as fe8Comb
// reads them.
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

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

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
// the pass's digits, position-major: lane i's digit at position j is byte i
// of digits[j].
type edCombx8 struct {
	acc edPointx8
	n   affineNielsx8
	tmp [7]fe25519x8

	tables  [8]*affineNiels
	strides [8]uint64
	digits  [edCombMaxPositions]uint64
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

// combStates recycles the lane comb's pass state, about 5 KiB, across
// calls: a CombBatch's Run takes one for its whole range.
var combStates = sync.Pool{New: func() any { return new(edCombx8) }}

// identityx8 is the identity in every lane.
var identityx8 = func() (p edPointx8) {
	p.identity()
	return p
}()

// edCombBatchx8 is the lane comb behind Group.mulTables: *m.out =
// m.k*P + *m.q for the point P of each m.t, eight multiplications per pass
// from any mix of tables. A pass runs the positions of its longest table; a
// shorter table's lanes past their last position, and the spare lanes of a
// last group smaller than eight, have zero digits and add the identity.
func edCombBatchx8(ms []edCombMul) {
	s := combStates.Get().(*edCombx8)
	for base := 0; base < len(ms); base += 8 {
		group := ms[base:min(base+8, len(ms))]
		fe8Comb(s, s.load(group))
		for i := range group {
			s.acc.lane(i, group[i].out)
		}
	}
	combStates.Put(s)
}

// load sets s up for a pass over group, at most eight multiplications, and
// returns the pass's positions: each lane's table and addend, and the
// digits of every lane.
func (s *edCombx8) load(group []edCombMul) (positions int) {
	s.acc = identityx8
	for i := range group {
		m := &group[i]
		s.tables[i] = &m.t.entries[0]
		s.strides[i] = affineNielsBytes << (m.t.w - 1)
		positions = max(positions, m.t.positions)
		if m.q != nil {
			s.acc.setLane(i, m.q)
		}
	}
	s.recode(group, positions)
	return positions
}

// recode writes the digits of a pass's positions, all lanes at once: each
// lane's scalar becomes eight digits a word (combWords), and each eight
// positions' words, one per lane, are transposed into eight position rows.
// Spare lanes, and a shorter table's lanes past its last position, get zero
// digits.
func (s *edCombx8) recode(group []edCombMul, positions int) {
	var words [8][combWordsPerLane]uint64
	for i := range group {
		combWords(&group[i].k, group[i].t, &words[i])
	}
	for c := 0; 8*c < positions; c++ {
		rows := [8]uint64{words[0][c], words[1][c], words[2][c], words[3][c],
			words[4][c], words[5][c], words[6][c], words[7][c]}
		transposeBytes8(&rows)
		copy(s.digits[8*c:positions], rows[:])
	}
}

// combWordsPerLane is the words a lane's digits fill, eight digits each.
const combWordsPerLane = (edCombMaxPositions + 7) / 8

// combHalf6 and combHalf8 hold 2^(w-1) at every position of a width-w
// table: bit w·j + w-1 for each of its positions j.
var combHalf6, combHalf8 = combHalf(6, 43), combHalf(8, 32)

func combHalf(w, positions int) (h [5]uint64) {
	for j := 0; j < positions; j++ {
		bit := w*j + w - 1
		h[bit/64] |= 1 << (bit % 64)
	}
	return h
}

// combWords writes the digits combDigits gives k for t into words, one
// byte each (two's complement), position j at byte j%8 of words[j/8], by a
// route without a carry from digit to digit: each digit lies in
// [-2^(w-1), 2^(w-1)), so digit + 2^(w-1) is a radix-2^w digit of
// k + half, half holding 2^(w-1) at every position, and the digits are that
// sum's windows less 2^(w-1). A width-8 window is a byte; a width-6 one is
// spread out of each 48 bits into a byte of its own; those are the two
// widths buildEdComb builds. Like combDigits it panics on a scalar whose top
// digit would overflow, which none below 2^253 does.
func combWords(k *Scalar, t *Table, words *[combWordsPerLane]uint64) {
	half := &combHalf8
	if t.w == 6 {
		half = &combHalf6
	}
	var x [5]uint64
	var c uint64
	for i := 0; i < 4; i++ {
		x[i], c = bits.Add64(binary.BigEndian.Uint64(k[24-8*i:]), half[i], c)
	}
	x[4] = half[4] + c
	if t.w == 8 {
		if x[4] != 0 {
			panic("group: comb recoding overflow")
		}
		for i := 0; i < 4; i++ {
			words[i] = x[i] ^ 0x8080808080808080
		}
		return
	}
	if x[4]>>2 != 0 { // 43 windows end at bit 258
		panic("group: comb recoding overflow")
	}
	for c := 0; c < 6; c++ {
		limb, off := 48*c/64, uint(48*c%64)
		v := (x[limb]>>off | x[limb+1]<<(64-off)) & (1<<48 - 1)
		v = v&0xffffff | v>>24&0xffffff<<32
		v = v&0x00000fff00000fff | v>>12&0x00000fff00000fff<<16
		v = v&0x003f003f003f003f | v>>6&0x003f003f003f003f<<8
		// less 32, each byte: flip bit 5 and copy it into bits 6 and 7
		v ^= 0x2020202020202020
		words[c] = v | v&0x2020202020202020*6
	}
}

// transposeBytes8 transposes the 8x8 byte matrix whose row i is the
// little-endian bytes of r[i]: byte j of r[i] moves to byte i of r[j].
// Three rounds swap the off-diagonal blocks of 4, 2 and 1 bytes.
func transposeBytes8(r *[8]uint64) {
	for i := 0; i < 4; i++ {
		a, b := r[i], r[i+4]
		r[i], r[i+4] = a&0x00000000ffffffff|b<<32, a>>32|b&0xffffffff00000000
	}
	for _, i := range [4]int{0, 1, 4, 5} {
		a, b := r[i], r[i+2]
		r[i], r[i+2] = a&0x0000ffff0000ffff|b&0x0000ffff0000ffff<<16, a>>16&0x0000ffff0000ffff|b&0xffff0000ffff0000
	}
	for i := 0; i < 8; i += 2 {
		a, b := r[i], r[i+1]
		r[i], r[i+1] = a&0x00ff00ff00ff00ff|b&0x00ff00ff00ff00ff<<8, a>>8&0x00ff00ff00ff00ff|b&0xff00ff00ff00ff00
	}
}
