//go:build amd64 && !purego

package group

import (
	"encoding/binary"
	"sync"
)

// The lane form of the batch paths of batch.go: a chunk's points go from
// their encodings into edPointx8 groups, through the ladder or the comb,
// and out of a lane Montgomery trick as affine x and y, without an edPoint
// or an Element between. The decode checks the curve equation and computes
// T = x·y on the field kernels, eight points a call; the normalization
// multiplies the chunk's z's group by group in lanes, so its one scalar
// inversion serves the eight lane totals at once, and a chunk of a few
// groups — the 20 products of a plain client's 5-report call — pays that
// one inversion and a few lane multiplications, not a lane inversion.

// laneScratch is one worker's lane state for a chunk: the products, the
// normalization's running products, the ladder's and the comb's pass state
// and the constants the decode reads. Pooled: one is about 75 KiB.
type laneScratch struct {
	pts       [batchChunk / 8]edPointx8
	prefix    [batchChunk / 8]fe25519x8
	inv, zinv fe25519x8
	minuend   edPointx8
	ladder    edLadderx8
	comb      edCombx8
	d, one    fe25519x8
}

var laneScratches = sync.Pool{New: func() any {
	s := new(laneScratch)
	var one fe25519
	one.One()
	s.ladder.d2.broadcast(&edD2)
	s.d.broadcast(&edD)
	s.one.broadcast(&one)
	return s
}}

// mulEncodex8 is mulEncodeScalar in lanes: each group of eight inputs is
// decoded into the ladder's point, multiplied, subtracted from its decoded
// minuends when qs is set, and left in s.pts for encodex8.
func mulEncodex8(op *MulOp, ps, qs [][]byte, out sink) {
	var digits [258]int8
	n := wnafDigits(op.K[:], &digits)
	s := laneScratches.Get().(*laneScratch)
	groups := (len(ps) + 7) / 8
	for g := 0; g < groups; g++ {
		lo, hi := 8*g, min(8*g+8, len(ps))
		ok := s.decodex8(&s.ladder.q, ps[lo:hi])
		if qs != nil {
			ok &= s.decodex8(&s.minuend, qs[lo:hi])
		}
		for i := lo; i < hi; i++ {
			out.lens[i] = ok >> (i - lo) & 1
		}
		acc := &s.pts[g]
		edScalarMulWNAFx8(&s.ladder, acc, digits[:n], op.DH)
		if qs != nil {
			s.ladder.toProjNiels(&s.ladder.q2n, acc)
			fe8AddNiels(acc, &s.minuend, &s.ladder.q2n, &s.ladder.tmp, true)
		}
	}
	s.encodex8(groups, len(ps), &out)
	laneScratches.Put(s)
}

// validx8 is ValidBatch on the lane decode: decodex8 eight encodings at a
// time into the ladder's input point, which nothing then multiplies.
func validx8(valid []bool, bs [][]byte) {
	s := laneScratches.Get().(*laneScratch)
	for lo := 0; lo < len(bs); lo += 8 {
		hi := min(lo+8, len(bs))
		ok := s.decodex8(&s.ladder.q, bs[lo:hi])
		for i := lo; i < hi; i++ {
			valid[i] = ok>>(i-lo)&1 != 0
		}
	}
	laneScratches.Put(s)
}

// combEncodex8 is combEncodeScalar in lanes: a pass of the lane comb per
// eight multiplications, each pass's accumulator kept as a group for
// encodex8. A last multiplication alone — fewer than combLaneMin — runs
// mulComb instead, in a group of its own.
func combEncodex8(ms []edCombMul, out sink) {
	s := laneScratches.Get().(*laneScratch)
	lanes := len(ms)
	if tail := lanes % 8; tail < combLaneMin {
		lanes -= tail
	}
	groups := 0
	for base := 0; base < lanes; base += 8 {
		fe8Comb(&s.comb, s.comb.load(ms[base:min(base+8, lanes)]))
		s.pts[groups] = s.comb.acc
		groups++
	}
	if lanes < len(ms) {
		p := &s.pts[groups]
		*p = identityx8
		for i, m := range ms[lanes:] {
			var pt edPoint
			m.t.mulComb(&pt, &m.k)
			if m.q != nil {
				pt.add(&pt, m.q)
			}
			p.setLane(i, &pt)
		}
		groups++
	}
	s.encodex8(groups, len(ms), &out)
	laneScratches.Put(s)
}

// identityXY is the x and y bytes of the identity's 65-byte form, which
// decode refuses: the identity has the 1-byte one.
var identityXY = string(append(make([]byte, 32), 1)) + string(make([]byte, 31))

// decodex8 decodes bs, at most eight encodings, into p's lanes as decode
// does, with z = 1 and T = x·y, and returns the mask of the lanes that
// decoded. Those lanes that did not, and every lane past len(bs), hold the
// identity. A canonical 65-byte form, the form the chain sends, is checked
// against the curve equation in lanes; anything else goes through decode.
func (s *laneScratch) decodex8(p *edPointx8, bs [][]byte) (ok uint8) {
	var wire uint8
	for i := 0; i < 8; i++ {
		var pt edPoint
		switch {
		case i < len(bs) && canonicalWire(bs[i]):
			p.x.setLaneBytes(i, bs[i][1:33])
			p.y.setLaneBytes(i, bs[i][33:65])
			wire |= 1 << i
		case i < len(bs) && decode(&pt, bs[i]) == nil:
			p.x.setLane(i, &pt.x)
			p.y.setLane(i, &pt.y)
			ok |= 1 << i
		default:
			p.identityLane(i)
		}
	}
	if wire != 0 {
		// -x² + y² - (1 + d·x²·y²), zero on the curve
		t := &s.ladder.tmp
		fe8Square(&t[0], &p.x)
		fe8Square(&t[1], &p.y)
		fe8Sub(&t[2], &t[1], &t[0])
		fe8Mul(&t[3], &t[0], &t[1])
		fe8Mul(&t[3], &t[3], &s.d)
		fe8Add(&t[3], &t[3], &s.one)
		fe8Sub(&t[2], &t[2], &t[3])
		for i := 0; i < 8; i++ {
			if wire>>i&1 == 0 {
				continue
			}
			var v fe25519
			if t[2].lane(i, &v); v.IsZero() {
				ok |= 1 << i
			} else {
				p.identityLane(i)
			}
		}
	}
	p.z = s.one
	fe8Mul(&p.t, &p.x, &p.y)
	return ok
}

// canonicalWire reports whether b is a 65-byte form decode would take to
// the curve check: tagged, both coordinates canonical, and not the
// identity's.
func canonicalWire(b []byte) bool {
	return len(b) == WireSize && b[0] == tagRistretto &&
		isCanonicalBytes25519(b[1:33]) && b[32]&0x80 == 0 &&
		isCanonicalBytes25519(b[33:65]) && b[64]&0x80 == 0 &&
		string(b[1:65]) != identityXY
}

// setLaneBytes loads lane i from 32 little-endian bytes of a canonical
// value, whose limbs need no reduction.
func (v *fe25519x8) setLaneBytes(i int, b []byte) {
	le := binary.LittleEndian
	v[0][i] = le.Uint64(b[0:]) & mask51
	v[1][i] = le.Uint64(b[6:]) >> 3 & mask51
	v[2][i] = le.Uint64(b[12:]) >> 6 & mask51
	v[3][i] = le.Uint64(b[19:]) >> 1 & mask51
	v[4][i] = le.Uint64(b[24:]) >> 12 & mask51
}

// identityLane sets lane i of p to the identity.
func (p *edPointx8) identityLane(i int) {
	for l := range p.x {
		p.x[l][i], p.y[l][i], p.z[l][i], p.t[l][i] = 0, 0, 0, 0
	}
	p.y[0][i], p.z[0][i] = 1, 1
}

// encodex8 puts the first n points of s.pts — point j in lane j%8 of group
// j/8 — with one field inversion: the z's are multiplied group by group in
// lanes, the eight lane totals are inverted together by Montgomery's trick
// on the scalar kernels, and the back pass in lanes gives each group its
// 1/z. Only x and y leave the lanes. Every z is non-zero, spare lanes'
// included.
func (s *laneScratch) encodex8(groups, n int, out *sink) {
	if groups == 0 {
		return
	}
	pts, prefix := s.pts[:groups], s.prefix[:groups]
	prefix[0] = pts[0].z
	for g := 1; g < groups; g++ {
		fe8Mul(&prefix[g], &prefix[g-1], &pts[g].z)
	}
	var tot [8]fe25519
	for i := range tot {
		prefix[groups-1].lane(i, &tot[i])
	}
	invert8(&tot)
	for i := range tot {
		s.inv.setLane(i, &tot[i])
	}
	var x, y fe25519
	for g := groups - 1; g >= 0; g-- {
		zinv := &s.inv
		if g > 0 {
			zinv = &s.zinv
			fe8Mul(zinv, &s.inv, &prefix[g-1])
			fe8Mul(&s.inv, &s.inv, &pts[g].z)
		}
		fe8Mul(&pts[g].x, &pts[g].x, zinv)
		fe8Mul(&pts[g].y, &pts[g].y, zinv)
		for i := 0; i < min(8, n-8*g); i++ {
			pts[g].x.lane(i, &x)
			pts[g].y.lane(i, &y)
			out.put(8*g+i, &x, &y)
		}
	}
}

// invert8 inverts eight non-zero elements in place with one inversion.
func invert8(v *[8]fe25519) {
	var prefix [8]fe25519
	acc := v[0]
	for i := 1; i < len(v); i++ {
		prefix[i] = acc
		acc.Mul(&acc, &v[i])
	}
	var inv fe25519
	inv.Invert(&acc)
	for i := len(v) - 1; i > 0; i-- {
		var t fe25519
		t.Mul(&inv, &prefix[i])
		inv.Mul(&inv, &v[i])
		v[i] = t
	}
	v[0] = inv
}
