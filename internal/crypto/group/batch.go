package group

import "sync"

// The batch paths from encodings to encodings. A shuffler or analyzer holds
// wire bytes before a batch multiplication and wants wire bytes after it, and
// a client's comb products are encoded as soon as they exist; in between
// there is nothing to keep. So the batch entry points take encodings in and
// write canonical encodings out, a chunk of batchChunk points at a time in
// scratch a worker reuses, and never build an Element: MulEncode for the
// variable-base multiplications (a hop's blinding, its El Gamal decryption,
// every envelope open's DH) and CombBatch.Run for the fixed-base ones. On a
// lane build each chunk stays in lanes from the decode to the encode
// (batch_amd64.go); elsewhere the scalar implementation below runs behind
// the same entry points and writes the same bytes.

// CompressedSize is the byte length of a non-identity compressed encoding
// (Compress).
const CompressedSize = 32

// batchChunk is the most points a batch path holds at once: the products of
// one chunk share one field inversion, and its scratch stays a few tens of
// KiB however long the batch.
const batchChunk = 256

// MulOp is one fused batch multiplication (Group.MulEncode): each point P
// decoded from its encoding becomes K·P — 8·K·P when DH, which clears an
// untrusted point's cofactor as MulDH does — or Q − K·P where the batch has
// a minuend Q per point (the El Gamal decryption C2 − x·C1), encoded in
// Form: WireSize (Encode) or CompressedSize (Compress).
type MulOp struct {
	K    Scalar
	DH   bool
	Form int
}

// MulEncode runs op over ps, with qs[i] the minuend of ps[i] when qs is not
// nil, recoding op.K once per chunk. Result i's encoding goes to
// dst[i*op.Form : (i+1)*op.Form] and its length to lens[i]: op.Form, 1 for
// the identity's {0}, or 0 where ps[i] or qs[i] is not an encoding Decode
// accepts (its dst bytes are then unspecified). A batch costs one field
// inversion per batchChunk points and allocates nothing; concurrent calls
// each take their own scratch.
func (Group) MulEncode(op *MulOp, dst []byte, lens []uint8, ps, qs [][]byte) {
	if len(lens) != len(ps) || len(dst) < op.Form*len(ps) || qs != nil && len(qs) != len(ps) ||
		op.Form != WireSize && op.Form != CompressedSize {
		panic("group: MulEncode shape mismatch")
	}
	for lo := 0; lo < len(ps); lo += batchChunk {
		hi := min(lo+batchChunk, len(ps))
		var chunkQs [][]byte
		if qs != nil {
			chunkQs = qs[lo:hi]
		}
		out := sink{dst: dst[op.Form*lo:], lens: lens[lo:hi], form: op.Form}
		if laneLadder != nil {
			laneLadder(op, ps[lo:hi], chunkQs, out)
		} else {
			mulEncodeScalar(op, ps[lo:hi], chunkQs, out)
		}
	}
}

// laneLadder, when set, is the lane form of mulEncodeScalar: the lane
// ladder, with the decode and the normalization in lanes. Package init sets
// it once, on amd64 hosts whose CPU reports AVX-512 IFMA (batch_amd64.go),
// and nothing else writes it outside tests; nil means the scalar ladder is
// the only path.
var laneLadder func(op *MulOp, ps, qs [][]byte, out sink)

// sink is where a batch path's results go. A MulEncode chunk's result j
// goes to dst[form*j:], its length to lens[j], and only where lens[j] is
// not 0 (its inputs decoded), the implementation having set each lens[j]
// to 1 or 0 first; a comb chunk's result j is the product of ms[j], encoded
// in ms[j].form at dst[WireSize*ms[j].slot:], its length to
// lens[ms[j].slot].
type sink struct {
	dst  []byte
	lens []uint8
	form int
	ms   []edCombMul
}

// put encodes result j, with affine coordinates x and y.
func (s *sink) put(j int, x, y *fe25519) {
	if s.ms != nil {
		m := &s.ms[j]
		s.lens[m.slot] = encodeAffine(s.dst[WireSize*m.slot:], x, y, int(m.form))
	} else if s.lens[j] != 0 {
		s.lens[j] = encodeAffine(s.dst[s.form*j:], x, y, s.form)
	}
}

// pointScratch is the scalar batch paths' working set for one chunk.
type pointScratch struct {
	pts    [batchChunk]edPoint
	prefix [batchChunk]fe25519
}

var pointScratches = sync.Pool{New: func() any { return new(pointScratch) }}

// combScratch is a CombBatch Run's working set: the order it takes its
// range in, and one chunk of multiplications in that order for the kernels.
type combScratch struct {
	order []int32
	chunk [batchChunk]edCombMul
}

var combScratches = sync.Pool{New: func() any { return new(combScratch) }}

// mulEncodeScalar is one chunk of MulEncode on the scalar kernels.
func mulEncodeScalar(op *MulOp, ps, qs [][]byte, out sink) {
	var digits [258]int8
	n := wnafDigits(op.K[:], &digits)
	s := pointScratches.Get().(*pointScratch)
	pts := s.pts[:len(ps)]
	for j := range ps {
		var p, q edPoint
		good := decode(&p, ps[j]) == nil
		if qs != nil {
			good = decode(&q, qs[j]) == nil && good
		}
		out.lens[j] = 0
		if !good {
			pts[j].identity()
			continue
		}
		out.lens[j] = 1
		if op.DH {
			p.clearCofactor(&p)
		}
		edScalarMulWNAF(&pts[j], digits[:n], &p)
		if qs != nil {
			pts[j].neg(&pts[j])
			pts[j].add(&q, &pts[j])
		}
	}
	encodePoints(pts, s.prefix[:len(pts)], &out)
	pointScratches.Put(s)
}

// encodePoints puts every point of pts with one field inversion
// (Montgomery's trick, prefix holding the running products). Every z is
// non-zero, as the complete formulas leave it.
func encodePoints(pts []edPoint, prefix []fe25519, out *sink) {
	if len(pts) == 0 {
		return
	}
	var acc fe25519
	acc.One()
	for j := range pts {
		prefix[j] = acc
		acc.Mul(&acc, &pts[j].z)
	}
	var inv, zinv, x, y fe25519
	inv.Invert(&acc)
	for j := len(pts) - 1; j >= 0; j-- {
		zinv.Mul(&inv, &prefix[j])
		inv.Mul(&inv, &pts[j].z)
		x.Mul(&pts[j].x, &zinv)
		y.Mul(&pts[j].y, &zinv)
		out.put(j, &x, &y)
	}
}

// encodeAffine writes the encoding of the affine point (x, y) to dst in
// form (WireSize or CompressedSize) and returns its length: form, or 1 for
// the identity's {0}. It writes what Encode and Compress append.
func encodeAffine(dst []byte, x, y *fe25519, form int) uint8 {
	xc, yc := *x, *y
	xc.reduceFull()
	yc.reduceFull()
	if xc == (fe25519{}) && yc == (fe25519{1}) {
		dst[0] = 0
		return 1
	}
	if form == WireSize {
		dst[0] = tagRistretto
		xc.Bytes(dst[1:1])
		yc.Bytes(dst[33:33])
		return WireSize
	}
	yc.Bytes(dst[:0])
	dst[31] |= byte(xc[0]&1) << 7
	return CompressedSize
}
