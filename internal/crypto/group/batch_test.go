package group

import (
	"bytes"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// forLanes runs f with the lane kernels forced off ("scalar") and then as
// this process selected them ("lanes", skipped where it has none), so each
// batch path runs both of its implementations.
func forLanes(t *testing.T, f func(t *testing.T)) {
	ladder, comb, valid := laneLadder, laneComb, laneValid
	t.Run("scalar", func(t *testing.T) {
		laneLadder, laneComb, laneValid = nil, nil, nil
		defer func() { laneLadder, laneComb, laneValid = ladder, comb, valid }()
		f(t)
	})
	t.Run("lanes", func(t *testing.T) {
		if ladder == nil {
			t.Skipf("lane kernels not run: this process selected the %q kernel (no AVX-512 IFMA on this CPU, or a build without the vector files)", Kernel())
		}
		f(t)
	})
}

// mulEncodeAll runs MulEncode over ps (and qs) and returns each result's
// encoding, nil where the inputs did not decode.
func mulEncodeAll(op *MulOp, ps, qs [][]byte) [][]byte {
	dst, lens := make([]byte, op.Form*len(ps)), make([]uint8, len(ps))
	Group{}.MulEncode(op, dst, lens, ps, qs)
	out := make([][]byte, len(ps))
	for i, l := range lens {
		if l != 0 {
			out[i] = dst[op.Form*i : op.Form*i+int(l)]
		}
	}
	return out
}

// mulEncodeRef is result i of MulEncode computed on the solo paths: Decode,
// Mul or MulDH, Sub, Encode or Compress; nil where an input does not decode.
func mulEncodeRef(op *MulOp, ps, qs [][]byte, i int) []byte {
	g := Group{}
	p, err := g.Decode(ps[i])
	if err != nil {
		return nil
	}
	r := g.Mul(p, op.K)
	if op.DH {
		r = g.MulDH(p, op.K)
	}
	if qs != nil {
		q, err := g.Decode(qs[i])
		if err != nil {
			return nil
		}
		r = g.Sub(q, r)
	}
	if op.Form == WireSize {
		return g.Encode(nil, r)
	}
	return g.Compress(nil, r)
}

// hostileEncoding returns an encoding of kind k%9 built on the honest point
// p (a non-identity subgroup element) and the torsion point tor: the wire
// and compressed forms, the identity's byte, the point plus torsion, and
// five that Decode refuses — non-canonical, off the curve, the identity's
// 65-byte form, and short or empty.
func hostileEncoding(p, tor Element, k, b byte) []byte {
	g := Group{}
	switch k % 9 {
	case 0:
		return g.Encode(nil, p)
	case 1:
		return g.Compress(nil, p)
	case 2:
		return []byte{0}
	case 3:
		return g.Encode(nil, g.Add(p, tor))
	case 4:
		e := g.Encode(nil, p)
		for i := 1 + 32*int(b&1); i < 32+32*int(b&1); i++ {
			e[i] = 0xff
		}
		e[32+32*int(b&1)] = 0x7f // x or y at least p
		return e
	case 5:
		e := g.Encode(nil, p)
		e[1+int(b)%64] ^= 1 << (b % 8)
		return e
	case 6:
		e := make([]byte, WireSize)
		e[0], e[33] = tagRistretto, 1
		return e
	case 7:
		return g.Encode(nil, p)[:int(b)%WireSize]
	default:
		return g.Compress(nil, p)[:int(b)%32]
	}
}

// FuzzMulEncode holds MulEncode's lanes to its scalar implementation, and
// both to the solo paths on a sample, on batches of 1, 7, 8, 9, 255, 256
// and 257 encodings drawn by the fuzzer from honest points and hostile
// ones (hostileEncoding), under any scalar, with and without the cofactor
// clearing and minuends, in both output forms.
func FuzzMulEncode(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(0))
	f.Add([]byte("hostile encodings"), uint8(3), uint8(7))
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint8(6), uint8(2))
	f.Add([]byte{9, 0, 18, 3}, uint8(5), uint8(5))
	r := mrand.New(mrand.NewSource(51))
	g := Group{}
	var honest [16]Element
	for i := range honest {
		honest[i] = randomElement(g, r)
	}
	tor := Element{ed: edTorsionGenerator(f)}
	sizes := []int{1, 7, 8, 9, 255, 256, 257}
	f.Fuzz(func(t *testing.T, data []byte, size, flags uint8) {
		if len(data) == 0 {
			return
		}
		n := sizes[int(size)%len(sizes)]
		var k Scalar
		for i := range k {
			k[i] = data[(i*7)%len(data)] ^ byte(i)
		}
		k[0] &= 0x0f
		op := &MulOp{K: k, DH: flags&1 != 0, Form: WireSize}
		if flags&2 != 0 {
			op.Form = CompressedSize
		}
		ps := make([][]byte, n)
		var qs [][]byte
		if flags&4 != 0 {
			qs = make([][]byte, n)
		}
		for i := range ps {
			b := data[i%len(data)]
			p := honest[(int(b)+i)%len(honest)]
			ps[i] = hostileEncoding(p, tor, b+byte(i/len(data)), byte(i))
			if qs != nil {
				qs[i] = hostileEncoding(honest[i%len(honest)], tor, data[(i+1)%len(data)]>>4, b)
			}
		}
		var scalar [][]byte
		func() {
			saved := laneLadder
			laneLadder = nil
			defer func() { laneLadder = saved }()
			scalar = mulEncodeAll(op, ps, qs)
		}()
		for i := 0; i < n; i += 1 + n/8 {
			if want := mulEncodeRef(op, ps, qs, i); !bytes.Equal(scalar[i], want) {
				t.Fatalf("n=%d op %+v: scalar entry %d = %x, the solo paths say %x", n, *op, i, scalar[i], want)
			}
		}
		if laneLadder == nil {
			return
		}
		lanes := mulEncodeAll(op, ps, qs)
		for i := range lanes {
			if !bytes.Equal(lanes[i], scalar[i]) {
				t.Fatalf("n=%d op %+v: lane entry %d (%x) = %x, the scalar path says %x", n, *op, i, ps[i], lanes[i], scalar[i])
			}
		}
	})
}

// FuzzValidBatch holds ValidBatch, on its lanes and on its scalar side, to
// Valid on batches of 1, 7, 8, 9 and 257 encodings drawn by the fuzzer from
// honest points and hostile ones (hostileEncoding: non-canonical, off the
// curve, both identity forms, torsion, short).
func FuzzValidBatch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add([]byte("hostile encodings"), uint8(3))
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint8(4))
	f.Add([]byte{6, 2, 6, 2, 3, 3, 4, 5}, uint8(2))
	r := mrand.New(mrand.NewSource(54))
	g := Group{}
	var honest [16]Element
	for i := range honest {
		honest[i] = randomElement(g, r)
	}
	tor := Element{ed: edTorsionGenerator(f)}
	sizes := []int{1, 7, 8, 9, 257}
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		if len(data) == 0 {
			return
		}
		bs := make([][]byte, sizes[int(size)%len(sizes)])
		for i := range bs {
			b := data[i%len(data)]
			bs[i] = hostileEncoding(honest[(int(b)+i)%len(honest)], tor, b+byte(i/len(data)), byte(i))
		}
		check := func(path string) {
			valid := make([]bool, len(bs))
			g.ValidBatch(valid, bs)
			for i, b := range bs {
				if valid[i] != g.Valid(b) {
					t.Fatalf("%s ValidBatch entry %d (%x) = %v, Valid says %v", path, i, b, valid[i], !valid[i])
				}
			}
		}
		func() {
			saved := laneValid
			laneValid = nil
			defer func() { laneValid = saved }()
			check("scalar")
		}()
		if laneValid != nil {
			check("lane")
		}
	})
}

// TestMulEncodeChunkSizes holds MulEncode to the solo paths at the sizes
// its normalization could get wrong: a few lane groups (the plain client's
// twenty comb products of a 5-report call take three), a partial last
// group, and chunk boundaries up to two chunks and a half.
func TestMulEncodeChunkSizes(t *testing.T) {
	r := mrand.New(mrand.NewSource(52))
	g := Group{}
	ps := make([][]byte, 2*batchChunk+batchChunk/2)
	for i := range ps {
		ps[i] = g.Encode(nil, randomElement(g, r))
	}
	op := &MulOp{K: ScalarFromBig(randEdScalar(r)), Form: CompressedSize}
	want := make([][]byte, len(ps))
	for i := range ps {
		want[i] = mulEncodeRef(op, ps, nil, i)
	}
	forLanes(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 5, 8, 20, 63, 64, 65, 255, 256, 257, 511, 512, 513, len(ps)} {
			got := mulEncodeAll(op, ps[:n], nil)
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("n=%d: entry %d = %x, the solo paths say %x", n, i, got[i], want[i])
				}
			}
		}
	})
}

// BenchmarkMulEncode prices a chunk of the fused path per point, for the
// three shapes the chain runs: hop 1's blinding (wire in, wire out), hop
// 2's pseudonyms (two wire inputs, compressed out) and an open's DH
// (cofactor cleared, compressed out), on the lanes and forced scalar.
func BenchmarkMulEncode(b *testing.B) {
	r := mrand.New(mrand.NewSource(53))
	g := Group{}
	ps, qs := make([][]byte, batchChunk), make([][]byte, batchChunk)
	for i := range ps {
		ps[i], qs[i] = g.Encode(nil, randomElement(g, r)), g.Encode(nil, randomElement(g, r))
	}
	k := ScalarFromBig(new(big.Int).Sub(edOrder, big.NewInt(int64(r.Intn(1000)))))
	shapes := []struct {
		name string
		op   MulOp
		qs   [][]byte
	}{
		{"blind", MulOp{K: k, Form: WireSize}, nil},
		{"pseudonym", MulOp{K: k, Form: CompressedSize}, qs},
		{"dh", MulOp{K: k, DH: true, Form: CompressedSize}, nil},
	}
	dst, lens := make([]byte, WireSize*len(ps)), make([]uint8, len(ps))
	for _, sh := range shapes {
		for _, lanes := range []bool{true, false} {
			b.Run(fmt.Sprintf("%s/lanes=%v", sh.name, lanes), func(b *testing.B) {
				if lanes && laneLadder == nil {
					b.Skipf("lane kernels not run: this process selected the %q kernel", Kernel())
				}
				if !lanes {
					saved := laneLadder
					laneLadder = nil
					defer func() { laneLadder = saved }()
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g.MulEncode(&sh.op, dst, lens, ps, sh.qs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)), "ns/point")
			})
		}
	}
}

// BenchmarkValidBatch prices hop 1's C1 check per point: a chunk of wire
// encodings through ValidBatch on the lanes and forced scalar.
func BenchmarkValidBatch(b *testing.B) {
	r := mrand.New(mrand.NewSource(55))
	g := Group{}
	bs := make([][]byte, batchChunk)
	for i := range bs {
		bs[i] = g.Encode(nil, randomElement(g, r))
	}
	valid := make([]bool, len(bs))
	for _, lanes := range []bool{true, false} {
		b.Run(fmt.Sprintf("lanes=%v", lanes), func(b *testing.B) {
			if lanes && laneValid == nil {
				b.Skipf("lane kernels not run: this process selected the %q kernel", Kernel())
			}
			if !lanes {
				saved := laneValid
				laneValid = nil
				defer func() { laneValid = saved }()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.ValidBatch(valid, bs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bs)), "ns/point")
		})
	}
}
