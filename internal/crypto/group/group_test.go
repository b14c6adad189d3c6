package group

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
)

// forGroup runs fn as the group's subtest.
func forGroup(t *testing.T, fn func(t *testing.T, g Group)) {
	t.Run("ristretto255", func(t *testing.T) { fn(t, Default()) })
}

// detRng is a deterministic io.Reader for seeded-scalar tests.
type detRng struct{ r *rand.Rand }

func (d detRng) Read(p []byte) (int, error) { return d.r.Read(p) }

// generator returns the standard base point.
func generator() Element {
	p := edBase
	return Element{ed: &p}
}

func randomElement(g Group, r *rand.Rand) Element {
	var seed [16]byte
	r.Read(seed[:])
	return g.HashToElement(seed[:])
}

// encodeRef and compressRef are the allocating forms of Encode and
// Compress, as they were before both appended to a dst, on a copy of p's
// point: the reference the append forms are held to.
func encodeRef(p Element) []byte {
	pt := *p.edwards()
	if pt.isIdentity() {
		return []byte{0}
	}
	normalizeEd([]*edPoint{&pt})
	out := make([]byte, WireSize)
	out[0] = tagRistretto
	pt.x.Bytes(out[1:1:33])
	pt.y.Bytes(out[33:33:65])
	return out
}

func compressRef(p Element) []byte {
	pt := *p.edwards()
	if pt.isIdentity() {
		return []byte{0}
	}
	normalizeEd([]*edPoint{&pt})
	out := pt.y.Bytes(make([]byte, 0, 32))
	if pt.x.IsNegative() {
		out[31] |= 0x80
	}
	return out
}

func TestGroupLaws(t *testing.T) {
	forGroup(t, func(t *testing.T, g Group) {
		r := rand.New(rand.NewSource(40))
		rng := detRng{rand.New(rand.NewSource(41))}
		for i := 0; i < 10; i++ {
			p := randomElement(g, r)
			q := randomElement(g, r)

			// commutativity and identity
			if !g.Equal(g.Add(p, q), g.Add(q, p)) {
				t.Fatal("add not commutative")
			}
			if !g.Equal(g.Add(p, g.Identity()), p) {
				t.Fatal("identity not neutral")
			}
			if !g.IsIdentity(g.Sub(p, p)) {
				t.Fatal("p - p != identity")
			}
			if !g.Equal(g.Add(g.Sub(p, q), q), p) {
				t.Fatal("(p - q) + q != p")
			}

			// scalar laws
			a, err := g.RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			b, err := g.RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			// (a*P) + (b*P) == (a+b mod n)*P
			sum := ScalarToBig(a)
			sum.Add(sum, ScalarToBig(b))
			sum.Mod(sum, g.Order())
			lhs := g.Add(g.Mul(p, a), g.Mul(p, b))
			rhs := g.Mul(p, ScalarFromBig(sum))
			if !g.Equal(lhs, rhs) {
				t.Fatal("scalar distributivity failed")
			}
			// a*(b*P) == (a*b mod n)*P
			prod := ScalarToBig(a)
			prod.Mul(prod, ScalarToBig(b))
			prod.Mod(prod, g.Order())
			if !g.Equal(g.Mul(g.Mul(p, b), a), g.Mul(p, ScalarFromBig(prod))) {
				t.Fatal("scalar associativity failed")
			}
			// BaseMul vs Mul(Generator)
			if !g.Equal(g.BaseMul(a), g.Mul(generator(), a)) {
				t.Fatal("BaseMul != Mul(G)")
			}
		}
	})
}

func TestGroupEncodeDecode(t *testing.T) {
	forGroup(t, func(t *testing.T, g Group) {
		r := rand.New(rand.NewSource(42))
		for i := 0; i < 10; i++ {
			p := randomElement(g, r)

			wire := g.Encode(nil, p)
			if len(wire) != WireSize {
				t.Fatalf("wire size %d", len(wire))
			}
			back, err := g.Decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(back, p) {
				t.Fatal("wire round trip mismatch")
			}

			comp := g.Compress(nil, p)
			back2, err := g.Decode(comp)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(back2, p) {
				t.Fatal("compressed round trip mismatch")
			}

			// compression must be canonical: same element from two
			// different projective representatives
			doubleViaAdd := g.Add(p, p)
			viaMul := g.Mul(p, Scalar{31: 2})
			if !bytes.Equal(g.Compress(nil, doubleViaAdd), g.Compress(nil, viaMul)) {
				t.Fatal("compression not canonical across representatives")
			}
		}

		// identity encodings
		id := g.Identity()
		if !bytes.Equal(g.Encode(nil, id), []byte{0}) || !bytes.Equal(g.Compress(nil, id), []byte{0}) {
			t.Fatal("identity must use the 1-byte sentinel")
		}

		// the append forms equal the allocating ones they replaced, byte
		// for byte, after any prefix, into a full or a roomy dst, for
		// affine and projective points and the identity's 1-byte form
		prefix := []byte("hdr")
		q := randomElement(g, r)
		for _, form := range []struct {
			name      string
			append    func(dst []byte, p Element) []byte
			reference func(p Element) []byte
		}{
			{"Encode", g.Encode, encodeRef},
			{"Compress", g.Compress, compressRef},
			{"SharedBytes", g.SharedBytes, compressRef},
		} {
			// fresh elements per form: an append form normalizes its
			// point in place
			for i, p := range []Element{id, q, g.Add(q, generator()), g.Mul(generator(), Scalar{31: 3})} {
				want := append(append([]byte{}, prefix...), form.reference(p)...)
				for _, dst := range [][]byte{prefix[:len(prefix):len(prefix)], append(make([]byte, 0, 128), prefix...)} {
					if got := form.append(dst, p); !bytes.Equal(got, want) {
						t.Fatalf("element %d: %s(%q, p) = %x, the allocating form says %x", i, form.name, dst, got, want)
					}
				}
			}
		}
		back, err := g.Decode([]byte{0})
		if err != nil || !g.IsIdentity(back) {
			t.Fatal("identity decode failed")
		}

		// junk must be rejected
		for _, junk := range [][]byte{nil, {1}, {0, 0}, make([]byte, WireSize), make([]byte, 64)} {
			if _, err := g.Decode(junk); err == nil {
				t.Fatalf("junk %v decoded", junk)
			}
		}
		// corrupted wire point (off curve)
		p := randomElement(g, rand.New(rand.NewSource(7)))
		wire := g.Encode(nil, p)
		wire[20] ^= 0x40
		if _, err := g.Decode(wire); err == nil {
			t.Fatal("off-curve wire point decoded")
		}
	})
}

func TestGroupMulBatchEquivalence(t *testing.T) {
	forGroup(t, func(t *testing.T, g Group) {
		r := rand.New(rand.NewSource(43))
		rng := detRng{rand.New(rand.NewSource(44))}
		k, err := g.RandomScalar(rng)
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]Element, 9)
		want := make([]Element, len(ps))
		for i := range ps {
			if i == 3 {
				ps[i] = g.Identity()
			} else {
				ps[i] = randomElement(g, r)
			}
			want[i] = g.Mul(ps[i], k)
		}
		dst := make([]Element, len(ps))
		g.MulBatch(dst, ps, k)
		for i := range dst {
			if !g.Equal(dst[i], want[i]) {
				t.Fatalf("MulBatch entry %d != Mul", i)
			}
		}
		// normalized results must encode identically to solo results
		g.Normalize(dst)
		for i := range dst {
			if !bytes.Equal(g.Encode(nil, dst[i]), g.Encode(nil, want[i])) {
				t.Fatalf("entry %d encoding mismatch after Normalize", i)
			}
		}
		// the DH batch, in place, derives the solo path's shared bytes
		dh := g.PrepareDH(k)
		for i := range ps {
			want[i] = g.MulDH(ps[i], dh)
		}
		g.MulDHBatch(ps, ps, dh)
		g.Normalize(ps)
		for i := range ps {
			if !bytes.Equal(g.SharedBytes(nil, ps[i]), g.SharedBytes(nil, want[i])) {
				t.Fatalf("MulDHBatch entry %d: shared bytes differ from MulDH", i)
			}
		}
	})
}

func TestGroupPrecomputeEquivalence(t *testing.T) {
	forGroup(t, func(t *testing.T, g Group) {
		r := rand.New(rand.NewSource(45))
		rng := detRng{rand.New(rand.NewSource(46))}
		p := randomElement(g, r)
		table := g.Precompute(p)
		for i := 0; i < 6; i++ {
			k, err := g.RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(table.Mul(k), g.Mul(p, k)) {
				t.Fatal("Precompute table disagrees with Mul")
			}
		}
	})
}

func TestGroupDH(t *testing.T) {
	forGroup(t, func(t *testing.T, g Group) {
		rng := detRng{rand.New(rand.NewSource(47))}
		// standard ECDH consistency: both sides derive the same bytes
		aPriv, _ := g.RandomScalar(rng)
		bPriv, _ := g.RandomScalar(rng)
		aPub := g.BaseMul(aPriv)
		bPub := g.BaseMul(bPriv)
		// receivers decode the wire form, as the daemons do
		aPubD, err := g.Decode(g.Encode(nil, aPub))
		if err != nil {
			t.Fatal(err)
		}
		bPubD, err := g.Decode(g.Encode(nil, bPub))
		if err != nil {
			t.Fatal(err)
		}
		s1 := g.SharedBytes(nil, g.MulDH(bPubD, g.PrepareDH(aPriv)))
		s2 := g.SharedBytes(nil, g.MulDH(aPubD, g.PrepareDH(bPriv)))
		if len(s1) != 32 || !bytes.Equal(s1, s2) {
			t.Fatal("DH shared secrets disagree")
		}
		// and they agree with the plain scalar product
		prod := ScalarToBig(aPriv)
		prod.Mul(prod, ScalarToBig(bPriv))
		prod.Mod(prod, g.Order())
		s3 := g.SharedBytes(nil, g.BaseMul(ScalarFromBig(prod)))
		if !bytes.Equal(s1, s3) {
			t.Fatal("DH disagrees with direct scalar product")
		}
	})
}

func TestGroupHashToElement(t *testing.T) {
	forGroup(t, func(t *testing.T, g Group) {
		seen := map[string]bool{}
		for i := 0; i < 20; i++ {
			data := []byte{byte(i), 0x5a}
			p := g.HashToElement(data)
			q := g.HashToElement(data)
			if !g.Equal(p, q) {
				t.Fatal("hash not deterministic")
			}
			if g.IsIdentity(p) {
				t.Fatal("hash produced identity")
			}
			key := string(g.Compress(nil, p))
			if seen[key] {
				t.Fatal("hash collision across distinct inputs")
			}
			seen[key] = true
		}
	})
}

func TestGroupRandomScalarRange(t *testing.T) {
	forGroup(t, func(t *testing.T, g Group) {
		rng := detRng{rand.New(rand.NewSource(48))}
		for i := 0; i < 50; i++ {
			k, err := g.RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			v := ScalarToBig(k)
			if v.Sign() == 0 || v.Cmp(g.Order()) >= 0 {
				t.Fatalf("scalar out of range: %v", v)
			}
		}
		// determinism: same seed, same scalars
		r1 := detRng{rand.New(rand.NewSource(99))}
		r2 := detRng{rand.New(rand.NewSource(99))}
		for i := 0; i < 10; i++ {
			k1, _ := g.RandomScalar(r1)
			k2, _ := g.RandomScalar(r2)
			if k1 != k2 {
				t.Fatal("seeded scalars diverged")
			}
		}
	})
}

// katScalar is the fixed multiplier of the known-answer vectors: 0x0102…20,
// below the group order.
func katScalar() Scalar {
	var k Scalar
	for i := range k {
		k[i] = byte(i + 1)
	}
	return k
}

// katStream is the vectors' rng input: 32 bytes of 0xff, then 0, 1, 2, …
func katStream() *bytes.Reader {
	s := bytes.Repeat([]byte{0xff}, 32)
	for i := 0; i < 96; i++ {
		s = append(s, byte(i))
	}
	return bytes.NewReader(s)
}

// groupKATs pins the bytes the group emits for fixed inputs, so the next
// kernel change is checked against the same constants.
var groupKATs = []struct {
	// Encode and Compress of H = HashToElement("prochlo-kat").
	hashWire, hashComp string
	// Encode and Compress of katScalar*H, and Compress of katScalar*G.
	mulWire, mulComp, baseComp string
	// SharedBytes(MulDH(Decode(hashWire), PrepareDH(katScalar))).
	shared string
	// RandomScalar(katStream()) and the bytes it consumed.
	scalar   string
	consumed int
}{
	{
		hashWire: "05140d5a49219fea8728bbaa0c7f5968643a15f60bd5ff79d8ea82a3ae7b2cd564301b08a5a752d0772dec24a61886db57cd103d2c6879ae7f8ce9c6487186ee41",
		hashComp: "301b08a5a752d0772dec24a61886db57cd103d2c6879ae7f8ce9c6487186ee41",
		mulWire:  "053cbe6c25c17506da36888ba37725f163a0fd592d499a1865d1439e8401c8242d21775b4b9e31f78e85d21e9331051c472c4c4f680e0b818d5f387c4479cc3a2a",
		mulComp:  "21775b4b9e31f78e85d21e9331051c472c4c4f680e0b818d5f387c4479cc3a2a",
		baseComp: "80334024b705b5fd76b1bce1b26d96234ab7b2d989987895fa72c43b3e5c5f85",
		shared:   "21775b4b9e31f78e85d21e9331051c472c4c4f680e0b818d5f387c4479cc3a2a",
		scalar:   "039a431e8035a044d6f57ddd2402cc762e0ecba4ac1476c43d455da430166bf0",
		consumed: 64,
	},
}

func TestGroupKnownAnswers(t *testing.T) {
	for _, kat := range groupKATs {
		forGroup(t, func(t *testing.T, g Group) {
			check := func(what string, got []byte, want string) {
				t.Helper()
				if hex.EncodeToString(got) != want {
					t.Errorf("%s = %x, want %s", what, got, want)
				}
			}
			k := katScalar()
			h := g.HashToElement([]byte("prochlo-kat"))
			check("Encode(H)", g.Encode(nil, h), kat.hashWire)
			check("Compress(H)", g.Compress(nil, h), kat.hashComp)

			kh := g.Mul(h, k)
			check("Encode(k*H)", g.Encode(nil, kh), kat.mulWire)
			check("Compress(k*H)", g.Compress(nil, kh), kat.mulComp)
			check("Compress(k*G)", g.Compress(nil, g.BaseMul(k)), kat.baseComp)

			// the batch and fixed-point kernels land on the same bytes
			batch := []Element{h}
			g.MulBatch(batch, batch, k)
			g.Normalize(batch)
			check("Encode(MulBatch)", g.Encode(nil, batch[0]), kat.mulWire)
			check("Compress(Precompute(H).Mul(k))", g.Compress(nil, g.Precompute(h).Mul(k)), kat.mulComp)

			decoded, err := g.Decode(g.Encode(nil, h))
			if err != nil {
				t.Fatal(err)
			}
			check("SharedBytes", g.SharedBytes(nil, g.MulDH(decoded, g.PrepareDH(k))), kat.shared)

			rng := katStream()
			before := rng.Len()
			s, err := g.RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			check("RandomScalar", s[:], kat.scalar)
			if got := before - rng.Len(); got != kat.consumed {
				t.Errorf("RandomScalar consumed %d rng bytes, want %d", got, kat.consumed)
			}
		})
	}
}
