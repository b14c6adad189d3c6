package group

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

func testGroups() []Group { return []Group{P256, Ristretto255} }

// detRng is a deterministic io.Reader for seeded-scalar tests.
type detRng struct{ r *rand.Rand }

func (d detRng) Read(p []byte) (int, error) { return d.r.Read(p) }

func randomElement(g Group, r *rand.Rand) Element {
	var seed [16]byte
	r.Read(seed[:])
	return g.HashToElement(seed[:])
}

func TestGroupLaws(t *testing.T) {
	for _, g := range testGroups() {
		t.Run(g.Name(), func(t *testing.T) {
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
				if !g.IsIdentity(g.Add(p, g.Neg(p))) {
					t.Fatal("p + (-p) != identity")
				}
				if !g.Equal(g.Sub(p, q), g.Add(p, g.Neg(q))) {
					t.Fatal("sub != add neg")
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
				if !g.Equal(g.BaseMul(a), g.Mul(g.Generator(), a)) {
					t.Fatal("BaseMul != Mul(G)")
				}
			}
		})
	}
}

func TestGroupEncodeDecode(t *testing.T) {
	for _, g := range testGroups() {
		t.Run(g.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			for i := 0; i < 10; i++ {
				p := randomElement(g, r)

				wire := g.Encode(p)
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

				comp := g.Compress(p)
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
				viaMul := g.Mul(p, Scalar{2})
				if !bytes.Equal(g.Compress(doubleViaAdd), g.Compress(viaMul)) {
					t.Fatal("compression not canonical across representatives")
				}

				// backend inference
				ig, err := Infer(wire)
				if err != nil || ig.Name() != g.Name() {
					t.Fatalf("Infer(wire) = %v, %v", ig, err)
				}
				ig, err = Infer(comp)
				if err != nil || ig.Name() != g.Name() {
					t.Fatalf("Infer(comp) = %v, %v", ig, err)
				}
			}

			// identity encodings
			id := g.Identity()
			if !bytes.Equal(g.Encode(id), []byte{0}) || !bytes.Equal(g.Compress(id), []byte{0}) {
				t.Fatal("identity must use the 1-byte sentinel")
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
			wire := g.Encode(p)
			wire[20] ^= 0x40
			if _, err := g.Decode(wire); err == nil {
				t.Fatal("off-curve wire point decoded")
			}
		})
	}
}

func TestGroupMulBatchEquivalence(t *testing.T) {
	for _, g := range testGroups() {
		t.Run(g.Name(), func(t *testing.T) {
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
				if !bytes.Equal(g.Encode(dst[i]), g.Encode(want[i])) {
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
				if !bytes.Equal(g.SharedBytes(ps[i]), g.SharedBytes(want[i])) {
					t.Fatalf("MulDHBatch entry %d: shared bytes differ from MulDH", i)
				}
			}
		})
	}
}

func TestGroupPrecomputeEquivalence(t *testing.T) {
	for _, g := range testGroups() {
		t.Run(g.Name(), func(t *testing.T) {
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
}

func TestGroupDH(t *testing.T) {
	for _, g := range testGroups() {
		t.Run(g.Name(), func(t *testing.T) {
			rng := detRng{rand.New(rand.NewSource(47))}
			// standard ECDH consistency: both sides derive the same bytes
			aPriv, _ := g.RandomScalar(rng)
			bPriv, _ := g.RandomScalar(rng)
			aPub := g.BaseMul(aPriv)
			bPub := g.BaseMul(bPriv)
			// receivers decode the wire form, as the daemons do
			aPubD, err := g.Decode(g.Encode(aPub))
			if err != nil {
				t.Fatal(err)
			}
			bPubD, err := g.Decode(g.Encode(bPub))
			if err != nil {
				t.Fatal(err)
			}
			s1 := g.SharedBytes(g.MulDH(bPubD, g.PrepareDH(aPriv)))
			s2 := g.SharedBytes(g.MulDH(aPubD, g.PrepareDH(bPriv)))
			if len(s1) != 32 || !bytes.Equal(s1, s2) {
				t.Fatal("DH shared secrets disagree")
			}
			// and they agree with the plain scalar product
			prod := ScalarToBig(aPriv)
			prod.Mul(prod, ScalarToBig(bPriv))
			prod.Mod(prod, g.Order())
			s3 := g.SharedBytes(g.BaseMul(ScalarFromBig(prod)))
			if !bytes.Equal(s1, s3) {
				t.Fatal("DH disagrees with direct scalar product")
			}
		})
	}
}

func TestGroupHashToElement(t *testing.T) {
	for _, g := range testGroups() {
		t.Run(g.Name(), func(t *testing.T) {
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
				key := string(g.Compress(p))
				if seen[key] {
					t.Fatal("hash collision across distinct inputs")
				}
				seen[key] = true
			}
		})
	}
}

func TestGroupRandomScalarRange(t *testing.T) {
	for _, g := range testGroups() {
		t.Run(g.Name(), func(t *testing.T) {
			rng := detRng{rand.New(rand.NewSource(48))}
			for i := 0; i < 50; i++ {
				k, err := g.RandomScalar(rng)
				if err != nil {
					t.Fatal(err)
				}
				if len(k) != ScalarSize {
					t.Fatalf("scalar size %d", len(k))
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
				if !bytes.Equal(k1, k2) {
					t.Fatal("seeded scalars diverged")
				}
			}
		})
	}
}

func TestGroupCrossBackendMixingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixing backends must panic")
		}
	}()
	p := Ristretto255.HashToElement([]byte("x"))
	P256.Add(p, P256.Identity())
}

// TestHashDomainSeparation pins that the two backends hash the same input
// to unrelated elements (different hash constructions entirely), so a
// cross-backend deployment cannot silently alias crowds.
func TestHashDomainSeparation(t *testing.T) {
	in := []byte("crowd-42")
	a := sha256.Sum256(P256.Compress(P256.HashToElement(in)))
	b := sha256.Sum256(Ristretto255.Compress(Ristretto255.HashToElement(in)))
	if a == b {
		t.Fatal("backends produced identical hash encodings")
	}
}

// katScalar is the fixed multiplier of the known-answer vectors: 0x0102…20,
// below both group orders.
func katScalar() Scalar {
	k := make(Scalar, ScalarSize)
	for i := range k {
		k[i] = byte(i + 1)
	}
	return k
}

// katStream is the vectors' rng input: 32 bytes of 0xff — a candidate the
// P-256 rejection sampler must discard, not reduce — then 0, 1, 2, …
func katStream() *bytes.Reader {
	s := bytes.Repeat([]byte{0xff}, 32)
	for i := 0; i < 96; i++ {
		s = append(s, byte(i))
	}
	return bytes.NewReader(s)
}

// groupKATs pins the bytes each backend emits for fixed inputs. They were
// generated at the commit before P-256 became the stdlib-backed reference
// and pass unchanged on both sides of it: P-256 stays byte-compatible, and
// the next ristretto255 kernel change is checked against the same constants.
var groupKATs = []struct {
	g Group
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
		g:        P256,
		hashWire: "048802019304027e77213d73767b32589d02f4742418255bc5473fab5514077528ae561623c62885bae56021acdfd66e42af553c6d608115724bdf34358f2de593",
		hashComp: "038802019304027e77213d73767b32589d02f4742418255bc5473fab5514077528",
		mulWire:  "04ac5c7a648e9df419238620b2d9708cfa99ab8a32242564063e9d5b95993748873016073eb67ac4dd171e6a1d184fe0c85fb2f1f17c351c2d8d4fb95c49d50d8a",
		mulComp:  "02ac5c7a648e9df419238620b2d9708cfa99ab8a32242564063e9d5b9599374887",
		baseComp: "02515c3d6eb9e396b904d3feca7f54fdcd0cc1e997bf375dca515ad0a6c3b4035f",
		shared:   "ac5c7a648e9df419238620b2d9708cfa99ab8a32242564063e9d5b9599374887",
		scalar:   "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
		consumed: 64,
	},
	{
		g:        Ristretto255,
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
		g := kat.g
		t.Run(g.Name(), func(t *testing.T) {
			check := func(what string, got []byte, want string) {
				t.Helper()
				if hex.EncodeToString(got) != want {
					t.Errorf("%s = %x, want %s", what, got, want)
				}
			}
			k := katScalar()
			h := g.HashToElement([]byte("prochlo-kat"))
			check("Encode(H)", g.Encode(h), kat.hashWire)
			check("Compress(H)", g.Compress(h), kat.hashComp)

			kh := g.Mul(h, k)
			check("Encode(k*H)", g.Encode(kh), kat.mulWire)
			check("Compress(k*H)", g.Compress(kh), kat.mulComp)
			check("Compress(k*G)", g.Compress(g.BaseMul(k)), kat.baseComp)

			// the batch and fixed-point kernels land on the same bytes
			batch := []Element{h}
			g.MulBatch(batch, batch, k)
			g.Normalize(batch)
			check("Encode(MulBatch)", g.Encode(batch[0]), kat.mulWire)
			check("Compress(Precompute(H).Mul(k))", g.Compress(g.Precompute(h).Mul(k)), kat.mulComp)

			decoded, err := g.Decode(g.Encode(h))
			if err != nil {
				t.Fatal(err)
			}
			check("SharedBytes", g.SharedBytes(g.MulDH(decoded, g.PrepareDH(k))), kat.shared)

			rng := katStream()
			before := rng.Len()
			s, err := g.RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			check("RandomScalar", s, kat.scalar)
			if got := before - rng.Len(); got != kat.consumed {
				t.Errorf("RandomScalar consumed %d rng bytes, want %d", got, kat.consumed)
			}
		})
	}
}
