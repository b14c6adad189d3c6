package group

import (
	"bytes"
	"crypto/sha256"
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

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"p256": "p256", "P-256": "p256",
		"ristretto255": "ristretto255", "ristretto": "ristretto255",
		"": Default().Name(),
	} {
		g, err := ByName(name)
		if err != nil || g.Name() != want {
			t.Fatalf("ByName(%q) = %v, %v", name, g, err)
		}
	}
	if _, err := ByName("curve9000"); err == nil {
		t.Fatal("unknown group accepted")
	}
	if Default().Name() != "ristretto255" {
		t.Fatal("default group changed unexpectedly")
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
