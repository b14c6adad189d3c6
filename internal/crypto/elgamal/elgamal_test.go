package elgamal

import (
	"bytes"
	"crypto/rand"
	"io"
	"math/big"
	mrand "math/rand/v2"
	"testing"

	"prochlo/internal/crypto/group"
)

// forGroup runs fn as the group's subtest.
func forGroup(t *testing.T, fn func(t *testing.T)) {
	t.Run("ristretto255", fn)
}

func TestHashToPointValid(t *testing.T) {
	forGroup(t, func(t *testing.T) {
		for _, s := range []string{"", "a", "crowd-42", "the quick brown fox"} {
			p := HashToPoint([]byte(s))
			if p.IsInfinity() {
				t.Errorf("HashToPoint(%q) is infinity", s)
			}
			// the encoding must decode, which validates the curve equation
			q, err := ParsePoint(p.Bytes())
			if err != nil || !q.Equal(p) {
				t.Errorf("HashToPoint(%q) round trip: %v", s, err)
			}
		}
	})
}

func TestHashToPointDeterministicAndDistinct(t *testing.T) {
	a := HashToPoint([]byte("crowd-a"))
	a2 := HashToPoint([]byte("crowd-a"))
	b := HashToPoint([]byte("crowd-b"))
	if !a.Equal(a2) {
		t.Error("HashToPoint not deterministic")
	}
	if a.Equal(b) {
		t.Error("distinct inputs mapped to the same point")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	forGroup(t, func(t *testing.T) {
		kp, err := GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		m := HashToPoint([]byte("message"))
		ct, err := Encrypt(rand.Reader, kp.H, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := kp.Decrypt(ct); !got.Equal(m) {
			t.Fatal("decrypt did not recover message point")
		}
	})
}

// TestNewKeyPairRoundTrip: a key pair rebuilt from its persisted scalar
// must decrypt ciphertexts encrypted to the original public key.
func TestNewKeyPairRoundTrip(t *testing.T) {
	forGroup(t, func(t *testing.T) {
		kp, err := GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		reloaded, err := NewKeyPair(kp.X)
		if err != nil {
			t.Fatal(err)
		}
		if !reloaded.H.Equal(kp.H) {
			t.Fatal("rebuilt public point differs")
		}
		m := HashToPoint([]byte("persisted"))
		ct, err := Encrypt(rand.Reader, kp.H, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := reloaded.Decrypt(ct); !got.Equal(m) {
			t.Fatal("rebuilt key pair did not decrypt")
		}
		if _, err := NewKeyPair(nil); err == nil {
			t.Fatal("nil scalar accepted")
		}
		if _, err := NewKeyPair(group.Default().Order()); err == nil {
			t.Fatal("scalar == order accepted")
		}
	})
}

func TestRandomizedCiphertexts(t *testing.T) {
	kp, _ := GenerateKeyPair(rand.Reader)
	m := HashToPoint([]byte("m"))
	a, _ := Encrypt(rand.Reader, kp.H, m)
	b, _ := Encrypt(rand.Reader, kp.H, m)
	if a.C1.Equal(b.C1) {
		t.Error("two encryptions shared randomness")
	}
}

// chainKeys draws Shuffler 2's key pair and Shuffler 1's blinding pair, and
// returns a client encrypter on the chain's base A = αG.
func chainKeys(t *testing.T) (kp, s1 *KeyPair, e *Encrypter) {
	t.Helper()
	kp, err := GenerateKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s1, err = GenerateKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return kp, s1, NewEncrypterOn(s1.H, kp.H)
}

// chainCiphertext encrypts a crowd ID on e's base.
func chainCiphertext(t *testing.T, e *Encrypter, id string) Ciphertext {
	t.Helper()
	ct, err := e.EncryptCrowdID(rand.Reader, []byte(id))
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestBlindingPreservesEquality is the core §4.3 property: after blinding
// with α and decrypting, equal crowd IDs yield equal pseudonyms and distinct
// crowd IDs yield distinct pseudonyms.
func TestBlindingPreservesEquality(t *testing.T) {
	forGroup(t, func(t *testing.T) {
		kp, s1, e := chainKeys(t)
		p1 := kp.BlindedPseudonym(Blind(chainCiphertext(t, e, "zip-94043"), s1.X))
		p2 := kp.BlindedPseudonym(Blind(chainCiphertext(t, e, "zip-94043"), s1.X))
		p3 := kp.BlindedPseudonym(Blind(chainCiphertext(t, e, "zip-10001"), s1.X))

		if p1 != p2 {
			t.Error("same crowd ID produced different pseudonyms")
		}
		if p1 == p3 {
			t.Error("different crowd IDs collided")
		}
	})
}

// TestBlindingHidesCrowdID checks that the pseudonym is not the bare hash
// point (which would be dictionary-attackable by Shuffler 2).
func TestBlindingHidesCrowdID(t *testing.T) {
	kp, s1, e := chainKeys(t)
	pseudo := kp.BlindedPseudonym(Blind(chainCiphertext(t, e, "secret-crowd"), s1.X))
	if pseudo == string(HashToPoint([]byte("secret-crowd")).Compressed()) {
		t.Error("blinded pseudonym equals unblinded hash point")
	}
}

// TestUnblindedDecryptRecoversHash: without blinding, Shuffler 2 sees the
// bare hash point (the dictionary-attack risk that motivates blinding).
func TestUnblindedDecryptRecoversHash(t *testing.T) {
	kp, _ := GenerateKeyPair(rand.Reader)
	ct, _ := EncryptCrowdID(rand.Reader, kp.H, []byte("crowd"))
	if got := kp.Decrypt(ct); !got.Equal(HashToPoint([]byte("crowd"))) {
		t.Error("unblinded decryption should recover the hash point")
	}
}

// TestDifferentAlphaDifferentPseudonym: two hop-1 tiers with different α
// give the same crowd different pseudonyms.
func TestDifferentAlphaDifferentPseudonym(t *testing.T) {
	kp, s1, e1 := chainKeys(t)
	s1b, err := GenerateKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEncrypterOn(s1b.H, kp.H)
	if kp.BlindedPseudonym(Blind(chainCiphertext(t, e1, "crowd"), s1.X)) ==
		kp.BlindedPseudonym(Blind(chainCiphertext(t, e2, "crowd"), s1b.X)) {
		t.Error("different blinding factors produced the same pseudonym")
	}
}

func TestPointBytesRoundTrip(t *testing.T) {
	forGroup(t, func(t *testing.T) {
		p := HashToPoint([]byte("round trip"))
		q, err := ParsePoint(p.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(q) {
			t.Error("wire round trip failed")
		}
		q, err = ParsePoint(p.Compressed())
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(q) {
			t.Error("compressed round trip failed")
		}
		inf := Point{}
		q, err = ParsePoint(inf.Bytes())
		if err != nil || !q.IsInfinity() {
			t.Error("infinity round trip failed")
		}
	})
}

func TestParsePointRejectsGarbage(t *testing.T) {
	for _, junk := range [][]byte{
		bytes.Repeat([]byte{0xff}, 33),
		bytes.Repeat([]byte{0xff}, 65),
		bytes.Repeat([]byte{0xff}, 17),
		{},
	} {
		if _, err := ParsePoint(junk); err == nil {
			t.Errorf("garbage point of length %d accepted", len(junk))
		}
	}
}

// TestRandomScalarRejectionSampling: a candidate that reduces to zero must
// be discarded and the next attempt's bytes used, an exhausted rng must
// surface an error, and every scalar lands in [1, n-1].
func TestRandomScalarRejectionSampling(t *testing.T) {
	want := big.NewInt(0x1234)
	var second [32]byte
	want.FillBytes(second[:])

	// Each attempt reads 64 bytes and reduces them: 64 zero bytes are
	// rejected, and a small candidate comes back verbatim.
	stream := append(make([]byte, 64), make([]byte, 32)...)
	stream = append(stream, second[:]...)
	k, err := RandomScalar(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if k.Cmp(want) != 0 {
		t.Fatalf("zero candidate not rejected: got %v want %v", k, want)
	}

	// an exhausted rng must surface an error, not spin or return junk
	if _, err := RandomScalar(bytes.NewReader(bytes.Repeat([]byte{0xff}, 40))); err == nil {
		t.Fatal("truncated rng accepted")
	}

	forGroup(t, func(t *testing.T) {
		for i := 0; i < 30; i++ {
			k, err := RandomScalar(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if k.Sign() <= 0 || k.Cmp(group.Default().Order()) >= 0 {
				t.Fatalf("scalar %v out of range", k)
			}
		}
	})
}

func TestBlinderMatchesBlind(t *testing.T) {
	forGroup(t, func(t *testing.T) {
		_, s1, e := chainKeys(t)
		b := NewBlinder(s1.X)
		for i := 0; i < 8; i++ {
			ct := chainCiphertext(t, e, string(rune(i)))
			want := Blind(ct, s1.X)
			got := []Ciphertext{ct}
			b.BlindBatch(got)
			if !got[0].C1.Equal(want.C1) || !got[0].C2.Equal(want.C2) {
				t.Fatalf("Blinder.BlindBatch diverges from Blind at input %d", i)
			}
			if !want.C1.Equal(ct.C1) {
				t.Fatalf("Blind changed C1 at input %d", i)
			}
		}
	})
}

func TestDecrypterMatchesKeyPair(t *testing.T) {
	forGroup(t, func(t *testing.T) {
		kp, err := GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		d := kp.Decrypter()
		alpha, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			ct, err := EncryptCrowdID(rand.Reader, kp.H, []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			blinded := Blind(ct, alpha)
			if got, want := d.BlindedPseudonym(blinded), kp.BlindedPseudonym(blinded); got != want {
				t.Fatalf("Decrypter pseudonym diverges from KeyPair at input %d", i)
			}
			if !d.Decrypt(ct).Equal(kp.Decrypt(ct)) {
				t.Fatalf("Decrypter.Decrypt diverges from KeyPair.Decrypt at input %d", i)
			}
		}
	})
}

// TestEncrypterMatchesEncryptCrowdID pins the cached encoder fast path to
// the reference EncryptCrowdID: same rng stream, same ciphertext — on both
// a cold and a warm hash-point cache. On the chain's base A = αG it must
// produce what the reference on G produces with C1 multiplied by α.
func TestEncrypterMatchesEncryptCrowdID(t *testing.T) {
	forGroup(t, func(t *testing.T) {
		kp, s1, chain := chainKeys(t)
		e := NewEncrypter(kp.H)
		alpha := group.ScalarFromBig(s1.X)
		for round := 0; round < 2; round++ { // round 1 hits the cache
			for i := 0; i < 4; i++ {
				var seed [32]byte
				seed[0], seed[1] = byte(round), byte(i)
				id := []byte{0xc0, byte(i)}
				want, err := EncryptCrowdID(mrand.NewChaCha8(seed), kp.H, id)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.EncryptCrowdID(mrand.NewChaCha8(seed), id)
				if err != nil {
					t.Fatal(err)
				}
				if !got.C1.Equal(want.C1) || !got.C2.Equal(want.C2) {
					t.Fatalf("round %d input %d: Encrypter diverges from EncryptCrowdID", round, i)
				}
				got, err = chain.EncryptCrowdID(mrand.NewChaCha8(seed), id)
				if err != nil {
					t.Fatal(err)
				}
				if !got.C1.Equal(Point{e: g.Mul(want.C1.e, alpha)}) || !got.C2.Equal(want.C2) {
					t.Fatalf("round %d input %d: Encrypter on A diverges from α times EncryptCrowdID's C1", round, i)
				}
			}
		}
	})
}

// TestEncryptCrowdIDBatchMatchesSolo: the batch kernel path must be
// byte-identical to per-report EncryptCrowdID calls on the same per-report
// rng streams, with C1 on G and on Shuffler 1's blinding key A.
func TestEncryptCrowdIDBatchMatchesSolo(t *testing.T) {
	forGroup(t, func(t *testing.T) {
		kp, s1, _ := chainKeys(t)
		for _, base := range []struct {
			name string
			a    Point
		}{{"G", Point{}}, {"A", s1.H}} {
			t.Run(base.name, func(t *testing.T) {
				n := 17
				rngs := make([]io.Reader, n)
				ids := make([][]byte, n)
				for i := range rngs {
					var seed [32]byte
					seed[0] = byte(i)
					rngs[i] = mrand.NewChaCha8(seed)
					ids[i] = []byte{byte(i % 5)} // repeated labels exercise the cache
				}
				e := NewEncrypterOn(base.a, kp.H)
				got, err := e.EncryptCrowdIDBatch(rngs, ids, 4)
				if err != nil {
					t.Fatal(err)
				}
				soloEnc := NewEncrypterOn(base.a, kp.H)
				for i := 0; i < n; i++ {
					var seed [32]byte
					seed[0] = byte(i)
					want, err := soloEnc.EncryptCrowdID(mrand.NewChaCha8(seed), ids[i])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got[i].C1.Bytes(), want.C1.Bytes()) ||
						!bytes.Equal(got[i].C2.Bytes(), want.C2.Bytes()) {
						t.Fatalf("batch entry %d diverges from solo encrypt", i)
					}
				}
				if _, err := e.EncryptCrowdIDBatch(rngs[:2], ids[:3], 1); err == nil {
					t.Fatal("length mismatch accepted")
				}
			})
		}
	})
}

// TestProvenKey: a key served with its proof parses back to itself, the
// same bytes every call; a changed byte anywhere, a proof moved onto another
// key, and Shuffler 2's Y or 2Y served with the blinding key's proof — what
// a hop 1 that wanted to unmask C2 would serve — are refused.
func TestProvenKey(t *testing.T) {
	kp, s1, _ := chainKeys(t)
	pk := s1.ProvenKey()
	if !bytes.Equal(pk, s1.ProvenKey()) {
		t.Fatal("ProvenKey differs between calls")
	}
	a, err := ParseProvenKey(pk)
	if err != nil || !a.Equal(s1.H) {
		t.Fatalf("ParseProvenKey = %v, %v; want the key back", a, err)
	}
	for i := range pk {
		bad := bytes.Clone(pk)
		bad[i] ^= 1
		if _, err := ParseProvenKey(bad); err == nil {
			t.Fatalf("a flip of byte %d verified", i)
		}
	}
	y2 := Point{e: g.Add(kp.H.e, kp.H.e)}
	for name, h := range map[string]Point{"Y": kp.H, "2Y": y2} {
		if _, err := ParseProvenKey(append(h.Compressed(), pk[32:]...)); err == nil {
			t.Fatalf("%s with the blinding key's proof verified", name)
		}
	}
	for _, b := range [][]byte{nil, s1.H.Bytes(), s1.H.Compressed(), append(bytes.Clone(pk), 0)} {
		if _, err := ParseProvenKey(b); err == nil {
			t.Fatalf("%d bytes verified as a proven key", len(b))
		}
	}
}

// fuzzCiphertexts derives n deterministic ciphertexts from a fuzz seed.
func fuzzCiphertexts(kp *KeyPair, seed [32]byte, n int) ([]Ciphertext, error) {
	e := NewEncrypter(kp.H)
	rng := mrand.NewChaCha8(seed)
	cts := make([]Ciphertext, n)
	for i := range cts {
		ct, err := e.EncryptCrowdID(rng, []byte{byte(i % 3), seed[0]})
		if err != nil {
			return nil, err
		}
		cts[i] = ct
	}
	return cts, nil
}

var fuzzKey = func() *KeyPair {
	kp, err := GenerateKeyPair(rand.Reader)
	if err != nil {
		panic(err)
	}
	return kp
}()

// FuzzBlindBatchEquivalence checks BlindBatch against the solo Blind path
// on arbitrary seeds and sizes: C2 blinded, C1 as it was.
func FuzzBlindBatchEquivalence(f *testing.F) {
	f.Add([]byte("seed"), uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0xff, 0x01}, uint8(9))
	f.Fuzz(func(t *testing.T, seedData []byte, n uint8) {
		kp := fuzzKey
		var seed [32]byte
		copy(seed[:], seedData)
		cts, err := fuzzCiphertexts(kp, seed, int(n%16))
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := RandomScalar(mrand.NewChaCha8(seed))
		if err != nil {
			t.Fatal(err)
		}
		b := NewBlinder(alpha)
		batch := append([]Ciphertext(nil), cts...)
		b.BlindBatch(batch)
		for i, ct := range cts {
			want := Blind(ct, alpha)
			if !batch[i].C1.Equal(ct.C1) || !batch[i].C2.Equal(want.C2) {
				t.Fatalf("BlindBatch entry %d diverges from Blind", i)
			}
			if !bytes.Equal(batch[i].C2.Bytes(), want.C2.Bytes()) {
				t.Fatalf("BlindBatch entry %d encoding diverges", i)
			}
		}
	})
}

// FuzzDecryptBatchEquivalence checks the batch decryption, Pseudonyms and
// PseudonymBatch, against the solo Decrypt path on arbitrary seeds and
// sizes.
func FuzzDecryptBatchEquivalence(f *testing.F) {
	f.Add([]byte("seed"), uint8(4))
	f.Add([]byte{0x7}, uint8(1))
	f.Add([]byte{0xaa, 0xbb, 0xcc}, uint8(12))
	f.Fuzz(func(t *testing.T, seedData []byte, n uint8) {
		kp := fuzzKey
		var seed [32]byte
		copy(seed[:], seedData)
		cts, err := fuzzCiphertexts(kp, seed, int(n%16))
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := RandomScalar(mrand.NewChaCha8(seed))
		if err != nil {
			t.Fatal(err)
		}
		NewBlinder(alpha).BlindBatch(cts)
		d := kp.Decrypter()
		pseudos := d.PseudonymBatch(cts)
		c1s, c2s := make([][]byte, len(cts)), make([][]byte, len(cts))
		for i := range cts {
			c1s[i], c2s[i] = cts[i].C1.Bytes(), cts[i].C2.Bytes()
		}
		dst, lens := make([]byte, 32*len(cts)), make([]uint8, len(cts))
		d.Pseudonyms(dst, lens, c1s, c2s)
		for i, ct := range cts {
			want := d.Decrypt(ct).Compressed()
			if !bytes.Equal(dst[32*i:32*i+int(lens[i])], want) {
				t.Fatalf("Pseudonyms entry %d diverges from Decrypt", i)
			}
			if pseudos[i] != d.BlindedPseudonym(ct) {
				t.Fatalf("PseudonymBatch entry %d diverges from BlindedPseudonym", i)
			}
		}
	})
}

// fuzzScalar reduces fuzzer bytes to a nonzero scalar.
func fuzzScalar(b []byte) *big.Int {
	k := new(big.Int).Mod(new(big.Int).SetBytes(b), g.Order())
	if k.Sign() == 0 {
		k.SetInt64(1)
	}
	return k
}

// scalarStream is an rng whose first RandomScalar draw is k: one attempt
// reads 64 bytes and reduces them, big-endian.
func scalarStream(k *big.Int) io.Reader {
	var b [64]byte
	k.FillBytes(b[32:])
	return bytes.NewReader(b[:])
}

// FuzzHop1Equivalence checks the algebra that lets Shuffler 1 blind C2
// alone: for fuzzed α, x, r and label, a client on G whose hop 1 blinds both
// components, (α·r·G, α·(r·Y + H)), and a client on A = αG whose hop 1
// blinds C2 alone, (r·A, α·(r·Y + H)), hand hop 2 the same bytes, and the
// second decrypts under x to α·H(label).
func FuzzHop1Equivalence(f *testing.F) {
	f.Add([]byte("alpha"), []byte("x"), []byte("r"), []byte("crowd-1"))
	f.Add([]byte{1}, []byte{2}, []byte{3}, []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0xee}, 40), []byte{0}, []byte("zip-94043"))
	f.Fuzz(func(t *testing.T, alphaBytes, xBytes, rBytes, label []byte) {
		s1, err := NewKeyPair(fuzzScalar(alphaBytes))
		if err != nil {
			t.Fatal(err)
		}
		kp, err := NewKeyPair(fuzzScalar(xBytes))
		if err != nil {
			t.Fatal(err)
		}
		r := fuzzScalar(rBytes)
		alpha := group.ScalarFromBig(s1.X)

		onG, err := EncryptCrowdID(scalarStream(r), kp.H, label)
		if err != nil {
			t.Fatal(err)
		}
		before := Ciphertext{C1: Point{e: g.Mul(onG.C1.e, alpha)}, C2: Point{e: g.Mul(onG.C2.e, alpha)}}

		e := NewEncrypterOn(s1.H, kp.H)
		after, err := e.EncryptCrowdIDBatch([]io.Reader{scalarStream(r)}, [][]byte{label}, 1)
		if err != nil {
			t.Fatal(err)
		}
		NewBlinder(s1.X).BlindBatch(after)
		if !bytes.Equal(after[0].C1.Bytes(), before.C1.Bytes()) {
			t.Fatal("r·A differs from α·r·G")
		}
		if !bytes.Equal(after[0].C2.Bytes(), before.C2.Bytes()) {
			t.Fatal("blinded C2 differs from α·(r·Y + H)")
		}
		want := Point{e: g.Mul(HashToPoint(label).e, alpha)}
		if got := kp.Decrypter().PseudonymBatch(after)[0]; got != string(want.Compressed()) {
			t.Fatal("hop 2 does not recover α·H(label)")
		}
	})
}
