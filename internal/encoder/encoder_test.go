package encoder

import (
	"bytes"
	crand "crypto/rand"
	"math/rand/v2"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/crypto/secretshare"
)

func newKeys(t *testing.T) (shuf, anlz *hybrid.PrivateKey) {
	t.Helper()
	var err error
	if shuf, err = hybrid.GenerateKey(crand.Reader); err != nil {
		t.Fatal(err)
	}
	if anlz, err = hybrid.GenerateKey(crand.Reader); err != nil {
		t.Fatal(err)
	}
	return shuf, anlz
}

func TestEncodeNesting(t *testing.T) {
	shuf, anlz := newKeys(t)
	c := &Client{ShufflerKey: shuf.Public(), AnalyzerKey: anlz.Public(), Rand: crand.Reader}
	report := core.Report{CrowdID: core.HashCrowdID("app:demo"), Data: []byte("api-bits")}
	env, err := c.Encode(report)
	if err != nil {
		t.Fatal(err)
	}
	// The shuffler peels the outer layer and sees crowd ID + inner blob.
	payload, err := shuf.Open(env.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload[:core.CrowdIDSize], report.CrowdID[:]) {
		t.Error("crowd ID not at payload front")
	}
	// The shuffler must not be able to read the data.
	if bytes.Contains(payload, report.Data) {
		t.Error("plaintext data visible to shuffler")
	}
	// The analyzer opens the inner layer.
	data, err := anlz.Open(payload[core.CrowdIDSize:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, report.Data) {
		t.Error("inner payload corrupted")
	}
	// The analyzer cannot open the outer layer.
	if _, err := anlz.Open(env.Blob, nil); err == nil {
		t.Error("analyzer opened shuffler-layer ciphertext")
	}
}

func TestEncodeUniformSize(t *testing.T) {
	shuf, anlz := newKeys(t)
	c := &Client{ShufflerKey: shuf.Public(), AnalyzerKey: anlz.Public(), Rand: crand.Reader}
	var sizes []int
	for i := 0; i < 5; i++ {
		env, err := c.Encode(core.Report{CrowdID: core.HashCrowdID("x"), Data: make([]byte, 64)})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(env.Blob))
	}
	for _, s := range sizes {
		if s != sizes[0] {
			t.Fatalf("envelope sizes vary: %v (oblivious shuffling needs uniform records)", sizes)
		}
	}
	// 64-byte data, two hybrid layers, 8-byte crowd ID.
	want := 64 + hybrid.Overhead + core.CrowdIDSize + hybrid.Overhead
	if sizes[0] != want {
		t.Errorf("envelope size = %d, want %d", sizes[0], want)
	}
}

func TestBlindedEncode(t *testing.T) {
	_, anlz := newKeys(t)
	s2Hybrid, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blind, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	hop1, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c := &BlindedClient{
		Shuffler1Blinding: hop1.H,
		Shuffler2Blinding: blind.H,
		Shuffler2Key:      s2Hybrid.Public(),
		AnalyzerKey:       anlz.Public(),
		Rand:              crand.Reader,
	}
	env, err := c.Encode("zip-94043", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// Once Shuffler 1 blinds C2, Shuffler 2 decrypts the crowd point to α
	// times the hash.
	c1, _ := elgamal.ParsePoint(env.CrowdC1)
	c2, _ := elgamal.ParsePoint(env.CrowdC2)
	m := blind.Decrypt(elgamal.Blind(elgamal.Ciphertext{C1: c1, C2: c2}, hop1.X))
	hash := elgamal.HashToPoint([]byte("zip-94043"))
	if !m.Equal(elgamal.Blind(elgamal.Ciphertext{C2: hash}, hop1.X).C2) {
		t.Error("blinded crowd ciphertext does not decrypt to α times the crowd hash point")
	}
	// A client without hop 1's key still encodes, on G: unblinded, its
	// ciphertext decrypts to the hash itself.
	onG, err := (&BlindedClient{Shuffler2Blinding: blind.H, Shuffler2Key: s2Hybrid.Public(),
		AnalyzerKey: anlz.Public(), Rand: crand.Reader}).Encode("zip-94043", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	c1, _ = elgamal.ParsePoint(onG.CrowdC1)
	c2, _ = elgamal.ParsePoint(onG.CrowdC2)
	if !blind.Decrypt(elgamal.Ciphertext{C1: c1, C2: c2}).Equal(hash) {
		t.Error("a client without hop 1's key does not encrypt on G")
	}
	// Peeling the two data layers recovers the payload.
	inner, err := s2Hybrid.Open(env.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := anlz.Open(inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("payload")) {
		t.Error("payload corrupted")
	}
}

func TestSecretShareData(t *testing.T) {
	data, err := SecretShareData(crand.Reader, 3, []byte("rare value"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := secretshare.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Ciphertext) == 0 {
		t.Error("empty ciphertext")
	}
}

func TestPairs(t *testing.T) {
	p := Pairs(4)
	if len(p) != 6 {
		t.Fatalf("Pairs(4) has %d pairs, want 6", len(p))
	}
	seen := map[[2]int]bool{}
	for _, pr := range p {
		if pr[0] >= pr[1] {
			t.Errorf("pair %v not ordered", pr)
		}
		seen[pr] = true
	}
	if len(seen) != 6 {
		t.Error("duplicate pairs")
	}
	if len(Pairs(0)) != 0 || len(Pairs(1)) != 0 {
		t.Error("degenerate inputs should yield no pairs")
	}
}

func TestSampledPairsCap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	p := SampledPairs(rng, 50, 100)
	if len(p) != 100 {
		t.Fatalf("got %d pairs, want cap 100", len(p))
	}
	seen := map[[2]int]bool{}
	for _, pr := range p {
		if seen[pr] {
			t.Fatal("sampled pair repeated")
		}
		seen[pr] = true
	}
	// Below the cap, all pairs are returned.
	if got := SampledPairs(rng, 4, 100); len(got) != 6 {
		t.Errorf("uncapped: %d pairs, want 6", len(got))
	}
}

func TestDisjointTuples(t *testing.T) {
	seq := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	tuples := DisjointTuples(seq, 3)
	if len(tuples) != 2 {
		t.Fatalf("got %d tuples, want 2 (remainder dropped)", len(tuples))
	}
	if tuples[0][0] != 1 || tuples[1][2] != 6 {
		t.Errorf("tuples = %v", tuples)
	}
	// Tuples must be disjoint: no element shared.
	if len(DisjointTuples(seq, 9)) != 0 {
		t.Error("tuple longer than sequence should yield nothing")
	}
	if DisjointTuples(seq, 0) != nil {
		t.Error("m=0 should yield nil")
	}
}

func TestRandomizedResponseKeepRate(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const n = 100000
	kept := 0
	for i := 0; i < n; i++ {
		if RandomizedResponse(rng, 7, 1000, 0.9) == 7 {
			kept++
		}
	}
	rate := float64(kept) / n
	// keep + keep-by-chance = 0.9 + 0.1/1000.
	if rate < 0.88 || rate > 0.92 {
		t.Errorf("keep rate = %.3f, want ~0.90", rate)
	}
}

func TestFlipBitsRate(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	const n = 200000
	flips := 0
	for i := 0; i < n; i++ {
		out := FlipBits(rng, 0b0101, 4, 0.01)
		for b := 0; b < 4; b++ {
			if (out>>b)&1 != (0b0101>>b)&1 {
				flips++
			}
		}
	}
	rate := float64(flips) / float64(4*n)
	if rate < 0.008 || rate > 0.012 {
		t.Errorf("flip rate = %.4f, want ~0.01", rate)
	}
}
