package shuffler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/encoder"
)

// katSeed is a fixed ChaCha8 stream per tag: every key, every client draw
// and every crowd label of the split-chain known answer comes from one, so
// each byte hop 2 forwards is a function of the code alone.
func katSeed(tag byte) *rand.ChaCha8 {
	var seed [32]byte
	seed[0] = tag
	copy(seed[1:], "prochlo-shuffle-kat")
	return rand.NewChaCha8(seed)
}

// katEpoch is the known answer's hop-1 output: 2 000 seeded blinded reports
// over 60 crowds of skewed size — a report's crowd is ⌊60·u²⌋ for a uniform
// u — so under the paper's threshold some crowds pass whole, some are
// trimmed by the noise and some are suppressed. It also returns hop 2's
// secrets.
func katEpoch(t *testing.T) ([]core.BlindedEnvelope, Secrets) {
	t.Helper()
	s2Priv, err := hybrid.GenerateKey(katSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	anlzPriv, err := hybrid.GenerateKey(katSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	s2Blinding, err := elgamal.GenerateKeyPair(katSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	s1Blinding, err := elgamal.GenerateKeyPair(katSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	pick := rand.New(katSeed(5))
	labels := make([]string, 2000)
	data := make([][]byte, len(labels))
	for i := range labels {
		u := pick.Float64()
		labels[i] = fmt.Sprintf("crowd-%02d", int(math.Floor(60*u*u)))
		data[i] = []byte(fmt.Sprintf("value-%04d", i))
	}
	client := &encoder.BlindedClient{Shuffler1Blinding: s1Blinding.H, Shuffler2Blinding: s2Blinding.H,
		Shuffler2Key: s2Priv.Public(), AnalyzerKey: anlzPriv.Public(), Rand: katSeed(6)}
	envs, err := client.EncodeBatch(labels, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewStage("shuffler1", Secrets{Blinding: s1Blinding}, Params{Seed: 7, MinBatch: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mixed, _, err := RunEpoch(s1, core.Batch{Blinded: envs})
	if err != nil {
		t.Fatal(err)
	}
	return mixed.Blinded, Secrets{Priv: s2Priv, Blinding: s2Blinding}
}

// TestSplitChainKnownAnswer pins what hop 2 forwards from a seeded
// 2 000-report epoch under the paper's threshold (T=20, D=10, σ=2): the
// SHA-256 of the forwarded payloads, each length-prefixed and in output
// order, and the epoch's Stats. The answers were computed when hop 2 still
// peeled every report before it grouped them; peeling only the reports the
// threshold keeps makes the same draws and forwards the same bytes, at every
// worker count.
func TestSplitChainKnownAnswer(t *testing.T) {
	const wantDigest = "f688dc9a083147cb349aad372a2d6aeceded8596183cf594c88b4d184b797dc6"
	wantStats := Stats{Received: 2000, Crowds: 60, CrowdsForwarded: 22, Forwarded: 1027}
	mixed, sec := katEpoch(t)
	for _, workers := range []int{1, 2} {
		s2, err := NewStage("shuffler2", sec, Params{Threshold: Threshold{Noise: dp.PaperThresholdNoise}, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := s2.ProcessEpoch(core.Batch{Blinded: append([]core.BlindedEnvelope(nil), mixed...)})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range out.Payloads {
			h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(p))))
			h.Write(p)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
			t.Errorf("workers=%d: forwarded digest %s, want %s", workers, got, wantDigest)
		}
		if stats != wantStats {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, stats, wantStats)
		}
	}
}

// TestHop1KnownAnswer pins what hop 1 forwards from katEpoch: the SHA-256 of
// every output envelope's CrowdC1, CrowdC2 and Blob, each length-prefixed,
// in output order. The answer was computed when clients encrypted the crowd
// ID on G and hop 1 multiplied both components by α; a client that encrypts
// on A = α·G and a hop 1 that multiplies only C2 must forward the same bytes,
// so hop 2's view is unchanged.
func TestHop1KnownAnswer(t *testing.T) {
	const wantDigest = "2fb5ae6a15c9d22802a85f5f39dbd888cc72d3a2120fb6f755848e3bea26565e"
	mixed, _ := katEpoch(t)
	h := sha256.New()
	for _, e := range mixed {
		for _, f := range [][]byte{e.CrowdC1, e.CrowdC2, e.Blob} {
			h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(f))))
			h.Write(f)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Errorf("hop-1 output digest %s, want %s", got, wantDigest)
	}
}
