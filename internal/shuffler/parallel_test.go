package shuffler

import (
	"bytes"
	crand "crypto/rand"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/sgx"
)

// sortedCopies returns the multiset view of a forwarded-ciphertext batch.
func sortedCopies(in [][]byte) []string {
	out := make([]string, len(in))
	for i, b := range in {
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

func equalByteSeqs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestProcessParallelEquivalence is the tentpole's correctness contract: on
// a seeded batch, the worker-pool Process (Workers=4) must produce Stats and
// a forwarded-ciphertext sequence byte-identical to the serial reference
// path (Workers=1) — and hence, a fortiori, an identical multiset. Run with
// -race this is also the concurrency exercise of the decryption pool and the
// sharded grouping.
func TestProcessParallelEquivalence(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 2_000
	}
	f := newFixture(t)
	batch := make([]core.Envelope, 0, n+1)
	for i := 0; i < n; i++ {
		env, err := f.client.Encode(core.Report{
			CrowdID: core.HashCrowdID(fmt.Sprintf("crowd-%d", i%37)),
			Data:    []byte(fmt.Sprintf("item-%05d.....................", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, env)
	}
	// One undecryptable envelope keeps the failure path positional too.
	batch = append(batch, core.Envelope{Blob: bytes.Repeat([]byte{0x5a}, 200)})

	run := func(workers int) ([][]byte, Stats) {
		s := &Shuffler{
			Priv:      f.shufPriv,
			Threshold: Threshold{Noise: dp.PaperThresholdNoise},
			Rand:      rand.New(rand.NewPCG(7, 9)),
			Workers:   workers,
		}
		out, stats, err := s.Process(batch)
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}
	serialOut, serialStats := run(1)
	parOut, parStats := run(4)

	if serialStats != parStats {
		t.Errorf("stats diverge: serial %+v, parallel %+v", serialStats, parStats)
	}
	if serialStats.Undecryptable != 1 {
		t.Errorf("Undecryptable = %d, want 1", serialStats.Undecryptable)
	}
	if !equalByteSeqs(serialOut, parOut) {
		t.Fatal("parallel Process output is not byte-identical to the serial reference")
	}
	sa, sb := sortedCopies(serialOut), sortedCopies(parOut)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("forwarded-ciphertext multisets diverge")
		}
	}
}

// TestSplitShufflerParallelEquivalence checks the §4.3 pair: Shuffler 1's
// blinding workers and Shuffler 2's pseudonym/decryption workers must match
// their serial reference paths byte for byte under fixed seeds.
func TestSplitShufflerParallelEquivalence(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 80
	}
	anlz, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2Priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s1KP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client := &encoder.BlindedClient{
		Shuffler1Blinding: s1KP.H,
		Shuffler2Blinding: blindKP.H,
		Shuffler2Key:      s2Priv.Public(),
		AnalyzerKey:       anlz.Public(),
		Rand:              crand.Reader,
	}
	batch := make([]core.BlindedEnvelope, n)
	for i := range batch {
		env, err := client.Encode(fmt.Sprintf("crowd-%d", i%7), []byte(fmt.Sprintf("v-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = env
	}
	alpha := s1KP.X

	runS1 := func(workers int) []core.BlindedEnvelope {
		s1 := &Shuffler1{Alpha: alpha, Rand: rand.New(rand.NewPCG(3, 5)), Workers: workers}
		out, _, err := RunEpoch(s1, core.Batch{Blinded: batch})
		if err != nil {
			t.Fatal(err)
		}
		return out.Blinded
	}
	blindedSerial := runS1(1)
	blindedPar := runS1(4)
	if len(blindedSerial) != len(blindedPar) {
		t.Fatalf("shuffler 1 lengths diverge: %d vs %d", len(blindedSerial), len(blindedPar))
	}
	for i := range blindedSerial {
		a, b := blindedSerial[i], blindedPar[i]
		if !bytes.Equal(a.CrowdC1, b.CrowdC1) || !bytes.Equal(a.CrowdC2, b.CrowdC2) || !bytes.Equal(a.Blob, b.Blob) {
			t.Fatalf("shuffler 1 output %d diverges between serial and parallel", i)
		}
	}

	runS2 := func(workers int) ([][]byte, Stats) {
		s2 := &Shuffler2{
			Blinding:  blindKP,
			Priv:      s2Priv,
			Threshold: Threshold{Naive: 5},
			Rand:      rand.New(rand.NewPCG(11, 13)),
			Workers:   workers,
		}
		out, stats, err := s2.Process(blindedSerial)
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}
	serialOut, serialStats := runS2(1)
	parOut, parStats := runS2(4)
	if serialStats != parStats {
		t.Errorf("shuffler 2 stats diverge: serial %+v, parallel %+v", serialStats, parStats)
	}
	if !equalByteSeqs(serialOut, parOut) {
		t.Fatal("parallel Shuffler2 output is not byte-identical to the serial reference")
	}
}

// TestSGXShufflerParallelEquivalence checks the hardened path: with a fixed
// Stash Shuffle seed and thresholding RNG, the enclave shuffler's output is
// identical whether the distribution phase runs serially or on 4 workers.
func TestSGXShufflerParallelEquivalence(t *testing.T) {
	n := 1_000
	if testing.Short() {
		n = 300
	}
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	sh, _, err := NewSGXShuffler(ca, Params{Threshold: Threshold{Noise: dp.PaperThresholdNoise}, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	anlz, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client := &encoder.Client{ShufflerKey: sh.PublicKey(), AnalyzerKey: anlz.Public(), Rand: crand.Reader}
	batch := make([]core.Envelope, n)
	for i := range batch {
		data := make([]byte, 48)
		copy(data, fmt.Sprintf("value-%d", i%11))
		env, err := client.Encode(core.Report{
			CrowdID: core.HashCrowdID(fmt.Sprintf("app-%d", i%11)), Data: data,
		})
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = env
	}
	run := func(workers int) ([][]byte, Stats) {
		sh.Rand = rand.New(rand.NewPCG(17, 19))
		sh.Workers = workers
		out, stats, err := sh.Process(batch)
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}
	serialOut, serialStats := run(1)
	parOut, parStats := run(4)
	if serialStats != parStats {
		t.Errorf("stats diverge: serial %+v, parallel %+v", serialStats, parStats)
	}
	if !equalByteSeqs(serialOut, parOut) {
		t.Fatal("parallel SGX shuffler output is not byte-identical to the serial reference")
	}
}
