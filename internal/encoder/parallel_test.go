package encoder

import (
	"bytes"
	crand "crypto/rand"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
)

// encodeWorkerCounts are the counts the batch-vs-serial equivalence tests
// exercise, mirroring internal/shuffler/parallel_test.go: the serial
// reference, a fixed small pool, and whatever this machine runs.
func encodeWorkerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// TestEncodeBatchParallelEquivalence is the encode tentpole's correctness
// contract: with a seeded Rand, EncodeBatch produces byte-identical
// envelopes at every worker count, and each envelope peels to the right
// crowd ID and data under the stage keys.
func TestEncodeBatchParallelEquivalence(t *testing.T) {
	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	n := 200
	if testing.Short() {
		n = 50
	}
	reports := make([]core.Report, n)
	for i := range reports {
		reports[i] = core.Report{
			CrowdID: core.HashCrowdID(fmt.Sprintf("crowd-%d", i%13)),
			Data:    []byte(fmt.Sprintf("data-%04d-%s", i, string(make([]byte, i%17)))),
		}
	}
	var seed [32]byte
	seed[3] = 0x42
	run := func(workers int) []core.Envelope {
		c := &Client{
			ShufflerKey: shufPriv.Public(),
			AnalyzerKey: anlzPriv.Public(),
			Rand:        rand.NewChaCha8(seed),
		}
		envs, err := c.EncodeBatch(reports, workers)
		if err != nil {
			t.Fatal(err)
		}
		return envs
	}
	ref := run(1)
	for _, workers := range encodeWorkerCounts()[1:] {
		got := run(workers)
		for i := range ref {
			if !bytes.Equal(ref[i].Blob, got[i].Blob) {
				t.Fatalf("workers=%d: envelope %d not byte-identical to serial reference", workers, i)
			}
		}
	}
	// Each envelope must decrypt exactly like a serial Encode envelope.
	for i, env := range ref {
		payload, err := shufPriv.Open(env.Blob, nil)
		if err != nil {
			t.Fatalf("envelope %d outer layer: %v", i, err)
		}
		if !bytes.Equal(payload[:core.CrowdIDSize], reports[i].CrowdID[:]) {
			t.Fatalf("envelope %d carries the wrong crowd ID", i)
		}
		data, err := anlzPriv.Open(payload[core.CrowdIDSize:], nil)
		if err != nil {
			t.Fatalf("envelope %d inner layer: %v", i, err)
		}
		if !bytes.Equal(data, reports[i].Data) {
			t.Fatalf("envelope %d data mismatch", i)
		}
	}
}

// TestEncodeBatchMatchesEncodeSemantics checks that the batch path and the
// single-report reference path are interchangeable: a shuffler+analyzer
// peeling either one recovers the same reports. (Byte identity between the
// two is impossible — they consume randomness differently — so PR-style
// equivalence is at the plaintext level.)
func TestEncodeBatchMatchesEncodeSemantics(t *testing.T) {
	shufPriv, _ := hybrid.GenerateKey(crand.Reader)
	anlzPriv, _ := hybrid.GenerateKey(crand.Reader)
	c := &Client{ShufflerKey: shufPriv.Public(), AnalyzerKey: anlzPriv.Public(), Rand: crand.Reader}
	reports := []core.Report{
		{CrowdID: core.HashCrowdID("a"), Data: []byte("x")},
		{CrowdID: core.HashCrowdID("b"), Data: []byte("")},
		{CrowdID: core.HashCrowdID("a"), Data: []byte("a longer payload....")},
	}
	single := make([]core.Envelope, len(reports))
	for i, r := range reports {
		env, err := c.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		single[i] = env
	}
	batch, err := c.EncodeBatch(reports, 2)
	if err != nil {
		t.Fatal(err)
	}
	open := func(env core.Envelope) (core.CrowdID, []byte) {
		payload, err := shufPriv.Open(env.Blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		var id core.CrowdID
		copy(id[:], payload[:core.CrowdIDSize])
		data, err := anlzPriv.Open(payload[core.CrowdIDSize:], nil)
		if err != nil {
			t.Fatal(err)
		}
		return id, data
	}
	for i := range reports {
		sid, sdata := open(single[i])
		bid, bdata := open(batch[i])
		if sid != bid || !bytes.Equal(sdata, bdata) {
			t.Fatalf("report %d: single and batch paths disagree after peeling", i)
		}
		if len(single[i].Blob) != len(batch[i].Blob) {
			t.Fatalf("report %d: envelope sizes diverge (%d vs %d)", i,
				len(single[i].Blob), len(batch[i].Blob))
		}
	}
}

// TestBlindedEncodeBatchParallelEquivalence is the split-shuffler variant:
// seeded batch output (El Gamal crowd ciphertexts and nested blobs) is
// byte-identical at every worker count, and decrypts correctly.
func TestBlindedEncodeBatchParallelEquivalence(t *testing.T) {
	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	hop1, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2Priv, _ := hybrid.GenerateKey(crand.Reader)
	anlzPriv, _ := hybrid.GenerateKey(crand.Reader)
	n := 60
	if testing.Short() {
		n = 20
	}
	labels := make([]string, n)
	data := make([][]byte, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("crowd-%d", i%5)
		data[i] = []byte(fmt.Sprintf("v-%03d", i))
	}
	var seed [32]byte
	seed[7] = 9
	run := func(workers int) []core.BlindedEnvelope {
		c := &BlindedClient{
			Shuffler1Blinding: hop1.H,
			Shuffler2Blinding: blindKP.H,
			Shuffler2Key:      s2Priv.Public(),
			AnalyzerKey:       anlzPriv.Public(),
			Rand:              rand.NewChaCha8(seed),
		}
		envs, err := c.EncodeBatch(labels, data, workers)
		if err != nil {
			t.Fatal(err)
		}
		return envs
	}
	ref := run(1)
	for _, workers := range encodeWorkerCounts()[1:] {
		got := run(workers)
		for i := range ref {
			if !bytes.Equal(ref[i].CrowdC1, got[i].CrowdC1) ||
				!bytes.Equal(ref[i].CrowdC2, got[i].CrowdC2) ||
				!bytes.Equal(ref[i].Blob, got[i].Blob) {
				t.Fatalf("workers=%d: blinded envelope %d not byte-identical", workers, i)
			}
		}
	}
	for i, env := range ref {
		c1, err1 := elgamal.ParsePoint(env.CrowdC1)
		c2, err2 := elgamal.ParsePoint(env.CrowdC2)
		if err1 != nil || err2 != nil {
			t.Fatalf("envelope %d: bad crowd ciphertext", i)
		}
		m := blindKP.Decrypt(elgamal.Blind(elgamal.Ciphertext{C1: c1, C2: c2}, hop1.X))
		if !m.Equal(elgamal.Blind(elgamal.Ciphertext{C2: elgamal.HashToPoint([]byte(labels[i]))}, hop1.X).C2) {
			t.Fatalf("envelope %d: blinded crowd ciphertext decrypts to the wrong point", i)
		}
		inner, err := s2Priv.Open(env.Blob, nil)
		if err != nil {
			t.Fatalf("envelope %d shuffler-2 layer: %v", i, err)
		}
		got, err := anlzPriv.Open(inner, nil)
		if err != nil {
			t.Fatalf("envelope %d inner layer: %v", i, err)
		}
		if !bytes.Equal(got, data[i]) {
			t.Fatalf("envelope %d data mismatch", i)
		}
	}
}

// TestEncodeBatchEmpty pins the degenerate cases.
func TestEncodeBatchEmpty(t *testing.T) {
	shufPriv, _ := hybrid.GenerateKey(crand.Reader)
	anlzPriv, _ := hybrid.GenerateKey(crand.Reader)
	c := &Client{ShufflerKey: shufPriv.Public(), AnalyzerKey: anlzPriv.Public(), Rand: crand.Reader}
	if envs, err := c.EncodeBatch(nil, 4); err != nil || envs != nil {
		t.Fatalf("empty batch: %v, %v", envs, err)
	}
	bc := &BlindedClient{Rand: crand.Reader}
	if _, err := bc.EncodeBatch([]string{"a"}, nil, 1); err == nil {
		t.Fatal("mismatched labels/data accepted")
	}
}
