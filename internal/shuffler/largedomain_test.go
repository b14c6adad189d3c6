package shuffler

import (
	"bytes"
	crand "crypto/rand"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/sgx"
)

// TestProcessLargeDomain exercises the §4.1.5 sort-based thresholding path:
// crowds are counted with O(1) private state after an oblivious sort, rare
// crowds are dropped, and the output is re-shuffled.
func TestProcessLargeDomain(t *testing.T) {
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	sh, _, err := NewSGXShuffler(ca, Params{Threshold: Threshold{Noise: dp.ThresholdNoise{T: 10, D: 4, Sigma: 1}}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	anlz, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client := &encoder.Client{ShufflerKey: sh.PublicKey(), AnalyzerKey: anlz.Public(), Rand: crand.Reader}
	pad := func(s string) []byte {
		b := make([]byte, 32)
		copy(b, s)
		return b
	}
	var batch []core.Envelope
	add := func(crowd, data string, n int) {
		for i := 0; i < n; i++ {
			env, err := client.Encode(core.Report{CrowdID: core.HashCrowdID(crowd), Data: pad(data)})
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, env)
		}
	}
	add("crowd-a", "value-a", 60)
	add("crowd-b", "value-b", 40)
	add("crowd-c", "value-c", 2)

	inner, stats, err := sh.ProcessLargeDomain(batch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crowds != 3 || stats.CrowdsForwarded != 2 {
		t.Errorf("stats = %+v, want 3 crowds, 2 forwarded", stats)
	}
	counts := map[string]int{}
	for _, ct := range inner {
		pt, err := anlz.Open(ct, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[string(bytes.TrimRight(pt, "\x00"))]++
	}
	if counts["value-c"] != 0 {
		t.Error("rare crowd leaked through large-domain thresholding")
	}
	if counts["value-a"] < 40 || counts["value-b"] < 25 {
		t.Errorf("survivor counts %v below expectation", counts)
	}
	// The output must not be grouped by crowd: count adjacent same-value
	// pairs; perfect grouping would give ~len-2 adjacencies.
	values := make([]string, 0, len(inner))
	for _, ct := range inner {
		pt, _ := anlz.Open(ct, nil)
		values = append(values, string(pt))
	}
	adjacent := 0
	for i := 1; i < len(values); i++ {
		if values[i] == values[i-1] {
			adjacent++
		}
	}
	// For a ~60/40 split, random order gives ~52% adjacency; grouped order
	// gives ~99%. Flag anything suspiciously grouped.
	if float64(adjacent) > 0.8*float64(len(values)) {
		t.Errorf("%d of %d adjacent pairs share a value; output looks crowd-grouped", adjacent, len(values))
	}
}

func TestProcessLargeDomainEmpty(t *testing.T) {
	ca, _ := sgx.NewCA()
	sh, _, err := NewSGXShuffler(ca, Params{Threshold: Threshold{}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sh.ProcessLargeDomain(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

// TestProcessLargeDomainAllBelowThreshold: nothing survives, no error.
func TestProcessLargeDomainAllBelowThreshold(t *testing.T) {
	ca, _ := sgx.NewCA()
	sh, _, err := NewSGXShuffler(ca, Params{Threshold: Threshold{Naive: 100}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	anlz, _ := hybrid.GenerateKey(crand.Reader)
	client := &encoder.Client{ShufflerKey: sh.PublicKey(), AnalyzerKey: anlz.Public(), Rand: crand.Reader}
	var batch []core.Envelope
	for i := 0; i < 20; i++ {
		env, err := client.Encode(core.Report{CrowdID: core.HashCrowdID("tiny"), Data: make([]byte, 16)})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, env)
	}
	out, stats, err := sh.ProcessLargeDomain(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || stats.Forwarded != 0 {
		t.Errorf("out=%d stats=%+v, want nothing forwarded", len(out), stats)
	}
}
