package prochlo_test

import (
	"testing"

	"prochlo"
	"prochlo/internal/shuffler"
	"prochlo/internal/vocab"
	"prochlo/internal/workload"
)

// TestFigure5FastPathMatchesRealPipeline cross-validates the Vocab
// experiment's count-based fast path against the full cryptographic
// pipeline: the same word sample is (a) run through vocab.Run's Secret-Crowd
// simulation and (b) submitted report-by-report through a real pipeline with
// secret-share encoding and noisy crowd thresholding. The number of unique
// words recovered must agree closely (both apply the same threshold logic to
// the same histogram; only the noise draws differ).
func TestFigure5FastPathMatchesRealPipeline(t *testing.T) {
	const sampleSize = 4000
	cfg := vocab.DefaultConfig()

	// (a) Fast path.
	fast := cfg.Run(workload.NewRand(77), vocab.SecretCrowd, sampleSize)

	// (b) Real pipeline: same corpus sample, full crypto.
	sample := cfg.Corpus.SampleWords(workload.NewRand(77), sampleSize)
	p, err := prochlo.New(
		prochlo.WithSeed(78),
		prochlo.WithSecretShare(cfg.SecretT),
		prochlo.WithNoisyThreshold(cfg.Threshold.T, cfg.Threshold.D, cfg.Threshold.Sigma),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sample {
		word := workload.Word(w)
		if err := p.Submit("w:"+word, []byte(word)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	real_ := len(res.Recovered)

	t.Logf("fast path: %d unique; real pipeline: %d unique", fast.Unique, real_)
	lo, hi := fast.Unique-fast.Unique/3-3, fast.Unique+fast.Unique/3+3
	if real_ < lo || real_ > hi {
		t.Errorf("real pipeline recovered %d unique words, fast path %d; outside noise band [%d, %d]",
			real_, fast.Unique, lo, hi)
	}
	// Every word the real pipeline recovered must genuinely be frequent:
	// count in the sample >= T - a generous noise margin.
	counts := workload.CountWords(sample)
	index := make(map[string]uint64)
	for w := range counts {
		index[workload.Word(w)] = w
	}
	for word := range res.Recovered {
		w, ok := index[word]
		if !ok {
			t.Fatalf("pipeline recovered a word not in the sample: %q", word)
		}
		if counts[w] < cfg.Threshold.T {
			t.Errorf("recovered %q with sample count %d < threshold %d", word, counts[w], cfg.Threshold.T)
		}
	}
}

// TestPipelineDeterministicWithSeed: identical submissions with identical
// seeds yield identical analyzer histograms (reproducible experiments).
func TestPipelineDeterministicWithSeed(t *testing.T) {
	run := func() map[string]int {
		p, err := prochlo.New(prochlo.WithSeed(123), prochlo.WithNoisyThreshold(5, 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			if err := p.Submit("c", []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return res.Histogram
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("histograms differ: %v vs %v", a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("histograms differ at %q: %d vs %d", k, v, b[k])
		}
	}
}

// TestMultipleFlushEpochs: the pipeline supports repeated batch epochs, and
// composition accounting applies per epoch: in every mode each Result —
// histogram, the thresholding hop's stats and the analyzer's undecryptable
// count — is its epoch's alone, though the stages' counts run on across
// epochs.
func TestMultipleFlushEpochs(t *testing.T) {
	type report struct{ label, data string }
	for _, tc := range []struct {
		name  string
		mode  prochlo.Mode
		extra []report // per epoch, beside ten ("c", "v")
		want  shuffler.Stats
	}{
		{"plain", prochlo.ModePlain, nil,
			shuffler.Stats{Received: 10, Crowds: 1, CrowdsForwarded: 1, Forwarded: 10}},
		// a crowd of two falls under the threshold
		{"blinded", prochlo.ModeBlinded, []report{{"rare", "r"}, {"rare", "r"}},
			shuffler.Stats{Received: 12, Crowds: 2, CrowdsForwarded: 1, Forwarded: 10}},
		// and in the enclave a report of another size is set aside
		{"sgx", prochlo.ModeSGX, []report{{"rare", "r"}, {"rare", "r"}, {"c", "odd size"}},
			shuffler.Stats{Received: 13, Undecryptable: 1, Crowds: 2, CrowdsForwarded: 1, Forwarded: 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := prochlo.New(prochlo.WithSeed(9), prochlo.WithNaiveThreshold(5), prochlo.WithMode(tc.mode))
			if err != nil {
				t.Fatal(err)
			}
			for epoch := 0; epoch < 3; epoch++ {
				for i := 0; i < 10; i++ {
					if err := p.Submit("c", []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
				for _, r := range tc.extra {
					if err := p.Submit(r.label, []byte(r.data)); err != nil {
						t.Fatal(err)
					}
				}
				res, err := p.Flush()
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Histogram) != 1 || res.Histogram["v"] != 10 {
					t.Fatalf("epoch %d: histogram = %v, want v: 10", epoch, res.Histogram)
				}
				if res.ShufflerStats != tc.want || res.Undecryptable != 0 {
					t.Fatalf("epoch %d: stats %+v, %d undecryptable; want %+v, 0", epoch, res.ShufflerStats, res.Undecryptable, tc.want)
				}
				if p.Pending() != 0 {
					t.Fatal("batch not cleared between epochs")
				}
			}
		})
	}
}
