package prochlo

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"prochlo/internal/crypto/group"
)

// TestPlainPipelineEndToEnd: reports in big crowds reach the analyzer's
// histogram; small crowds do not.
func TestPlainPipelineEndToEnd(t *testing.T) {
	p, err := New(WithSeed(1), WithNoisyThreshold(20, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := p.Submit("crowd:common", []byte("common")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := p.Submit("crowd:rare", []byte("rare")); err != nil {
			t.Fatal(err)
		}
	}
	if p.Pending() != 105 {
		t.Errorf("Pending = %d, want 105", p.Pending())
	}
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram["rare"] != 0 {
		t.Error("rare crowd leaked through thresholding")
	}
	if c := res.Histogram["common"]; c < 70 || c > 100 {
		t.Errorf("common count = %d, want ~90 (noisy threshold drops ~10)", c)
	}
	if res.ShufflerStats.Crowds != 2 || res.ShufflerStats.CrowdsForwarded != 1 {
		t.Errorf("stats = %+v", res.ShufflerStats)
	}
	if p.Pending() != 0 {
		t.Error("Flush did not clear the batch")
	}
}

func TestPrivacyGuaranteeMatchesPaper(t *testing.T) {
	p, err := New(WithSeed(2), WithNoisyThreshold(20, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	eps, err := p.PrivacyGuarantee(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eps-2.25) > 0.05 {
		t.Errorf("eps at delta=1e-6 = %.3f, want ~2.25 (paper §5)", eps)
	}
	// Naive thresholding carries no DP guarantee.
	p2, _ := New(WithSeed(3), WithNaiveThreshold(20))
	if _, err := p2.PrivacyGuarantee(1e-6); err == nil {
		t.Error("naive thresholding claimed a DP guarantee")
	}
}

func TestSGXPipelineEndToEnd(t *testing.T) {
	p, err := New(WithSeed(4), WithMode(ModeSGX), WithNoisyThreshold(20, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Quote().ReportData) == 0 {
		t.Error("no attestation quote")
	}
	pad := func(s string) []byte {
		b := make([]byte, 32)
		copy(b, s)
		return b
	}
	for i := 0; i < 120; i++ {
		if err := p.Submit("app:popular", pad("popular")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := p.Submit("app:rare", pad("rare")); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram[string(pad("rare"))] != 0 {
		t.Error("rare crowd leaked")
	}
	if c := res.Histogram[string(pad("popular"))]; c < 90 {
		t.Errorf("popular count = %d, want ~110", c)
	}
}

func TestBlindedPipelineEndToEnd(t *testing.T) {
	p, err := New(WithSeed(5), WithMode(ModeBlinded), WithNoisyThreshold(20, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		if err := p.Submit("zip:94043", []byte("bay-area")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := p.Submit("zip:99999", []byte("outlier")); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram["outlier"] != 0 {
		t.Error("outlier crowd leaked through blinded thresholding")
	}
	if c := res.Histogram["bay-area"]; c < 60 {
		t.Errorf("bay-area count = %d, want ~80", c)
	}
}

// TestSecretSharePipeline: the Vocab Secret-Crowd configuration. Values
// with fewer than t reports must stay unrecoverable even when their crowd
// survives thresholding.
func TestSecretSharePipeline(t *testing.T) {
	p, err := New(WithSeed(6), WithSecretShare(20), WithNaiveThreshold(20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := p.Submit("w:frequent", []byte("frequent-word")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := p.Submit("w:rare", []byte("rare-word")); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered["frequent-word"] != 60 {
		t.Errorf("frequent-word count = %d, want 60", res.Recovered["frequent-word"])
	}
	if _, leaked := res.Recovered["rare-word"]; leaked {
		t.Error("value with 8 < t=20 shares was recovered")
	}
}

func TestNoCrowdConfiguration(t *testing.T) {
	p, err := New(WithSeed(7), WithoutThreshold())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.Submit("same-crowd", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Histogram) != 5 {
		t.Errorf("histogram has %d entries, want all 5 (no thresholding)", len(res.Histogram))
	}
}

func TestInvalidOptions(t *testing.T) {
	if _, err := New(WithSecretShare(0)); err == nil {
		t.Error("secret-share t=0 accepted")
	}
	if _, err := New(WithMode(Mode(99))); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestFlushSmallBatchFails(t *testing.T) {
	p, err := New(WithSeed(8), WithMinBatch(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit("c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Flush(); err == nil {
		t.Error("batch below MinBatch flushed")
	}
}

// TestWithWorkersAllModes exercises the pipeline-wide concurrency knob on
// every shuffler deployment: explicit worker pools must flush successfully
// and preserve the thresholding semantics of the serial path.
func TestWithWorkersAllModes(t *testing.T) {
	for _, mode := range []Mode{ModePlain, ModeSGX, ModeBlinded} {
		p, err := New(WithSeed(6), WithMode(mode), WithWorkers(4), WithNoisyThreshold(20, 10, 2))
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		pad := func(s string) []byte { // ModeSGX requires uniform report sizes
			b := make([]byte, 32)
			copy(b, s)
			return b
		}
		for i := 0; i < 80; i++ {
			if err := p.Submit("crowd:big", pad("common")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if err := p.Submit("crowd:small", pad("rare")); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.Flush()
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if res.ShufflerStats.Crowds != 2 || res.ShufflerStats.CrowdsForwarded != 1 {
			t.Errorf("mode %d: stats = %+v", mode, res.ShufflerStats)
		}
		if res.Histogram[string(pad("rare"))] != 0 {
			t.Errorf("mode %d: rare crowd leaked", mode)
		}
	}
}

// TestSubmitBatchMatchesSubmit is the end-to-end batch contract: for every
// mode, a seeded pipeline fed via SubmitBatch produces exactly the result a
// twin pipeline fed the same reports one Submit at a time produces — at
// worker counts {1, 2, GOMAXPROCS}. (The ciphertext bytes differ, since the
// batch path draws randomness through per-report seeds, but thresholding,
// shuffling, and analysis are driven by the seeded pipeline RNG, so the
// analyzer-side result is identical.)
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	pad := func(s string) []byte {
		b := make([]byte, 32)
		copy(b, s)
		return b
	}
	var labels []string
	var data [][]byte
	for i := 0; i < 70; i++ {
		labels = append(labels, "crowd:common")
		data = append(data, pad("common"))
	}
	for i := 0; i < 26; i++ {
		labels = append(labels, fmt.Sprintf("crowd:mid-%d", i%2))
		data = append(data, pad(fmt.Sprintf("mid-%d", i%2)))
	}
	labels = append(labels, "crowd:lonely")
	data = append(data, pad("lonely"))

	for _, mode := range []Mode{ModePlain, ModeSGX, ModeBlinded} {
		build := func(workers int) *Pipeline {
			p, err := New(WithSeed(77), WithMode(mode), WithWorkers(workers),
				WithNoisyThreshold(20, 10, 2))
			if err != nil {
				t.Fatalf("mode %d: %v", mode, err)
			}
			return p
		}
		serial := build(1)
		for i := range labels {
			if err := serial.Submit(labels[i], data[i]); err != nil {
				t.Fatal(err)
			}
		}
		want, err := serial.Flush()
		if err != nil {
			t.Fatalf("mode %d serial: %v", mode, err)
		}
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			p := build(workers)
			if err := p.SubmitBatch(labels, data); err != nil {
				t.Fatalf("mode %d workers %d: %v", mode, workers, err)
			}
			if p.Pending() != len(labels) {
				t.Fatalf("mode %d: pending = %d, want %d", mode, p.Pending(), len(labels))
			}
			got, err := p.Flush()
			if err != nil {
				t.Fatalf("mode %d workers %d: %v", mode, workers, err)
			}
			if got.ShufflerStats != want.ShufflerStats {
				t.Errorf("mode %d workers %d: stats = %+v, want %+v",
					mode, workers, got.ShufflerStats, want.ShufflerStats)
			}
			if got.Undecryptable != want.Undecryptable {
				t.Errorf("mode %d workers %d: undecryptable = %d, want %d",
					mode, workers, got.Undecryptable, want.Undecryptable)
			}
			if len(got.Histogram) != len(want.Histogram) {
				t.Fatalf("mode %d workers %d: histogram = %v, want %v",
					mode, workers, got.Histogram, want.Histogram)
			}
			for k, v := range want.Histogram {
				if got.Histogram[k] != v {
					t.Fatalf("mode %d workers %d: histogram[%q] = %d, want %d",
						mode, workers, k, got.Histogram[k], v)
				}
			}
		}
	}
}

// TestSubmitBatchSecretShare covers the batch path's secret-share encoding:
// values reported by >= t clients are recovered, the rest stay sealed.
func TestSubmitBatchSecretShare(t *testing.T) {
	p, err := New(WithSeed(31), WithSecretShare(10), WithNaiveThreshold(2))
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	var data [][]byte
	add := func(v string, n int) {
		for i := 0; i < n; i++ {
			labels = append(labels, "w:"+v)
			data = append(data, []byte(v))
		}
	}
	add("popular", 25)
	add("niche", 4)
	if err := p.SubmitBatch(labels, data); err != nil {
		t.Fatal(err)
	}
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered["popular"] != 25 {
		t.Errorf("recovered[popular] = %d, want 25", res.Recovered["popular"])
	}
	if _, ok := res.Recovered["niche"]; ok {
		t.Error("value below the share threshold was recovered")
	}
}

// TestSubmitBatchValidation pins the error cases.
func TestSubmitBatchValidation(t *testing.T) {
	p, err := New(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitBatch([]string{"a"}, nil); err == nil {
		t.Error("mismatched labels/data accepted")
	}
	if err := p.SubmitBatch(nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if p.Pending() != 0 {
		t.Errorf("pending = %d after empty batch", p.Pending())
	}
}

// withGroup builds the pipeline's keys and stages on g. It exists only here:
// the deployed group is not an option, and this is how the cross-group test
// puts the P-256 reference backend under a whole pipeline.
func withGroup(g group.Group) Option {
	return func(p *Pipeline) error {
		p.group = g
		return nil
	}
}

// TestCrossGroupHistogramEquivalence: the group is an implementation detail
// of the envelope and blinding cryptography — under the same seed and
// workload, a pipeline on the stdlib-backed P-256 reference and one on the
// deployed ristretto255 must produce identical histograms in the plain and
// blinded modes.
func TestCrossGroupHistogramEquivalence(t *testing.T) {
	run := func(t *testing.T, opts ...Option) map[string]int {
		t.Helper()
		p, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 70; i++ {
			if err := p.Submit(fmt.Sprintf("crowd:%d", i%3), []byte(fmt.Sprintf("value-%d", i%3))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			if err := p.Submit("crowd:rare", []byte("rare-value")); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return res.Histogram
	}
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"plain", []Option{WithSeed(11), WithNoisyThreshold(20, 10, 2)}},
		{"blinded", []Option{WithSeed(11), WithMode(ModeBlinded), WithNoisyThreshold(20, 10, 2)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			p256 := run(t, append([]Option{withGroup(group.P256)}, mode.opts...)...)
			ristretto := run(t, mode.opts...)
			if len(p256) != len(ristretto) {
				t.Fatalf("histogram sizes differ: p256 %v, ristretto255 %v", p256, ristretto)
			}
			for k, v := range p256 {
				if ristretto[k] != v {
					t.Errorf("histogram[%q] = %d on p256, %d on ristretto255", k, v, ristretto[k])
				}
			}
			if p256["rare-value"] != 0 {
				t.Error("rare crowd leaked through thresholding")
			}
		})
	}
}
