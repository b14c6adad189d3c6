package prochlo

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/shuffler"
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
	// The refused batch stays pending, as a daemon's below-floor epoch does,
	// and counts once the floor is reached.
	if n := p.Pending(); n != 1 {
		t.Fatalf("Pending() = %d after the refused Flush, want 1", n)
	}
	for i := 0; i < 49; i++ {
		if err := p.Submit("c", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.ShufflerStats.Received != 50 {
		t.Errorf("Flush received %d reports, want all 50", res.ShufflerStats.Received)
	}
}

// admitCounter wraps a pipeline's first stage and records what it admits:
// the size of each Admit call, and how often each report (by its blob) was
// in one.
type admitCounter struct {
	shuffler.Stage
	calls []int
	seen  map[string]int
}

func (c *admitCounter) Admit(in core.Batch) core.Batch {
	c.calls = append(c.calls, in.Len())
	for _, e := range in.Blinded {
		c.seen[string(e.Blob)]++
	}
	return c.Stage.Admit(in)
}

// TestPipelineAdmitsOnArrival pins when a pipeline's first stage admits:
// each SubmitBatch admits its batch before it returns, together with the
// reports Submit left waiting (a lone one-report batch waits with them);
// Flush admits what still waits; a below-floor Flush admits nothing and
// leaves Pending as it was; and every report is admitted exactly once. The flushed result is the one a twin pipeline fed
// the same reports one Submit at a time (all admitted at Flush) produces.
func TestPipelineAdmitsOnArrival(t *testing.T) {
	build := func() *Pipeline {
		p, err := New(WithSeed(50), WithMode(ModeBlinded), WithNaiveThreshold(5), WithMinBatch(30))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	batch := func(from, n int) ([]string, [][]byte) {
		labels, data := make([]string, n), make([][]byte, n)
		for i := range labels {
			labels[i] = fmt.Sprintf("crowd:%d", (from+i)%3)
			data[i] = []byte(fmt.Sprintf("v%d", (from+i)%3))
		}
		return labels, data
	}
	p := build()
	counter := &admitCounter{Stage: p.stages[0], seen: make(map[string]int)}
	p.stages[0] = counter
	submitted := 0
	step := func(what string, wantCalls ...int) {
		t.Helper()
		if !slices.Equal(counter.calls, wantCalls) {
			t.Fatalf("after %s: admitted %v, want %v", what, counter.calls, wantCalls)
		}
		if p.Pending() != submitted {
			t.Fatalf("after %s: Pending() = %d, want %d", what, p.Pending(), submitted)
		}
	}
	submitOne := func(n int) {
		labels, data := batch(submitted, n)
		for i := range labels {
			if err := p.Submit(labels[i], data[i]); err != nil {
				t.Fatal(err)
			}
			submitted++
		}
	}
	submitBatch := func(n int) {
		labels, data := batch(submitted, n)
		if err := p.SubmitBatch(labels, data); err != nil {
			t.Fatal(err)
		}
		submitted += n
	}
	flushRefused := func() {
		t.Helper()
		if _, err := p.Flush(); !errors.Is(err, shuffler.ErrBatchTooSmall) {
			t.Fatalf("Flush of %d reports under a floor of 30: %v", submitted, err)
		}
	}

	submitBatch(20)
	step("a SubmitBatch of 20", 20)
	flushRefused()
	step("a below-floor Flush", 20)
	submitOne(3)
	step("3 Submits", 20)
	flushRefused()
	step("a below-floor Flush with reports waiting", 20)
	submitBatch(10)
	step("a SubmitBatch of 10 behind 3 waiting", 20, 13)
	submitBatch(1)
	step("a SubmitBatch of 1", 20, 13)
	submitOne(2)
	step("2 Submits", 20, 13)
	got, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	submitted = 0
	step("Flush", 20, 13, 3)
	if len(counter.seen) != 36 {
		t.Fatalf("%d distinct reports admitted, want 36", len(counter.seen))
	}
	for _, n := range counter.seen {
		if n != 1 {
			t.Fatalf("a report was admitted %d times", n)
		}
	}

	twin := build()
	labels, data := batch(0, 36)
	for i := range labels {
		if err := twin.Submit(labels[i], data[i]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := twin.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if got.ShufflerStats != want.ShufflerStats || !maps.Equal(got.Histogram, want.Histogram) {
		t.Errorf("admitted on arrival: %+v %v; all at Flush: %+v %v",
			got.ShufflerStats, got.Histogram, want.ShufflerStats, want.Histogram)
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
