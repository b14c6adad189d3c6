package vocab

import (
	"testing"

	"prochlo/internal/workload"
)

func TestFigure5Shape10K(t *testing.T) {
	cfg := DefaultConfig()
	rng := workload.NewRand(42)
	gt := cfg.Run(rng, GroundTruth, 10_000)
	nc := cfg.Run(rng, NoCrowd, 10_000)
	cr := cfg.Run(rng, Crowd, 10_000)
	rp := cfg.Run(rng, RAPPOR, 10_000)
	pt := cfg.Run(rng, Partition, 10_000)

	// Figure 5's ordering: ground truth >> NoCrowd >= Crowd >> Partition >= RAPPOR.
	if !(gt.Unique > nc.Unique && nc.Unique >= cr.Unique) {
		t.Errorf("ordering violated: gt=%d nc=%d crowd=%d", gt.Unique, nc.Unique, cr.Unique)
	}
	if !(cr.Unique > pt.Unique && pt.Unique >= rp.Unique) {
		t.Errorf("local-DP methods should trail: crowd=%d partition=%d rappor=%d",
			cr.Unique, pt.Unique, rp.Unique)
	}
	// Crowd-based methods recover a meaningful fraction at 10K (paper: 32
	// of 4062 ground truth, i.e. word counts >= ~30 survive).
	if cr.Unique < 5 || cr.Unique > gt.Unique/10 {
		t.Errorf("Crowd recovered %d of %d; outside plausible band", cr.Unique, gt.Unique)
	}
	// RAPPOR recovers almost nothing at 10K (paper: 2).
	if rp.Unique > 30 {
		t.Errorf("RAPPOR recovered %d at 10K; noise floor should hide nearly all", rp.Unique)
	}
}

func TestCrowdVariantsEquivalentUtility(t *testing.T) {
	cfg := DefaultConfig()
	// The three crowd variants share utility characteristics; with the
	// same RNG stream they threshold the same histogram.
	a := cfg.Run(workload.NewRand(7), Crowd, 50_000)
	b := cfg.Run(workload.NewRand(7), SecretCrowd, 50_000)
	c := cfg.Run(workload.NewRand(7), BlindedCrowd, 50_000)
	if a.Unique != b.Unique || b.Unique != c.Unique {
		t.Errorf("crowd variants diverge: %d, %d, %d", a.Unique, b.Unique, c.Unique)
	}
}

func TestNoCrowdBeatsCrowdSlightly(t *testing.T) {
	cfg := DefaultConfig()
	nc := cfg.Run(workload.NewRand(9), NoCrowd, 100_000)
	cr := cfg.Run(workload.NewRand(9), Crowd, 100_000)
	if nc.Unique < cr.Unique {
		t.Errorf("NoCrowd (%d) should recover at least as many as Crowd (%d): no noisy loss", nc.Unique, cr.Unique)
	}
	// "the utility loss due to noisy thresholding [is] very small".
	if cr.Unique*3 < nc.Unique*2 {
		t.Errorf("noisy-threshold loss too large: NoCrowd=%d, Crowd=%d", nc.Unique, cr.Unique)
	}
}

func TestPartitionImprovesRappor(t *testing.T) {
	cfg := DefaultConfig()
	rp := cfg.Run(workload.NewRand(11), RAPPOR, 100_000)
	pt := cfg.Run(workload.NewRand(11), Partition, 100_000)
	// §5.2: partitioning improves RAPPOR by 1.13x-3.45x.
	if pt.Unique < rp.Unique {
		t.Errorf("Partition (%d) should not trail plain RAPPOR (%d)", pt.Unique, rp.Unique)
	}
}

func TestPartitionsFor(t *testing.T) {
	cases := map[int]int{10_000: 4, 100_000: 16, 1_000_000: 64, 10_000_000: 256}
	for n, want := range cases {
		if got := PartitionsFor(n); got != want {
			t.Errorf("PartitionsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestTimingScalesLinearly compares wall-clock timings, which other load on
// the machine can only lengthen: each size's timing is the least of three
// runs, so one slow run does not move the ratio.
func TestTimingScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	fastest := func(clients int) TimingResult {
		t.Helper()
		var best TimingResult
		for run := 0; run < 3; run++ {
			r, err := MeasureTiming(clients)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				best = r
				continue
			}
			best.EncoderShuffler1 = min(best.EncoderShuffler1, r.EncoderShuffler1)
			best.BlindedEncoderShuffler1 = min(best.BlindedEncoderShuffler1, r.BlindedEncoderShuffler1)
			best.BlindedShuffler2 = min(best.BlindedShuffler2, r.BlindedShuffler2)
		}
		return best
	}
	small, large := fastest(200), fastest(2000)
	ratio := float64(large.EncoderShuffler1) / float64(small.EncoderShuffler1)
	if ratio < 4 || ratio > 25 {
		t.Errorf("10x clients changed single-shuffler time by %.1fx, want ~10x (linear)", ratio)
	}
	// Blinded path is costlier than the plain path (extra El Gamal work).
	if large.BlindedEncoderShuffler1 <= large.EncoderShuffler1 {
		t.Errorf("blinded path (%v) should cost more than plain (%v)",
			large.BlindedEncoderShuffler1, large.EncoderShuffler1)
	}
}
