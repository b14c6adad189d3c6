package flix

import (
	"math"
	"testing"

	"prochlo/internal/workload"
)

func TestMatricesIndexing(t *testing.T) {
	m := NewMatrices(5)
	seen := map[int]bool{}
	for i := int32(0); i < 5; i++ {
		for j := i; j < 5; j++ {
			k := m.idx(i, j)
			if k < 0 || k >= len(m.S) {
				t.Fatalf("idx(%d,%d) = %d out of range", i, j, k)
			}
			if seen[k] {
				t.Fatalf("idx(%d,%d) collides", i, j)
			}
			seen[k] = true
		}
	}
	if len(seen) != len(m.S) {
		t.Errorf("index map covers %d of %d cells", len(seen), len(m.S))
	}
}

func TestAddTupleAccumulates(t *testing.T) {
	m := NewMatrices(4)
	m.AddTuple(Tuple{I: 1, J: 2, RI: 4, RJ: 5})
	m.AddTuple(Tuple{I: 1, J: 2, RI: 2, RJ: 3})
	k := m.idx(1, 2)
	if m.S[k] != 2 {
		t.Errorf("S = %v, want 2", m.S[k])
	}
	if m.A[k] != 4*5+2*3 {
		t.Errorf("A = %v, want 26", m.A[k])
	}
	if m.N[1] != 2 || m.Sum[1] != 6 {
		t.Errorf("movie 1 stats: N=%v Sum=%v", m.N[1], m.Sum[1])
	}
}

func TestSimilaritySelf(t *testing.T) {
	m := NewMatrices(3)
	// Movie 0 and 1 perfectly correlated: high together, low together.
	for i := 0; i < 30; i++ {
		m.AddTuple(Tuple{I: 0, J: 1, RI: 5, RJ: 5})
		m.AddTuple(Tuple{I: 0, J: 1, RI: 1, RJ: 1})
		// Movie 2 anti-correlated with movie 0.
		m.AddTuple(Tuple{I: 0, J: 2, RI: 5, RJ: 1})
		m.AddTuple(Tuple{I: 0, J: 2, RI: 1, RJ: 5})
	}
	if sim := m.Similarity(0, 1); sim < 0.9 {
		t.Errorf("correlated similarity = %v, want ~1", sim)
	}
	if sim := m.Similarity(0, 2); sim > -0.9 {
		t.Errorf("anti-correlated similarity = %v, want ~-1", sim)
	}
	if sim := m.Similarity(1, 2); math.Abs(sim) > 1 {
		t.Errorf("similarity out of [-1,1]: %v", sim)
	}
}

func TestEncodeUsersCapsAndRandomizes(t *testing.T) {
	rng := workload.NewRand(41)
	// One user with 40 ratings: C(40,2) = 780 pairs, capped at 400.
	var train []workload.Rating
	for i := 0; i < 40; i++ {
		train = append(train, workload.Rating{User: 1, Movie: int32(i), Score: 3})
	}
	cfg := DefaultConfig()
	tuples := EncodeUsers(rng, cfg, train, 1000)
	if len(tuples) != cfg.MaxPairs {
		t.Errorf("tuples = %d, want cap %d", len(tuples), cfg.MaxPairs)
	}
	// ~10% of movie IDs are randomized: some tuples reference movies the
	// user never rated.
	foreign := 0
	for _, tp := range tuples {
		if tp.I >= 40 || tp.J >= 40 {
			foreign++
		}
	}
	rate := float64(foreign) / float64(len(tuples))
	// Each tuple has 2 IDs, each replaced w.p. 0.1 (and a replacement is
	// foreign w.p. 0.96): expect ~18%.
	if rate < 0.08 || rate > 0.32 {
		t.Errorf("foreign-movie tuple rate = %.3f, want ~0.18", rate)
	}
	if tuplesOrdered := func() bool {
		for _, tp := range tuples {
			if tp.I > tp.J {
				return false
			}
		}
		return true
	}(); !tuplesOrdered {
		t.Error("tuples not canonically ordered i <= j")
	}
}

func TestThresholdTuplesDropsRareHalves(t *testing.T) {
	rng := workload.NewRand(43)
	cfg := DefaultConfig()
	var tuples []Tuple
	// (1,5) and (2,4) halves appear 200 times; (7,1) appears twice.
	for i := 0; i < 200; i++ {
		tuples = append(tuples, Tuple{I: 1, J: 2, RI: 5, RJ: 4})
	}
	tuples = append(tuples, Tuple{I: 2, J: 7, RI: 4, RJ: 1}, Tuple{I: 2, J: 7, RI: 4, RJ: 1})
	kept := ThresholdTuples(rng, cfg, tuples)
	for _, tp := range kept {
		if tp.J == 7 {
			t.Fatal("tuple with a rare (movie,rating) half survived thresholding")
		}
	}
	if len(kept) != 200 {
		t.Errorf("kept %d, want 200", len(kept))
	}
}

// TestTable5SmallScale is the headline comparison at the 200-movie scale:
// PROCHLO RMSE is close to the no-privacy RMSE, and both clearly beat the
// global-mean baseline.
func TestTable5SmallScale(t *testing.T) {
	rng := workload.NewRand(45)
	wcfg := workload.DefaultFlix
	cfg := DefaultConfig()
	cfg.Threshold.T = 5 // Table 5 footnote: threshold 5 for the sparse set
	cfg.Threshold.D = 2
	cfg.Threshold.Sigma = 1
	out := Run(rng, wcfg, cfg)
	t.Logf("baseline=%.4f prochlo=%.4f reports=%d", out.BaselineRMSE, out.ProchloRMSE, out.Reports)

	// Global-mean baseline RMSE on this generator is ~1.1; both predictors
	// must beat it.
	if out.BaselineRMSE > 1.05 {
		t.Errorf("no-privacy RMSE %.4f worse than trivial baseline", out.BaselineRMSE)
	}
	if out.ProchloRMSE > 1.1 {
		t.Errorf("PROCHLO RMSE %.4f worse than trivial baseline", out.ProchloRMSE)
	}
	// The privacy cost is small (Table 5: 0.9579 vs 0.9595, a ~0.2% gap);
	// allow up to 5% here.
	if out.ProchloRMSE > out.BaselineRMSE*1.05 {
		t.Errorf("privacy gap too large: %.4f vs %.4f", out.ProchloRMSE, out.BaselineRMSE)
	}
}

// TestSeededRunReproduces: two runs at one seed give one outcome. The
// encoder draws per user and the shuffler per crowd from the run's rng, so
// both must visit users and crowds in a fixed order, not a map's.
func TestSeededRunReproduces(t *testing.T) {
	wcfg := workload.DefaultFlix
	wcfg.Users /= 10
	cfg := DefaultConfig()
	first, second := Run(workload.NewRand(47), wcfg, cfg), Run(workload.NewRand(47), wcfg, cfg)
	if first != second {
		t.Errorf("seed 47 ran twice: %+v, then %+v", first, second)
	}
}

func TestPredictorClamps(t *testing.T) {
	m := NewMatrices(2)
	p := NewPredictor(m, 5)
	got := p.Predict(0, nil)
	if got < 1 || got > 5 {
		t.Errorf("prediction %v outside rating range", got)
	}
}
