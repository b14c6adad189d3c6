package suggest

import (
	"testing"

	"prochlo/internal/workload"
)

func TestModelLearnsTransitions(t *testing.T) {
	m := NewModel()
	for i := 0; i < 10; i++ {
		m.observe(1, 2, 3)
	}
	m.observe(1, 2, 9)
	if got := m.Predict(1, 2); got != 3 {
		t.Errorf("Predict(1,2) = %d, want 3", got)
	}
}

func TestPredictFallsBackToPopularity(t *testing.T) {
	m := NewModel()
	for i := 0; i < 5; i++ {
		m.observe(1, 2, 7)
	}
	// Unseen context: fall back to the most popular item.
	if got := m.Predict(100, 200); got != 7 {
		t.Errorf("fallback Predict = %d, want 7", got)
	}
}

func TestEvaluateBounds(t *testing.T) {
	m := NewModel()
	m.observe(1, 2, 3)
	acc := Evaluate(m, [][]uint32{{1, 2, 3}})
	if acc != 1.0 {
		t.Errorf("accuracy = %v, want 1.0", acc)
	}
	if got := Evaluate(m, nil); got != 0 {
		t.Errorf("empty test accuracy = %v, want 0", got)
	}
}

// TestSection54Claims is the experiment's headline: the 3-tuple model
// predicts better than 1-in-8 and retains ~90% of the full model's accuracy.
func TestSection54Claims(t *testing.T) {
	e := DefaultExperiment()
	out := e.Run(workload.NewRand(31))
	t.Logf("full=%.4f tuple=%.4f kept=%d/%d",
		out.FullAccuracy, out.TupleAccuracy, out.TuplesKept, out.TuplesTotal)
	if out.TupleAccuracy <= 1.0/8 {
		t.Errorf("tuple-model accuracy %.4f not above 1/8 (paper claim)", out.TupleAccuracy)
	}
	ratio := out.TupleAccuracy / out.FullAccuracy
	if ratio < 0.8 {
		t.Errorf("tuple model retains %.0f%% of full accuracy, want ~90%%", 100*ratio)
	}
	if ratio > 1.02 {
		t.Errorf("tuple model should not beat full history (%.3f)", ratio)
	}
	if out.TuplesKept == 0 || out.TuplesKept > out.TuplesTotal {
		t.Errorf("thresholding bookkeeping wrong: %d/%d", out.TuplesKept, out.TuplesTotal)
	}
}

// TestFragmentLengthAblation: longer fragments carry more internal
// transitions per tuple but are more unique, so crowd thresholding drops
// more of them — the privacy/utility tension §5.4 describes ("for
// small-enough m ... any single m-tuple can be identifying or damaging, but
// not both"). With thresholding active, m=3 should not trail m=10.
func TestFragmentLengthAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	e := DefaultExperiment()
	e.Users = 8000
	e.TestUsers = 800
	accs := map[int]float64{}
	for _, m := range []int{3, 5, 10} {
		e.TupleLen = m
		out := e.Run(workload.NewRand(33))
		accs[m] = out.TupleAccuracy
	}
	if accs[3] < accs[10]-0.02 {
		t.Errorf("3-tuples should not trail 10-tuples under thresholding: %v", accs)
	}
}

// TestSeededRunReproduces: two runs at one seed give one outcome. Every
// crowd draws its threshold noise from the run's rng, so the draws must
// follow the crowds in a fixed order, not a map's.
func TestSeededRunReproduces(t *testing.T) {
	e := DefaultExperiment()
	e.Users = 3000
	e.TestUsers = 300
	first, second := e.Run(workload.NewRand(37)), e.Run(workload.NewRand(37))
	if first != second {
		t.Errorf("seed 37 ran twice: %+v, then %+v", first, second)
	}
}

func TestThresholdingDropsRareTuples(t *testing.T) {
	e := DefaultExperiment()
	e.Users = 3000
	e.TestUsers = 300
	out := e.Run(workload.NewRand(35))
	if out.TuplesKept >= out.TuplesTotal {
		t.Errorf("thresholding kept everything (%d of %d); rare tuples should be dropped",
			out.TuplesKept, out.TuplesTotal)
	}
}

func TestContexts(t *testing.T) {
	m := NewModel()
	m.observe(1, 2, 3)
	m.observe(1, 2, 4)
	m.observe(2, 3, 4)
	if m.Contexts() != 2 {
		t.Errorf("Contexts = %d, want 2", m.Contexts())
	}
}
