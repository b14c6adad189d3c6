// Package perms implements the §5.3 Perms experiment: monitoring user
// responses to Chrome permission prompts. For each of the 3×4
// feature/user-action combinations, the analysis finds the set of Web pages
// exhibiting it at least 100 times; Table 4 compares the pages recovered by
// a naive per-feature threshold against a noisy per-action crowd threshold
// (Gaussian sigma=4), which provides (1.2, 1e-7)-differential privacy.
// Report bitmaps additionally get 1e-4 bit-flip noise for plausible
// deniability of individual user actions.
package perms

import (
	"cmp"
	"math/rand/v2"
	"slices"

	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/workload"
)

// Config parameterizes the experiment; DefaultConfig matches §5.3.
type Config struct {
	Threshold int     // crowd threshold (paper: 100)
	D         float64 // mean dropped reports of the noisy threshold
	Sigma     float64 // Gaussian noise of the noisy threshold (paper: 4)
	FlipProb  float64 // per-bit flip probability (paper: 1e-4)
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{Threshold: 100, D: 10, Sigma: 4, FlipProb: 1e-4}
}

// Privacy returns the (eps at the given delta) guarantee of the noisy
// thresholding; with sigma=4 the paper quotes (1.2, 1e-7)-DP.
func (c Config) Privacy(delta float64) (float64, error) {
	return dp.GaussianEpsilon(delta, c.Sigma, 1)
}

// Result is the Table 4 grid: pages recovered per feature, by naive
// thresholding and by noisy per-action thresholding.
type Result struct {
	Naive    [workload.NumFeatures]int
	ByAction [workload.NumActions][workload.NumFeatures]int
}

// Run collects the events through the Perms encoder (bitmap flip noise),
// aggregates per-⟨page, feature⟩ crowds, and thresholds.
func Run(rng *rand.Rand, cfg Config, events []workload.PermEvent) Result {
	noise := dp.ThresholdNoise{T: cfg.Threshold, D: cfg.D, Sigma: cfg.Sigma}

	// Encoder stage: flip bitmap bits for plausible deniability.
	type key struct {
		page    uint64
		feature uint8
	}
	total := make(map[key]int)                         // events per (page, feature)
	byAction := make(map[key][workload.NumActions]int) // per action counts
	for _, e := range events {
		actions := encoder.FlipBits(rng, e.Actions, workload.NumActions, cfg.FlipProb)
		k := key{page: e.Page, feature: e.Feature}
		total[k]++
		counts := byAction[k]
		for a := 0; a < workload.NumActions; a++ {
			if actions&(1<<a) != 0 {
				counts[a]++
			}
		}
		byAction[k] = counts
	}

	// Crowds draw threshold noise from rng in a fixed order, so a seeded
	// run gives one result (map order would reshuffle the draws).
	keys := make([]key, 0, len(total))
	for k := range total {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.page, b.page); c != 0 {
			return c
		}
		return cmp.Compare(a.feature, b.feature)
	})
	var res Result
	for _, k := range keys {
		n := total[k]
		if n >= cfg.Threshold {
			res.Naive[k.feature]++
		}
		counts := byAction[k]
		for a := 0; a < workload.NumActions; a++ {
			if _, ok := noise.Survives(rng, counts[a]); ok {
				res.ByAction[a][k.feature]++
			}
		}
	}
	return res
}

// PaperTable4 carries the published Table 4 values for EXPERIMENTS.md's
// model-vs-paper comparison. Indexing: [row][feature] with row 0 = naive
// threshold and rows 1..4 the four user actions.
var PaperTable4 = [5][workload.NumFeatures]int{
	{6610, 12200, 620}, // Naive threshold
	{5850, 8870, 440},  // Granted
	{5780, 8930, 430},  // Denied
	{5860, 9465, 440},  // Dismissed
	{5850, 11020, 530}, // Ignored
}
