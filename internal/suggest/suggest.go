// Package suggest implements the §5.4 Suggest experiment: predicting the
// next content viewed from recent history. The paper trains a deep sequence
// model on YouTube logs; the privacy-critical comparison — a model trained
// on anonymous, disjoint 3-tuples retains ~90% of the accuracy of a model
// trained on full longitudinal histories, and predicts the next view better
// than 1 in 8 — depends only on recency dominating prediction, which an
// order-2 n-gram counting model over synthetic Markov view sequences
// reproduces (see DESIGN.md's substitution table).
package suggest

import (
	"maps"
	"math/rand/v2"
	"slices"

	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/workload"
)

// Model is an order-2 n-gram predictor: for each observed (prev2, prev1)
// context it predicts the most frequent successor.
type Model struct {
	counts map[uint64]map[uint32]int
	// Popularity fallback for unseen contexts.
	popularity map[uint32]int
	top        uint32
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{
		counts:     make(map[uint64]map[uint32]int),
		popularity: make(map[uint32]int),
	}
}

func contextKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// observe records one (a, b) -> next transition.
func (m *Model) observe(a, b, next uint32) {
	k := contextKey(a, b)
	succ := m.counts[k]
	if succ == nil {
		succ = make(map[uint32]int)
		m.counts[k] = succ
	}
	succ[next]++
	m.popularity[next]++
	if m.popularity[next] > m.popularity[m.top] {
		m.top = next
	}
}

// TrainFull trains on complete view histories — the no-privacy baseline.
func TrainFull(seqs [][]uint32) *Model {
	m := NewModel()
	for _, s := range seqs {
		for i := 2; i < len(s); i++ {
			m.observe(s[i-2], s[i-1], s[i])
		}
	}
	return m
}

// TrainTuples trains on anonymous m-tuples (m >= 3); each tuple contributes
// its internal transitions only — cross-tuple history is unavailable by
// construction, which is the privacy guarantee.
func TrainTuples(tuples [][]uint32) *Model {
	m := NewModel()
	for _, t := range tuples {
		for i := 2; i < len(t); i++ {
			m.observe(t[i-2], t[i-1], t[i])
		}
	}
	return m
}

// Contexts returns the number of distinct contexts the model has seen.
func (m *Model) Contexts() int { return len(m.counts) }

// Predict returns the model's next-view prediction for a context.
func (m *Model) Predict(a, b uint32) uint32 {
	succ := m.counts[contextKey(a, b)]
	best, bestN := m.top, -1
	for v, n := range succ {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// Evaluate returns top-1 accuracy over all transitions of the test
// sequences.
func Evaluate(m *Model, test [][]uint32) float64 {
	correct, total := 0, 0
	for _, s := range test {
		for i := 2; i < len(s); i++ {
			total++
			if m.Predict(s[i-2], s[i-1]) == s[i] {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Experiment compares full-history training against the PROCHLO pipeline:
// view histories fragmented into disjoint m-tuples by the encoder, with the
// shuffler forwarding only tuples whose exact content forms a large-enough
// crowd (crowd ID = the tuple itself, so only common-enough view patterns of
// very popular videos are ever analyzed).
type Experiment struct {
	Workload  workload.SuggestConfig
	TupleLen  int // m (paper: 3)
	Users     int
	TestUsers int
	Threshold dp.ThresholdNoise // tuple-crowd thresholding
}

// DefaultExperiment is a laptop-scale configuration that reproduces the
// paper's headline ratio (~90% of no-privacy accuracy with 3-tuples).
func DefaultExperiment() Experiment {
	return Experiment{
		Workload:  workload.DefaultSuggest,
		TupleLen:  3,
		Users:     40_000,
		TestUsers: 2_000,
		Threshold: dp.ThresholdNoise{T: 2, D: 1, Sigma: 0.5},
	}
}

// Outcome reports both models' accuracy.
type Outcome struct {
	FullAccuracy  float64
	TupleAccuracy float64
	// TuplesKept / TuplesTotal reflect the shuffler's thresholding
	// selectivity over tuple crowds.
	TuplesKept, TuplesTotal int
}

// Run generates train/test sequences, trains both models, and evaluates.
func (e Experiment) Run(rng *rand.Rand) Outcome {
	train := e.Workload.GenerateSequences(rng, e.Users)
	test := e.Workload.GenerateSequences(rng, e.TestUsers)

	full := TrainFull(train)

	// Encoder: fragment each history into disjoint m-tuples.
	var tuples [][]uint32
	for _, s := range train {
		tuples = append(tuples, encoder.DisjointTuples(s, e.TupleLen)...)
	}
	// Shuffler: anonymous tuples grouped into crowds by exact content and
	// thresholded, so only common view patterns reach the analyzer.
	groups := make(map[string][][]uint32)
	for _, t := range tuples {
		k := make([]byte, 0, 4*len(t))
		for _, v := range t {
			k = append(k, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		groups[string(k)] = append(groups[string(k)], t)
	}
	// Crowds draw threshold noise in key order, so a seeded run gives one
	// result (map order would reshuffle the draws).
	var kept [][]uint32
	for _, k := range slices.Sorted(maps.Keys(groups)) {
		g := groups[k]
		if keep, ok := e.Threshold.Survives(rng, len(g)); ok {
			if keep > len(g) {
				keep = len(g)
			}
			kept = append(kept, g[:keep]...)
		}
	}
	tuple := TrainTuples(kept)

	return Outcome{
		FullAccuracy:  Evaluate(full, test),
		TupleAccuracy: Evaluate(tuple, test),
		TuplesKept:    len(kept),
		TuplesTotal:   len(tuples),
	}
}
