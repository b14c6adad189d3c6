// Package flix implements the §5.5 Flix experiment: collaborative filtering
// over movie ratings without collecting linkable rating vectors. Each user's
// ratings are fragmented into capped, randomized four-tuples
// (i, r_ui, j, r_uj); the analyzer assembles the co-rating count matrix
// S_ij = |U(i) ∩ U(j)| and the co-rating product matrix
// A_ij = Σ r_ui·r_uj, whose ratio approximates the item-item covariance that
// drives item-based prediction. Table 5 compares RMSE with and without the
// PROCHLO privacy pipeline.
//
// Three privacy measures match §5.5: (1) each user sends a capped random
// subset of pairs; (2) 10% of movie identifiers are replaced at random
// (2.2-DP for the rated-movie set); (3) each tuple carries crowd IDs for
// both its (movie, rating) halves, and tuples survive only if both halves
// form large-enough crowds.
package flix

import (
	"cmp"
	"maps"
	"math"
	"math/rand/v2"
	"slices"

	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/workload"
)

// Tuple is one report: two (movie, rating) observations of one user.
type Tuple struct {
	I, J   int32
	RI, RJ int8
}

// Config parameterizes the pipeline; DefaultConfig matches §5.5.
type Config struct {
	MaxPairs  int     // cap on pairs per user
	KeepProb  float64 // movie-ID randomized response (paper: 0.9)
	Threshold dp.ThresholdNoise
	Neighbors int // k for item-based prediction
}

// DefaultConfig returns the paper's settings with threshold 20 (Table 5
// footnote: 5 for the sparse 200-movie dataset).
func DefaultConfig() Config {
	return Config{
		MaxPairs:  400,
		KeepProb:  0.9,
		Threshold: dp.ThresholdNoise{T: 20, D: 10, Sigma: 2},
		Neighbors: 20,
	}
}

// EncodeUsers runs the Flix encoder: per user, a capped random sample of
// rating pairs with randomized movie identifiers. Users draw from rng in
// ascending ID order, so a seeded run gives one result (map order would
// reshuffle the draws).
func EncodeUsers(rng *rand.Rand, cfg Config, train []workload.Rating, movies int) []Tuple {
	byUser := make(map[int32][]workload.Rating)
	for _, r := range train {
		byUser[r.User] = append(byUser[r.User], r)
	}
	var tuples []Tuple
	for _, u := range slices.Sorted(maps.Keys(byUser)) {
		ratings := byUser[u]
		pairs := encoder.SampledPairs(rng, len(ratings), cfg.MaxPairs)
		for _, p := range pairs {
			a, b := ratings[p[0]], ratings[p[1]]
			i := int32(encoder.RandomizedResponse(rng, uint64(a.Movie), uint64(movies), cfg.KeepProb))
			j := int32(encoder.RandomizedResponse(rng, uint64(b.Movie), uint64(movies), cfg.KeepProb))
			if i > j {
				i, j = j, i
				a, b = b, a
			}
			tuples = append(tuples, Tuple{I: i, J: j, RI: a.Score, RJ: b.Score})
		}
	}
	return tuples
}

// ThresholdTuples applies the two-crowd-ID thresholding: a tuple survives
// only if both its (movie, rating) halves appear in large-enough crowds.
func ThresholdTuples(rng *rand.Rand, cfg Config, tuples []Tuple) []Tuple {
	type half struct {
		m int32
		r int8
	}
	counts := make(map[half]int)
	for _, t := range tuples {
		counts[half{t.I, t.RI}]++
		counts[half{t.J, t.RJ}]++
	}
	// One noisy thresholding decision per crowd, drawn in crowd order so a
	// seeded run gives one result.
	halves := slices.SortedFunc(maps.Keys(counts), func(a, b half) int {
		return cmp.Or(cmp.Compare(a.m, b.m), cmp.Compare(a.r, b.r))
	})
	ok := make(map[half]bool, len(counts))
	for _, h := range halves {
		_, pass := cfg.Threshold.Survives(rng, counts[h])
		ok[h] = pass
	}
	out := tuples[:0:0]
	for _, t := range tuples {
		if ok[half{t.I, t.RI}] && ok[half{t.J, t.RJ}] {
			out = append(out, t)
		}
	}
	return out
}

// Matrices holds the analyzer's sufficient statistics.
type Matrices struct {
	Movies int
	S      []float64 // co-rating counts, upper-triangular i<=j
	A      []float64 // co-rating products
	Sum    []float64 // per-movie rating sums (from tuple halves)
	SumSq  []float64 // per-movie squared-rating sums
	N      []float64 // per-movie observation counts
}

func (m *Matrices) idx(i, j int32) int {
	// Upper-triangular packed index for i <= j.
	n := int64(m.Movies)
	return int(int64(i)*n - int64(i)*(int64(i)+1)/2 + int64(j))
}

// NewMatrices allocates zeroed statistics for a catalog.
func NewMatrices(movies int) *Matrices {
	n := movies * (movies + 1) / 2
	return &Matrices{
		Movies: movies,
		S:      make([]float64, n),
		A:      make([]float64, n),
		Sum:    make([]float64, movies),
		SumSq:  make([]float64, movies),
		N:      make([]float64, movies),
	}
}

// AddTuple accumulates one report.
func (m *Matrices) AddTuple(t Tuple) {
	k := m.idx(t.I, t.J)
	m.S[k]++
	m.A[k] += float64(t.RI) * float64(t.RJ)
	m.Sum[t.I] += float64(t.RI)
	m.SumSq[t.I] += float64(t.RI) * float64(t.RI)
	m.N[t.I]++
	m.Sum[t.J] += float64(t.RJ)
	m.SumSq[t.J] += float64(t.RJ) * float64(t.RJ)
	m.N[t.J]++
}

// FromTuples builds the statistics from a tuple stream.
func FromTuples(movies int, tuples []Tuple) *Matrices {
	m := NewMatrices(movies)
	for _, t := range tuples {
		m.AddTuple(t)
	}
	return m
}

// FromRatings builds exact statistics from raw ratings — the no-privacy
// baseline, with every pair of every user contributing.
func FromRatings(movies int, train []workload.Rating) *Matrices {
	m := NewMatrices(movies)
	byUser := make(map[int32][]workload.Rating)
	for _, r := range train {
		byUser[r.User] = append(byUser[r.User], r)
	}
	for _, ratings := range byUser {
		for x := 0; x < len(ratings); x++ {
			for y := x + 1; y < len(ratings); y++ {
				a, b := ratings[x], ratings[y]
				if a.Movie > b.Movie {
					a, b = b, a
				}
				m.AddTuple(Tuple{I: a.Movie, J: b.Movie, RI: a.Score, RJ: b.Score})
			}
		}
	}
	return m
}

// mean and std of a movie's ratings as observed in the tuples.
func (m *Matrices) movieStats(i int32) (mean, std float64) {
	if m.N[i] == 0 {
		return 0, 0
	}
	mean = m.Sum[i] / m.N[i]
	v := m.SumSq[i]/m.N[i] - mean*mean
	if v < 1e-9 {
		return mean, 0
	}
	return mean, math.Sqrt(v)
}

// Similarity returns the Pearson-style similarity of movies i and j derived
// from the sufficient statistics: (A_ij/S_ij - mu_i*mu_j) / (sigma_i*sigma_j).
func (m *Matrices) Similarity(i, j int32) float64 {
	if i > j {
		i, j = j, i
	}
	k := m.idx(i, j)
	if m.S[k] < 2 {
		return 0
	}
	mi, si := m.movieStats(i)
	mj, sj := m.movieStats(j)
	if si == 0 || sj == 0 {
		return 0
	}
	cov := m.A[k]/m.S[k] - mi*mj
	sim := cov / (si * sj)
	if sim > 1 {
		sim = 1
	}
	if sim < -1 {
		sim = -1
	}
	return sim
}

// Predictor performs item-based rating prediction from the statistics.
type Predictor struct {
	m         *Matrices
	neighbors int
	global    float64
}

// NewPredictor prepares a predictor with the given neighborhood size.
func NewPredictor(m *Matrices, neighbors int) *Predictor {
	var sum, n float64
	for i := range m.Sum {
		sum += m.Sum[i]
		n += m.N[i]
	}
	g := 3.5
	if n > 0 {
		g = sum / n
	}
	return &Predictor{m: m, neighbors: neighbors, global: g}
}

// Predict estimates user u's rating of movie target given u's other known
// ratings.
func (p *Predictor) Predict(target int32, known []workload.Rating) float64 {
	type nb struct {
		sim float64
		dev float64
	}
	var nbs []nb
	tMean, _ := p.m.movieStats(target)
	if p.m.N[target] == 0 {
		tMean = p.global
	}
	for _, r := range known {
		if r.Movie == target {
			continue
		}
		sim := p.m.Similarity(target, r.Movie)
		if sim == 0 {
			continue
		}
		jMean, _ := p.m.movieStats(r.Movie)
		nbs = append(nbs, nb{sim: sim, dev: float64(r.Score) - jMean})
	}
	// Keep the strongest |sim| neighbors.
	if len(nbs) > p.neighbors {
		for i := 0; i < p.neighbors; i++ {
			best := i
			for j := i + 1; j < len(nbs); j++ {
				if math.Abs(nbs[j].sim) > math.Abs(nbs[best].sim) {
					best = j
				}
			}
			nbs[i], nbs[best] = nbs[best], nbs[i]
		}
		nbs = nbs[:p.neighbors]
	}
	num, den := 0.0, 0.0
	for _, n := range nbs {
		num += n.sim * n.dev
		den += math.Abs(n.sim)
	}
	pred := tMean
	if den > 1e-9 {
		pred += num / den
	}
	if pred < 1 {
		pred = 1
	}
	if pred > 5 {
		pred = 5
	}
	return pred
}

// RMSE evaluates a predictor over the held-out test ratings, using each test
// user's training ratings as their known profile.
func RMSE(p *Predictor, train, test []workload.Rating) float64 {
	byUser := make(map[int32][]workload.Rating)
	for _, r := range train {
		byUser[r.User] = append(byUser[r.User], r)
	}
	var se float64
	var n int
	for _, r := range test {
		pred := p.Predict(r.Movie, byUser[r.User])
		d := pred - float64(r.Score)
		se += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(se / float64(n))
}

// Outcome is one Table 5 row.
type Outcome struct {
	Movies, Users, Reports int
	BaselineRMSE           float64 // no privacy
	ProchloRMSE            float64 // through the pipeline
}

// Run executes the full comparison for one dataset configuration.
func Run(rng *rand.Rand, wcfg workload.FlixConfig, cfg Config) Outcome {
	data := wcfg.Generate(rng)
	base := FromRatings(wcfg.Movies, data.Train)
	basePred := NewPredictor(base, cfg.Neighbors)

	tuples := EncodeUsers(rng, cfg, data.Train, wcfg.Movies)
	kept := ThresholdTuples(rng, cfg, tuples)
	priv := FromTuples(wcfg.Movies, kept)
	privPred := NewPredictor(priv, cfg.Neighbors)

	return Outcome{
		Movies:       wcfg.Movies,
		Users:        wcfg.Users,
		Reports:      len(tuples),
		BaselineRMSE: RMSE(basePred, data.Train, data.Test),
		ProchloRMSE:  RMSE(privPred, data.Train, data.Test),
	}
}

// PaperTable5 carries the published RMSE figures.
var PaperTable5 = []struct {
	Movies                 int
	NoPrivacy, ProchloRMSE float64
}{
	{200, 0.9579, 0.9595},
	{2000, 0.9414, 0.9420},
	{18000, 0.9222, 0.9242},
}
