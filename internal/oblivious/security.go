package oblivious

import "math"

// This file estimates the Stash Shuffle's security parameter ε — the total
// variation distance between the distribution of shuffled outputs and a
// uniform permutation. The exact analysis lives in a separate report
// (Maniatis, Mironov, Talwar: "Oblivious Stash Shuffle", arXiv:1709.07553);
// here we compute a documented analytic bound on the dominant failure modes
// of this implementation:
//
//  1. stash-path failure: some output bucket's overflow (items beyond the
//     per-pair cap C, accumulated across all B input buckets) exceeds its
//     K = S/B drain slots. Bounded by a Chernoff bound on the sum of B
//     independent truncated-binomial overflows, union-bounded over the B
//     output buckets.
//  2. compression-queue failure: the real-item count flowing through the
//     W-bucket window deviates by more than the queue slack. Bounded by a
//     Gaussian tail on the bucket-count random walk.
//
// These bounds characterize *this implementation's* infeasible-permutation
// mass. They are not the paper's ε (whose analysis also accounts for the
// distributional distance of feasible permutations), so `prochlo-paper
// stashbench` prints both values side by side; see EXPERIMENTS.md.

// StashSecurityBound returns log2 of an upper bound on the probability that
// a Stash Shuffle with the given parameters hits an infeasible permutation
// (stash or queue failure), for n items. queueSlack <= 0 selects the
// implementation default of 4·sqrt(n).
func StashSecurityBound(n, b, c, s, w, queueSlack int) float64 {
	if b < 1 || c < 1 {
		return 0
	}
	d := (n + b - 1) / b
	k := s / b
	lambda := float64(d) / float64(b) // per-pair mean load

	// Term 1: P(sum of B iid overflows > K), Chernoff-optimized over t.
	// Overflow per pair is (X - C)+ with X ~ Poisson(lambda).
	logTerm1 := chernoffOverflowTail(lambda, c, b, k)

	// Term 2: queue excursion. The cumulative real-item count over the
	// first j intermediate buckets is a random bridge with per-bucket
	// standard deviation sqrt(D); the maximum excursion must stay within
	// the slack. P(max excursion > slack) <~ 2·exp(-2·slack²/(B·D)) for a
	// bridge of B steps with variance D each.
	slack := float64(queueSlack)
	if queueSlack <= 0 {
		slack = 4*math.Sqrt(float64(n)) + 64
	}
	logTerm2 := math.Log(2) - 2*slack*slack/(float64(b)*float64(d))

	// Union bound, in log space.
	m := math.Max(logTerm1, logTerm2)
	sum := math.Exp(logTerm1-m) + math.Exp(logTerm2-m)
	logEps := (m + math.Log(sum)) / math.Ln2
	if logEps > 0 {
		return 0
	}
	return logEps
}

// chernoffOverflowTail returns ln of an upper bound on
// P(sum_{i=1..b} (X_i - c)+ > k) for X_i ~ Poisson(lambda), union-bounded
// over the b output buckets.
func chernoffOverflowTail(lambda float64, c, b, k int) float64 {
	if k < 1 {
		return 0
	}
	best := 0.0
	for t := 0.05; t <= 24; t += 0.05 {
		// ln MGF of (X - c)+ = ln(1 + sum_{j>c} P(X=j)(e^{t(j-c)} - 1)).
		sum := 0.0
		lp := -lambda + float64(c+1)*math.Log(lambda) - logFactorial(c+1)
		for j := c + 1; j < c+400; j++ {
			p := math.Exp(lp)
			term := p * (math.Exp(t*float64(j-c)) - 1)
			if math.IsInf(term, 1) {
				sum = math.Inf(1)
				break
			}
			sum += term
			// advance Poisson pmf recurrence
			lp += math.Log(lambda) - math.Log(float64(j+1))
			if p < 1e-300 && term < 1e-300 {
				break
			}
		}
		if math.IsInf(sum, 1) {
			continue
		}
		lnBound := -t*float64(k) + float64(b)*math.Log1p(sum)
		if lnBound < best {
			best = lnBound
		}
	}
	// Union over the b output buckets.
	return best + math.Log(float64(b))
}

// logFactorial returns ln(n!) by Stirling's series for large n, exactly for
// small n.
func logFactorial(n int) float64 {
	if n < 2 {
		return 0
	}
	if n < 20 {
		f := 0.0
		for i := 2; i <= n; i++ {
			f += math.Log(float64(i))
		}
		return f
	}
	x := float64(n)
	return x*math.Log(x) - x + 0.5*math.Log(2*math.Pi*x) + 1/(12*x)
}
