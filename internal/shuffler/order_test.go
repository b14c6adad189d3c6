package shuffler

import (
	crand "crypto/rand"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/sgx"
)

// Permutation-quality gate. The exactly-once ledger cannot see a stage that
// forwards in arrival order, or one that applies the same permutation to
// every epoch; these bounds can.
const (
	orderEpochs = 2400 // epochs of orderSmall items: 100 expected per order
	orderSmall  = 4    // 4! = 24 orders
	orderChi2   = 49.7 // chi-square critical value, 23 degrees of freedom, p = 0.001
	orderLarge  = 2000 // the epoch size the rank correlation is measured at
	orderRho    = 0.1  // bound on |Spearman rho| between input and output rank
)

// orderRun runs one epoch of a stage over n tagged inputs — input i's
// payload is the decimal i — and returns, per output position, the input it
// came from.
type orderRun func(n int) func() []int

// TestShufflersPermuteUniformly: every shuffling stage, each from a fixed
// seed, must draw each of the 24 orders of a 4-item epoch about equally often
// over 2400 epochs (chi-square below the p = 0.001 critical value), and at
// 2000 items its output rank must be uncorrelated with the input rank. The
// seeds are fixed, so the outcome is too.
func TestShufflersPermuteUniformly(t *testing.T) {
	f := newFixture(t)
	s2Priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := elgamal.RandomScalar(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	sgxShuf, err := NewSGXShuffler(ca, Params{Seed: 23, MinBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	opened := orderTagger{priv: f.anlzPriv, tags: make(map[string]int)}
	envelopes := func(key *hybrid.PublicKey, n int) []core.Envelope {
		enc := &encoder.Client{ShufflerKey: key, AnalyzerKey: f.anlzPriv.Public(), Rand: crand.Reader}
		in := make([]core.Envelope, n)
		for i := range in {
			if in[i], err = enc.Encode(core.Report{CrowdID: core.HashCrowdID("c"), Data: orderTag(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return in
	}
	blinded := func(n int) []core.BlindedEnvelope {
		enc := &encoder.BlindedClient{Shuffler2Blinding: blindKP.H, Shuffler2Key: s2Priv.Public(),
			AnalyzerKey: f.anlzPriv.Public(), Rand: crand.Reader}
		in := make([]core.BlindedEnvelope, n)
		for i := range in {
			if in[i], err = enc.Encode("c", orderTag(i)); err != nil {
				t.Fatal(err)
			}
		}
		return in
	}
	stages := []struct {
		name string
		run  orderRun
	}{
		{"Shuffler", func() orderRun {
			s := &Shuffler{Priv: f.shufPriv, Rand: rand.New(rand.NewPCG(1, 2)), MinBatch: 1}
			return func(n int) func() []int {
				in := envelopes(f.shufPriv.Public(), n)
				return func() []int {
					out, _, err := RunEpoch(s, core.Batch{Envelopes: slices.Clone(in)})
					if err != nil {
						t.Fatal(err)
					}
					return opened.ranks(t, out.Payloads)
				}
			}
		}()},
		{"Shuffler1", func() orderRun {
			s := &Shuffler1{Alpha: alpha, Rand: rand.New(rand.NewPCG(3, 4)), MinBatch: 1}
			return func(n int) func() []int {
				in := blinded(n)
				index := make(map[string]int, n)
				for i, env := range in {
					index[string(env.Blob)] = i
				}
				return func() []int {
					out, _, err := RunEpoch(s, core.Batch{Blinded: slices.Clone(in)})
					if err != nil {
						t.Fatal(err)
					}
					ranks := make([]int, len(out.Blinded))
					for i, env := range out.Blinded {
						ranks[i] = index[string(env.Blob)]
					}
					return ranks
				}
			}
		}()},
		{"Shuffler2", func() orderRun {
			s := &Shuffler2{Blinding: blindKP, Priv: s2Priv, Rand: rand.New(rand.NewPCG(5, 6)), MinBatch: 1}
			return func(n int) func() []int {
				in := blinded(n)
				return func() []int {
					out, _, err := RunEpoch(s, core.Batch{Blinded: slices.Clone(in)})
					if err != nil {
						t.Fatal(err)
					}
					return opened.ranks(t, out.Payloads)
				}
			}
		}()},
		// Threshold on, plus one report per epoch whose blob does not open:
		// it is shuffled with the rest and dropped only when the peel fails,
		// which must leave the survivors' order uniform.
		{"Shuffler2/unopenable", func() orderRun {
			s := &Shuffler2{Blinding: blindKP, Priv: s2Priv, Threshold: Threshold{Naive: orderSmall},
				Rand: rand.New(rand.NewPCG(7, 8)), MinBatch: 1}
			return func(n int) func() []int {
				in := blinded(n + 1)
				bad := in[n]
				bad.Blob[len(bad.Blob)-1] ^= 1
				in = slices.Insert(in[:n], n/2, bad)
				return func() []int {
					out, stats, err := RunEpoch(s, core.Batch{Blinded: slices.Clone(in)})
					if err != nil {
						t.Fatal(err)
					}
					if stats.Undecryptable != 1 || stats.CrowdsForwarded != 1 {
						t.Fatalf("stats %+v, want 1 undecryptable and the crowd forwarded", stats)
					}
					return opened.ranks(t, out.Payloads)
				}
			}
		}()},
		{"SGXShuffler", func(n int) func() []int {
			in := envelopes(sgxShuf.priv.Public(), n)
			return func() []int {
				out, _, err := RunEpoch(sgxShuf, core.Batch{Envelopes: slices.Clone(in)})
				if err != nil {
					t.Fatal(err)
				}
				return opened.ranks(t, out.Payloads)
			}
		}},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			epoch := st.run(orderSmall)
			counts := make(map[int]int)
			for e := 0; e < orderEpochs; e++ {
				counts[permIndex(t, epoch())]++
			}
			want := float64(orderEpochs) / 24
			chi2 := 0.0
			for p := 0; p < 24; p++ {
				d := float64(counts[p]) - want
				chi2 += d * d / want
			}
			t.Logf("%d orders seen, chi-square %.1f (bound %.1f)", len(counts), chi2, orderChi2)
			if chi2 >= orderChi2 {
				t.Errorf("the 24 orders of a 4-item epoch over %d epochs: counts %v, chi-square %.1f, want < %.1f",
					orderEpochs, counts, chi2, orderChi2)
			}

			out := st.run(orderLarge)()
			permIndex(t, out) // a permutation of the inputs
			var d2 float64
			for pos, in := range out {
				d := float64(pos - in)
				d2 += d * d
			}
			n := float64(orderLarge)
			rho := 1 - 6*d2/(n*(n*n-1))
			t.Logf("Spearman rho at n=%d: %.4f (bound %.2f)", orderLarge, rho, orderRho)
			if rho <= -orderRho || rho >= orderRho {
				t.Errorf("input and output rank correlate at n=%d: Spearman rho %.4f, want |rho| < %.2f", orderLarge, rho, orderRho)
			}
		})
	}
}

// orderTag is input i's payload: i in fixed width, so every report of an
// epoch has one size (the SGX shuffler requires it).
func orderTag(i int) []byte { return []byte(fmt.Sprintf("%06d", i)) }

// orderTagger maps a forwarded analyzer ciphertext back to its input,
// opening each distinct ciphertext once.
type orderTagger struct {
	priv *hybrid.PrivateKey
	tags map[string]int
}

func (g *orderTagger) ranks(t *testing.T, out [][]byte) []int {
	t.Helper()
	ranks := make([]int, len(out))
	for i, ct := range out {
		tag, ok := g.tags[string(ct)]
		if !ok {
			pt, err := g.priv.Open(ct, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tag, err = strconv.Atoi(string(pt)); err != nil {
				t.Fatal(err)
			}
			g.tags[string(ct)] = tag
		}
		ranks[i] = tag
	}
	return ranks
}

// permIndex checks p is a permutation of 0..len(p)-1 and returns its rank
// among them in lexicographic order (its Lehmer code).
func permIndex(t *testing.T, p []int) int {
	t.Helper()
	seen := make([]bool, len(p))
	idx := 0
	for i, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("output %v is not a permutation of the %d inputs", p, len(p))
		}
		seen[v] = true
		smaller := 0
		for _, w := range p[i+1:] {
			if w < v {
				smaller++
			}
		}
		idx = idx*(len(p)-i) + smaller
	}
	return idx
}
