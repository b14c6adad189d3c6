// Package encoder implements the ESA client stage (§3.2): it transforms
// monitored data for privacy — fragmenting, randomized response, secret
// sharing — attaches crowd IDs, and applies the nested encryption that pins
// which parties may process the report and in what order.
//
// Encode is the single-report reference path. EncodeBatch plays a fleet of
// clients at once: per-report randomness is drawn serially from Rand (one
// seed per report, expanded with ChaCha8) and the public-key work fans out
// over a worker pool, composing each report's nested layers — and the whole
// batch — in a single backing buffer via hybrid.SealInto. For a
// deterministic Rand the batch output is byte-identical at every worker
// count; see TestEncodeBatchParallelEquivalence.
package encoder

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/group"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/crypto/secretshare"
	"prochlo/internal/parallel"
)

// Client encodes reports for a single-shuffler pipeline. The embedded keys
// are the user's trust statement: only the holder of ShufflerKey can peel
// the outer layer, and only the holder of AnalyzerKey can read the data.
type Client struct {
	ShufflerKey *hybrid.PublicKey
	AnalyzerKey *hybrid.PublicKey
	Rand        io.Reader
}

// Encode produces the nested-encrypted envelope of a report:
// Seal(shuffler, crowdID || Seal(analyzer, data)).
func (c *Client) Encode(r core.Report) (core.Envelope, error) {
	inner, err := hybrid.Seal(c.Rand, c.AnalyzerKey, r.Data, nil)
	if err != nil {
		return core.Envelope{}, fmt.Errorf("encoder: inner layer: %w", err)
	}
	payload := make([]byte, 0, core.CrowdIDSize+len(inner))
	payload = append(payload, r.CrowdID[:]...)
	payload = append(payload, inner...)
	blob, err := hybrid.Seal(c.Rand, c.ShufflerKey, payload, nil)
	if err != nil {
		return core.Envelope{}, fmt.Errorf("encoder: outer layer: %w", err)
	}
	return core.Envelope{Blob: blob}, nil
}

// runRecords queues every record's fixed-base multiplications in b and runs
// them, per slots a record (CombBatch.RunRecords): queue(rng, i) draws
// record i's randomness from its own seeded stream.
func runRecords(b *group.CombBatch, workers, per int, seeds hybrid.Seeds, queue func(rng io.Reader, i int) error) error {
	if i, err := b.RunRecords(workers, per, func(i int) error {
		rng := seeds.RNG(i)
		defer hybrid.PutRNG(rng)
		return queue(rng, i)
	}); err != nil {
		return fmt.Errorf("encoder: report %d: %w", i, err)
	}
	return nil
}

// EncodeBatch encodes a batch of reports on a worker pool (workers <= 0
// selects GOMAXPROCS, 1 is the serial reference path). Every fixed-base
// multiplication of the batch — each report's two seals, k*G and k*K each —
// goes in one group.CombBatch, one comb sweep per worker's range of reports
// whose products leave it as encodings; every seal's key is derived in
// lanes of sixteen (hybrid.DeriveKeys); then the AEAD seals compose each
// report's nested envelope in place in one batch-wide buffer. Per-report
// randomness follows the hybrid.Seeds convention — record i's draws come
// from its own seeded stream in the solo Encode order (inner scalar and
// nonce, then outer) — so the output is identical in distribution to
// calling Encode per report, and byte-identical across worker counts for a
// fixed Rand.
func (c *Client) EncodeBatch(reports []core.Report, workers int) ([]core.Envelope, error) {
	n := len(reports)
	if n == 0 {
		return nil, nil
	}
	seeds, err := hybrid.DrawSeeds(c.Rand, n)
	if err != nil {
		return nil, err
	}
	w := parallel.Workers(workers)

	// record i's inner seal sits at slots 4i and 4i+1, its outer at 4i+2, 4i+3
	b := group.NewCombBatch(4 * n)
	inner, outer := make([]hybrid.PendingSeal, n), make([]hybrid.PendingSeal, n)
	if err := runRecords(b, w, 4, seeds, func(rng io.Reader, i int) error {
		if err := c.AnalyzerKey.QueueSeal(&inner[i], rng, b, 4*i); err != nil {
			return fmt.Errorf("inner layer: %w", err)
		}
		if err := c.ShufflerKey.QueueSeal(&outer[i], rng, b, 4*i+2); err != nil {
			return fmt.Errorf("outer layer: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	hybrid.DeriveKeys(b, w, inner, outer)

	// Staging and envelope sizes are known exactly: data + inner overhead,
	// wrapped with the crowd ID and outer overhead.
	staging := parallel.NewArena(n, func(i int) int {
		return core.CrowdIDSize + len(reports[i].Data) + hybrid.Overhead
	})
	arena := parallel.NewArena(n, func(i int) int {
		return core.CrowdIDSize + len(reports[i].Data) + 2*hybrid.Overhead
	})
	envs := make([]core.Envelope, n)
	parallel.For(w, n, func(i int) {
		payload := inner[i].Seal(append(staging.Slot(i), reports[i].CrowdID[:]...), reports[i].Data, nil)
		envs[i].Blob = outer[i].Seal(arena.Slot(i), payload, nil)
	})
	return envs, nil
}

// BlindedClient encodes reports for the split-shuffler pipeline (§4.3): the
// crowd ID is El Gamal-encrypted to Shuffler 2's blinding key on Shuffler
// 1's public blinding key A = αG, so that Shuffler 1 need only blind C2, and
// the data is nested-encrypted to Shuffler 2 and the analyzer. Shuffler 1
// sees neither crowd IDs nor data; it blinds, batches, and shuffles.
type BlindedClient struct {
	// Shuffler1Blinding is Shuffler 1's public blinding key A, the base C1
	// is computed on. The zero Point leaves C1 on G, a ciphertext no chain
	// thresholds correctly: hop 2's pseudonyms then differ per report.
	Shuffler1Blinding elgamal.Point
	Shuffler2Blinding elgamal.Point // Shuffler 2's El Gamal public key
	Shuffler2Key      *hybrid.PublicKey
	AnalyzerKey       *hybrid.PublicKey
	Rand              io.Reader

	encOnce sync.Once
	enc     *elgamal.Encrypter
}

// encrypter returns the lazily-built El Gamal fast path for the two keys:
// hash-to-curve results are cached per crowd label, which matters because a
// client reports the same few crowds all epoch.
func (c *BlindedClient) encrypter() *elgamal.Encrypter {
	c.encOnce.Do(func() { c.enc = elgamal.NewEncrypterOn(c.Shuffler1Blinding, c.Shuffler2Blinding) })
	return c.enc
}

// Encode produces a blinded envelope for the report with the given crowd
// label (the label is hashed to the curve, not truncated to 8 bytes, since
// it never appears in the clear).
func (c *BlindedClient) Encode(crowdLabel string, data []byte) (core.BlindedEnvelope, error) {
	ct, err := c.encrypter().EncryptCrowdID(c.Rand, []byte(crowdLabel))
	if err != nil {
		return core.BlindedEnvelope{}, fmt.Errorf("encoder: crowd ID: %w", err)
	}
	inner, err := hybrid.Seal(c.Rand, c.AnalyzerKey, data, nil)
	if err != nil {
		return core.BlindedEnvelope{}, fmt.Errorf("encoder: inner layer: %w", err)
	}
	blob, err := hybrid.Seal(c.Rand, c.Shuffler2Key, inner, nil)
	if err != nil {
		return core.BlindedEnvelope{}, fmt.Errorf("encoder: shuffler-2 layer: %w", err)
	}
	return core.BlindedEnvelope{
		CrowdC1: ct.C1.Bytes(),
		CrowdC2: ct.C2.Bytes(),
		Blob:    blob,
	}, nil
}

// EncodeBatch encodes a batch of (crowd label, data) reports on a worker
// pool, the split-shuffler counterpart of Client.EncodeBatch: each report's
// El Gamal crowd-ID encryption (through the cached hash-to-curve fast path)
// and both of its seals queue their six fixed-base multiplications in one
// group.CombBatch, encoded as the comb computes them, both seals' keys are
// derived in lanes with every other report's, and both layers are composed
// in a single batch-wide buffer. Record i draws El Gamal scalar, inner
// scalar and nonce, then outer, from its own stream, as Encode does, so
// byte output is identical across worker counts for a fixed Rand.
func (c *BlindedClient) EncodeBatch(crowdLabels []string, data [][]byte, workers int) ([]core.BlindedEnvelope, error) {
	if len(crowdLabels) != len(data) {
		return nil, fmt.Errorf("encoder: %d labels for %d data payloads", len(crowdLabels), len(data))
	}
	n := len(data)
	if n == 0 {
		return nil, nil
	}
	seeds, err := hybrid.DrawSeeds(c.Rand, n)
	if err != nil {
		return nil, err
	}
	w := parallel.Workers(workers)

	// record i's El Gamal encryption sits at slots 6i and 6i+1, its inner
	// seal at 6i+2 and 6i+3, its shuffler-2 seal at 6i+4 and 6i+5
	enc := c.encrypter()
	b := group.NewCombBatch(6 * n)
	inner, outer := make([]hybrid.PendingSeal, n), make([]hybrid.PendingSeal, n)
	if err := runRecords(b, w, 6, seeds, func(rng io.Reader, i int) error {
		if err := enc.QueueCrowdID(rng, []byte(crowdLabels[i]), b, 6*i); err != nil {
			return fmt.Errorf("crowd ID: %w", err)
		}
		if err := c.AnalyzerKey.QueueSeal(&inner[i], rng, b, 6*i+2); err != nil {
			return fmt.Errorf("inner layer: %w", err)
		}
		if err := c.Shuffler2Key.QueueSeal(&outer[i], rng, b, 6*i+4); err != nil {
			return fmt.Errorf("shuffler-2 layer: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	hybrid.DeriveKeys(b, w, inner, outer)

	staging := parallel.NewArena(n, func(i int) int { return len(data[i]) + hybrid.Overhead })
	arena := parallel.NewArena(n, func(i int) int { return len(data[i]) + 2*hybrid.Overhead })
	// every C1 and C2 in one buffer, a record's pair at 2*WireSize*i
	const pair = 2 * group.WireSize
	points := make([]byte, pair*n)
	envs := make([]core.BlindedEnvelope, n)
	parallel.For(w, n, func(i int) {
		blob := outer[i].Seal(arena.Slot(i), inner[i].Seal(staging.Slot(i), data[i], nil), nil)
		c1, c2 := enc.Queued(b, 6*i)
		c12 := append(append(points[pair*i:pair*i:pair*(i+1)], c1...), c2...)
		envs[i] = core.BlindedEnvelope{CrowdC1: c12[:len(c1):len(c1)], CrowdC2: c12[len(c1):], Blob: blob}
	})
	return envs, nil
}

// SecretShareData produces the §4.2 secret-share encoding of a value as a
// report payload: the value is recoverable by the analyzer only once t
// clients have reported it.
func SecretShareData(rng io.Reader, t int, value []byte) ([]byte, error) {
	enc := secretshare.Encoder{T: t}
	e, err := enc.Encode(rng, value)
	if err != nil {
		return nil, err
	}
	return secretshare.Marshal(e), nil
}

// --- Fragmenting encoders (§3.2) ---

// Pairs returns all index pairs (i, j), i < j, of a set of n items: the
// paper's pairwise fragmentation of rating sets ("the rating set may be
// encoded as its pairwise combinations").
func Pairs(n int) [][2]int {
	out := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// SampledPairs returns up to max random index pairs without replacement —
// the Flix encoder's capped four-tuple sampling (§5.5). When the pair space
// fits under the cap, all pairs are returned in order; otherwise a uniform
// sample is drawn by reservoir sampling over the pair index space, so only
// max pairs are ever materialized (the previous implementation allocated
// all n(n-1)/2 pairs and shuffled them just to keep max).
func SampledPairs(rng *rand.Rand, n, max int) [][2]int {
	total := n * (n - 1) / 2
	if total <= max {
		return Pairs(n)
	}
	if max <= 0 {
		return nil
	}
	out := make([][2]int, 0, max)
	seen := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if seen < max {
				out = append(out, [2]int{i, j})
			} else if r := rng.IntN(seen + 1); r < max {
				out[r] = [2]int{i, j}
			}
			seen++
		}
	}
	return out
}

// DisjointTuples fragments a sequence into disjoint m-tuples, dropping the
// remainder — the Suggest encoder (§5.4): "fragmented each user's view
// history into short, disjoint m-tuples".
func DisjointTuples[T any](seq []T, m int) [][]T {
	if m < 1 {
		return nil
	}
	out := make([][]T, 0, len(seq)/m)
	for i := 0; i+m <= len(seq); i += m {
		out = append(out, seq[i:i+m:i+m])
	}
	return out
}

// RandomizedResponse keeps value with probability keep and otherwise
// replaces it with a uniform draw from [0, domain) — the textbook mechanism
// the Flix encoder applies to movie identifiers (10% substitution ⇒ 2.2-DP
// for the set of rated movies).
func RandomizedResponse(rng *rand.Rand, value, domain uint64, keep float64) uint64 {
	if rng.Float64() < keep {
		return value
	}
	return rng.Uint64N(domain)
}

// FlipBits flips each of the low nbits of bitmap independently with the
// given probability — the Perms encoder's plausible-deniability noise
// (§5.3: each bitmap bit flipped with probability 1e-4).
func FlipBits(rng *rand.Rand, bitmap uint8, nbits int, p float64) uint8 {
	for b := 0; b < nbits; b++ {
		if rng.Float64() < p {
			bitmap ^= 1 << b
		}
	}
	return bitmap
}

// ErrNoData is returned by encoders given nothing to encode.
var ErrNoData = errors.New("encoder: no data")
