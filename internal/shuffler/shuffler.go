// Package shuffler implements the ESA intermediary (§3.3): it strips
// implicit metadata, batches reports, shuffles them, applies (randomized)
// crowd thresholding, peels the outer encryption layer, and forwards the
// anonymous inner ciphertexts to the analyzer. Three variants are provided:
//
//   - Shuffler: the plain, trusted-third-party shuffler used by the §5 case
//     studies ("the four case studies use non-oblivious shufflers");
//   - SGXShuffler: the hardened variant of §4.1, which runs the Stash
//     Shuffle and the §4.1.5 crowd thresholding inside a (simulated) SGX
//     enclave and attests its public key per §4.1.1;
//   - Shuffler1/Shuffler2: the split shuffler of §4.3, thresholding on
//     blinded crowd IDs so neither party sees them in the clear.
//
// Concurrency: each variant has a Workers knob (0 selects GOMAXPROCS,
// 1 forces the serial reference path). Per-report public-key work —
// envelope decryption, crowd-ID blinding, pseudonym recovery — runs on a
// worker pool; grouping, thresholding, and shuffling stay deterministic, so
// for a fixed batch and RNG seed the output is byte-identical at every
// worker count.
package shuffler

import (
	crand "crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"math/rand/v2"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	cgroup "prochlo/internal/crypto/group"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/parallel"
)

// Stats summarizes one processed batch; the shuffler's host learns only the
// global selectivity of thresholding (§4.1.5), which these stats model.
type Stats struct {
	Received        int // envelopes in the batch
	Undecryptable   int // envelopes that failed the outer layer
	Crowds          int // distinct crowd IDs seen
	CrowdsForwarded int // crowds surviving the threshold
	Forwarded       int // reports forwarded to the analyzer
}

// Threshold configures crowd-cardinality filtering. Exactly one mode is
// active: if Noise.Sigma > 0 the randomized thresholding of §3.5 is applied
// (drop d ~ round(N(D, sigma²)) items, then require >= T); otherwise a naive
// cardinality threshold of Naive is applied; Naive == 0 disables
// thresholding entirely (the Vocab "NoCrowd" configuration).
type Threshold struct {
	Noise dp.ThresholdNoise
	Naive int
}

// Apply returns the number of reports from a crowd of the given cardinality
// that should be forwarded, and whether the crowd survives.
func (t Threshold) Apply(rng *rand.Rand, count int) (int, bool) {
	if t.Noise.Sigma > 0 {
		return t.Noise.Survives(rng, count)
	}
	if t.Naive > 0 {
		if count >= t.Naive {
			return count, true
		}
		return 0, false
	}
	return count, true
}

// DefaultMinBatch is the default minimum batch size a shuffler will process;
// batching over an epoch is the first defense against traffic analysis.
const DefaultMinBatch = 2

// Shuffler is the plain single-shuffler stage.
type Shuffler struct {
	Priv      *hybrid.PrivateKey
	Threshold Threshold
	Rand      *rand.Rand
	MinBatch  int // minimum envelopes per batch; 0 selects DefaultMinBatch
	Workers   int // decryption/grouping workers; 0 = GOMAXPROCS, 1 = serial
}

// ErrBatchTooSmall is returned when a batch is below the minimum size;
// callers should keep batching (§3.3: "the shuffler batches data items for a
// while ... or until the batch is large enough").
var ErrBatchTooSmall = errors.New("shuffler: batch below minimum size")

// openedEnvelope is the per-position result of the decryption workers.
type openedEnvelope struct {
	crowd core.CrowdID
	inner []byte
	ok    bool
}

// Process strips metadata, peels the outer layer, groups by crowd ID,
// applies thresholding, and returns the surviving inner ciphertexts in
// shuffled order. Decryption (hybrid's chunked OpenBatch) and grouping run
// on the worker pool; see the package comment for the determinism contract.
func (s *Shuffler) Process(batch []core.Envelope) ([][]byte, Stats, error) {
	if min := s.Floor(); len(batch) < min {
		return nil, Stats{}, fmt.Errorf("%w: %d < %d", ErrBatchTooSmall, len(batch), min)
	}
	stats := Stats{Received: len(batch)}
	workers := parallel.Workers(s.Workers)
	items := make([]openedEnvelope, len(batch))
	blobs := make([][]byte, len(batch))
	for i := range batch {
		batch[i].StripMetadata()
		blobs[i] = batch[i].Blob
	}
	payloads, _ := s.Priv.OpenBatch(blobs, nil, workers)
	for i, payload := range payloads {
		// an undecryptable record's payload is nil
		if len(payload) < core.CrowdIDSize {
			stats.Undecryptable++
			continue
		}
		copy(items[i].crowd[:], payload[:core.CrowdIDSize])
		items[i].inner = payload[core.CrowdIDSize:]
		items[i].ok = true
	}
	groups := groupBy(workers, len(items),
		func(i int) bool { return items[i].ok },
		func(i int) core.CrowdID { return items[i].crowd },
		func(k core.CrowdID) uint32 { return uint32(k[0]) })
	out := applyThreshold(groups, s.Threshold, s.Rand,
		func(i int) []byte { return items[i].inner }, &stats)
	return out, stats, nil
}

// --- Split shuffler with blinded crowd IDs (§4.3) ---

// Shuffler1 blinds crowd-ID ciphertexts with its secret exponent, strips
// metadata, and shuffles. It cannot decrypt crowd IDs (no Shuffler 2 private
// key) nor data (no analyzer key).
type Shuffler1 struct {
	Alpha    *big.Int // blinding exponent, fixed per tier (every replica and restart blinds with it)
	Rand     *rand.Rand
	MinBatch int // anonymity floor per epoch; 0 selects DefaultMinBatch
	Workers  int // blinding workers; 0 = GOMAXPROCS, 1 = serial
}

// NewShuffler1Group draws a fresh blinding exponent; the group is the
// deployed one whatever the argument (benchmark/sut.go binds this
// signature). A tier's replicas must share one α instead: build them with
// NewStage.
func NewShuffler1Group(_ cgroup.Group, rng *rand.Rand) (*Shuffler1, error) {
	alpha, err := elgamal.RandomScalar(crand.Reader)
	if err != nil {
		return nil, err
	}
	return &Shuffler1{Alpha: alpha, Rand: rng}, nil
}

// blindChunk is the number of ciphertexts a worker feeds the El Gamal batch
// kernels per claim: large enough to amortize the per-chunk scalar recoding
// and the shared field inversion to noise, small enough to keep the worker
// pool's tail balanced.
const blindChunk = 256

// Process blinds and shuffles a batch, forwarding it for Shuffler 2. Parsing
// runs per envelope on the worker pool; the point multiplications run
// through Blinder.BlindBatch in chunks, so the epoch-fixed exponent is
// recoded once per chunk and each chunk's outputs are normalized with one
// shared inversion before encoding.
func (s *Shuffler1) Process(batch []core.BlindedEnvelope) ([]core.BlindedEnvelope, error) {
	blinder := elgamal.NewBlinder(s.Alpha)
	workers := parallel.Workers(s.Workers)
	n := len(batch)
	cts := make([]elgamal.Ciphertext, n)
	ok := make([]bool, n)
	parallel.For(workers, n, func(i int) {
		batch[i].StripMetadata()
		c1, err := elgamal.ParsePoint(batch[i].CrowdC1)
		if err != nil {
			return
		}
		c2, err := elgamal.ParsePoint(batch[i].CrowdC2)
		if err != nil {
			return
		}
		cts[i] = elgamal.Ciphertext{C1: c1, C2: c2}
		ok[i] = true
	})
	// Compact to the valid envelopes (dropping unparsable crowd IDs), then
	// blind chunk-wise on the pool.
	idx := make([]int, 0, n)
	for i := range ok {
		if ok[i] {
			idx = append(idx, i)
		}
	}
	valid := make([]elgamal.Ciphertext, len(idx))
	for j, i := range idx {
		valid[j] = cts[i]
	}
	chunks := (len(valid) + blindChunk - 1) / blindChunk
	parallel.For(workers, chunks, func(c int) {
		lo := c * blindChunk
		blinder.BlindBatch(valid[lo:min(lo+blindChunk, len(valid))])
	})
	out := make([]core.BlindedEnvelope, len(idx))
	parallel.For(workers, len(idx), func(j int) {
		out[j] = core.BlindedEnvelope{
			CrowdC1: valid[j].C1.Bytes(),
			CrowdC2: valid[j].C2.Bytes(),
			Blob:    batch[idx[j]].Blob,
			// Routing, not metadata: the client-stamped owning partition
			// must survive blinding for hop-2 fan-in.
			Partition: batch[idx[j]].Partition,
		}
	})
	s.Rand.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// Shuffler2 decrypts blinded crowd-ID pseudonyms, thresholds on them, peels
// its encryption layer, and forwards the inner ciphertexts. It never sees a
// crowd ID in the clear: only α·H(crowdID), useless for dictionary attacks
// without Shuffler 1's α.
type Shuffler2 struct {
	Blinding  *elgamal.KeyPair
	Priv      *hybrid.PrivateKey
	Threshold Threshold
	Rand      *rand.Rand
	MinBatch  int // anonymity floor per epoch; 0 selects DefaultMinBatch
	Workers   int // decryption workers; 0 = GOMAXPROCS, 1 = serial
}

// openedBlinded is the per-position result of Shuffler 2's workers.
type openedBlinded struct {
	ct     elgamal.Ciphertext
	pseudo string
	inner  []byte
	ok     bool
}

// Process thresholds on pseudonyms and returns surviving inner ciphertexts,
// shuffled. Envelope parsing runs per report on the worker pool; the outer
// layer is peeled by hybrid's chunked OpenBatch and the El Gamal decryptions
// run through Decrypter.PseudonymBatch, so on both the private scalar is
// recoded once per chunk and a chunk's points share one field inversion.
func (s *Shuffler2) Process(batch []core.BlindedEnvelope) ([][]byte, Stats, error) {
	stats := Stats{Received: len(batch)}
	workers := parallel.Workers(s.Workers)
	dec := s.Blinding.Decrypter()
	items := make([]openedBlinded, len(batch))
	blobs := make([][]byte, len(batch))
	parallel.For(workers, len(batch), func(i int) {
		blobs[i] = batch[i].Blob
		c1, err1 := elgamal.ParsePoint(batch[i].CrowdC1)
		c2, err2 := elgamal.ParsePoint(batch[i].CrowdC2)
		if err1 != nil || err2 != nil {
			return
		}
		items[i].ct = elgamal.Ciphertext{C1: c1, C2: c2}
		items[i].ok = true
	})
	inners, errs := s.Priv.OpenBatch(blobs, nil, workers)
	idx := make([]int, 0, len(batch))
	for i := range items {
		if !items[i].ok || errs[i] != nil {
			items[i].ok = false
			stats.Undecryptable++
			continue
		}
		items[i].inner = inners[i]
		idx = append(idx, i)
	}
	valid := make([]elgamal.Ciphertext, len(idx))
	for j, i := range idx {
		valid[j] = items[i].ct
	}
	chunks := (len(valid) + blindChunk - 1) / blindChunk
	parallel.For(workers, chunks, func(c int) {
		lo := c * blindChunk
		hi := min(lo+blindChunk, len(valid))
		for j, pseudo := range dec.PseudonymBatch(valid[lo:hi]) {
			items[idx[lo+j]].pseudo = pseudo
		}
	})
	groups := groupBy(workers, len(items),
		func(i int) bool { return items[i].ok },
		func(i int) string { return items[i].pseudo },
		func(k string) uint32 {
			// Byte 1 of the compressed encoding, the y-coordinate's
			// second little-endian byte, is uniform enough to shard on.
			if len(k) > 1 {
				return uint32(k[1])
			}
			return 0
		})
	out := applyThreshold(groups, s.Threshold, s.Rand,
		func(i int) []byte { return items[i].inner }, &stats)
	return out, stats, nil
}
