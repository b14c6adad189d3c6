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
//     blinded crowd IDs so neither party sees them in the clear. Shuffler 2
//     thresholds before it peels: only the reports it forwards lose their
//     outer layer.
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
	"slices"

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
	Received int // envelopes in the batch
	// Undecryptable: envelopes dropped as malformed, for an outer layer that
	// does not open or a crowd ciphertext that does not parse. Shuffler 2
	// opens only the records its threshold keeps.
	Undecryptable int
	// Crowds: distinct crowd IDs seen (pseudonyms at Shuffler 2, where a
	// record counts once its crowd ciphertext parses, opened or not).
	Crowds          int
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
	sel := applyThreshold(groups, s.Threshold, s.Rand, &stats)
	// Detach the survivors from the decryption arena, which holds the whole
	// batch's peeled plaintext: a caller retaining even one forwarded
	// ciphertext — a transport queue, say — would pin all of it. One
	// exact-size buffer holds just the survivors' bytes.
	out := make([][]byte, len(sel))
	for j, i := range sel {
		out[j] = items[i].inner
	}
	buf := slices.Concat(out...)
	for j, b := range out {
		out[j], buf = buf[:len(b):len(b)], buf[len(b):]
	}
	stats.Forwarded = len(out)
	return out, stats, nil
}

// --- Split shuffler with blinded crowd IDs (§4.3) ---

// Shuffler1 blinds crowd-ID ciphertexts with its secret exponent, strips
// metadata, and shuffles. It cannot decrypt crowd IDs (no Shuffler 2 private
// key) nor data (no analyzer key). Clients compute C1 on its public blinding
// key A = αG (PublicKeys), so it multiplies C2 alone by α and forwards C1 as
// received.
type Shuffler1 struct {
	Alpha    *big.Int // blinding exponent, fixed per tier (every replica and restart blinds with it)
	Rand     *rand.Rand
	MinBatch int // anonymity floor per epoch; 0 selects DefaultMinBatch
	Workers  int // blinding workers; 0 = GOMAXPROCS, 1 = serial

	provenKey []byte // A = αG with its proof of α, served by PublicKeys (NewStage sets it)
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
// runs in chunks on the worker pool: C1 is validated and dropped, and each
// chunk's C2 points share one allocation. The C2 multiplications run
// through Blinder.BlindBatch in chunks, so the epoch-fixed exponent is
// recoded once per chunk and each chunk's outputs are normalized with one
// shared inversion before they are encoded, all into one buffer. C1 and the
// blob are forwarded as received.
func (s *Shuffler1) Process(batch []core.BlindedEnvelope) ([]core.BlindedEnvelope, error) {
	blinder := elgamal.NewBlinder(s.Alpha)
	workers := parallel.Workers(s.Workers)
	n := len(batch)
	cts := make([]elgamal.Ciphertext, n)
	ok := make([]bool, n)
	parallel.For(workers, (n+blindChunk-1)/blindChunk, func(c int) {
		lo, hi := c*blindChunk, min((c+1)*blindChunk, n)
		c2s := make([][]byte, hi-lo)
		for i := lo; i < hi; i++ {
			batch[i].StripMetadata()
			c2s[i-lo] = batch[i].CrowdC2
		}
		c2 := make([]elgamal.Point, hi-lo)
		elgamal.ParsePoints(c2, ok[lo:hi], c2s)
		for i := lo; i < hi; i++ {
			cts[i].C2 = c2[i-lo]
			ok[i] = ok[i] && elgamal.ValidPoint(batch[i].CrowdC1)
		}
	})
	// Compact to the valid envelopes (dropping unparsable crowd IDs) in
	// place, then blind chunk-wise on the pool; idx maps back to the batch.
	idx := make([]int, 0, n)
	for i := range ok {
		if ok[i] {
			cts[len(idx)] = cts[i]
			idx = append(idx, i)
		}
	}
	valid := cts[:len(idx)]
	chunks := (len(valid) + blindChunk - 1) / blindChunk
	parallel.For(workers, chunks, func(c int) {
		lo := c * blindChunk
		blinder.BlindBatch(valid[lo:min(lo+blindChunk, len(valid))])
	})
	out := make([]core.BlindedEnvelope, len(idx))
	c2s := make([]byte, cgroup.WireSize*len(idx))
	parallel.For(workers, len(idx), func(j int) {
		in := &batch[idx[j]]
		out[j] = core.BlindedEnvelope{
			CrowdC1: in.CrowdC1,
			CrowdC2: valid[j].C2.AppendBytes(c2s[cgroup.WireSize*j : cgroup.WireSize*j : cgroup.WireSize*(j+1)]),
			Blob:    in.Blob,
			// Routing, not metadata: the client-stamped owning partition
			// must survive blinding for hop-2 fan-in.
			Partition: in.Partition,
		}
	})
	s.Rand.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// Shuffler2 decrypts blinded crowd-ID pseudonyms, thresholds on them, and
// only then peels its encryption layer off the reports the threshold keeps,
// forwarding their inner ciphertexts. It never sees a crowd ID in the clear:
// only α·H(crowdID), useless for dictionary attacks without Shuffler 1's α.
//
// A record counts toward its crowd once its crowd ciphertext parses, whether
// or not its outer layer opens: a kept record whose blob does not open is
// dropped after the threshold and counted Undecryptable, and the blobs of a
// suppressed crowd are never opened. That is no weaker than the sybil model
// the threshold already accepts — the hybrid and El Gamal keys are public, so
// a client that can form a crowd ciphertext can also form a valid report for
// that crowd — and hop 2 never holds the analyzer-layer ciphertexts of a
// crowd it suppresses.
type Shuffler2 struct {
	Blinding  *elgamal.KeyPair
	Priv      *hybrid.PrivateKey
	Threshold Threshold
	Rand      *rand.Rand
	MinBatch  int // anonymity floor per epoch; 0 selects DefaultMinBatch
	Workers   int // decryption workers; 0 = GOMAXPROCS, 1 = serial
}

// Process thresholds on pseudonyms and returns the surviving inner
// ciphertexts, shuffled. Parsing runs in chunks on the worker pool, each
// chunk's points in one allocation; the pseudonyms
// (Decrypter.PseudonymBatch), then the peel of the selected reports in
// output order (hybrid's OpenBatch, whose arena so holds only what is
// forwarded), run in chunks that recode the private scalar once and share
// one field inversion.
func (s *Shuffler2) Process(batch []core.BlindedEnvelope) ([][]byte, Stats, error) {
	stats := Stats{Received: len(batch)}
	workers := parallel.Workers(s.Workers)
	dec := s.Blinding.Decrypter()
	cts := make([]elgamal.Ciphertext, len(batch))
	ok := make([]bool, len(batch))
	parallel.For(workers, (len(batch)+blindChunk-1)/blindChunk, func(c int) {
		lo, hi := c*blindChunk, min((c+1)*blindChunk, len(batch))
		// record i's C1 and C2 at 2(i-lo) and 2(i-lo)+1
		bs := make([][]byte, 0, 2*(hi-lo))
		for i := lo; i < hi; i++ {
			bs = append(bs, batch[i].CrowdC1, batch[i].CrowdC2)
		}
		pts, parsed := make([]elgamal.Point, len(bs)), make([]bool, len(bs))
		elgamal.ParsePoints(pts, parsed, bs)
		for i := lo; i < hi; i++ {
			j := 2 * (i - lo)
			cts[i], ok[i] = elgamal.Ciphertext{C1: pts[j], C2: pts[j+1]}, parsed[j] && parsed[j+1]
		}
	})
	// Compact to the parsable envelopes in place; idx maps back to the batch.
	idx := make([]int, 0, len(batch))
	for i := range ok {
		if ok[i] {
			cts[len(idx)] = cts[i]
			idx = append(idx, i)
		}
	}
	stats.Undecryptable = len(batch) - len(idx)
	pseudos := make([]string, len(idx))
	parallel.For(workers, (len(idx)+blindChunk-1)/blindChunk, func(c int) {
		lo := c * blindChunk
		copy(pseudos[lo:], dec.PseudonymBatch(cts[lo:min(lo+blindChunk, len(idx))]))
	})
	groups := groupBy(workers, len(pseudos),
		func(int) bool { return true },
		func(j int) string { return pseudos[j] },
		func(k string) uint32 {
			// Byte 1 of the compressed encoding, the y-coordinate's
			// second little-endian byte, is uniform enough to shard on.
			if len(k) > 1 {
				return uint32(k[1])
			}
			return 0
		})
	sel := applyThreshold(groups, s.Threshold, s.Rand, &stats)
	blobs := make([][]byte, len(sel))
	for k, j := range sel {
		blobs[k] = batch[idx[j]].Blob
	}
	inners, errs := s.Priv.OpenBatch(blobs, nil, workers)
	out := inners[:0]
	for j, inner := range inners {
		if errs[j] == nil {
			out = append(out, inner)
		}
	}
	stats.Undecryptable += len(inners) - len(out)
	stats.Forwarded = len(out)
	return out, stats, nil
}
