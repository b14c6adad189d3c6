// Package shuffler implements the ESA intermediary (§3.3): it batches
// reports, shuffles them, applies (randomized) crowd thresholding, peels the
// outer encryption layer, and forwards the anonymous inner ciphertexts to
// the analyzer. Implicit metadata never reaches it: an item holds no
// address, arrival time or arrival order (package core), and the shuffle
// replaces the epoch's order. Three variants are provided:
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
// Each variant is a Stage (stage.go), whose work comes in two parts: Admit,
// what a report needs alone, runs on each batch as it arrives, and
// ProcessEpoch, what needs the whole epoch, runs on the cut. Only Shuffler 1
// does work in Admit — it blinds every C2 and checks every C1, so that its
// cut is a shuffle — and the other variants do all theirs in ProcessEpoch.
// A stage does only its work: it states its contract — the batch kind it
// consumes (Kinds) and its anonymity floor (Floor) — and checks neither.
// The one driver, the epoch engine (internal/transport), does, before any
// work — in a daemon and in prochlo.Pipeline alike — and so does RunEpoch.
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
	"math/big"
	"math/rand/v2"
	"slices"
	"sync"

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

// Add is the field-wise sum of s and o: the stats of two batches together.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Received:        s.Received + o.Received,
		Undecryptable:   s.Undecryptable + o.Undecryptable,
		Crowds:          s.Crowds + o.Crowds,
		CrowdsForwarded: s.CrowdsForwarded + o.CrowdsForwarded,
		Forwarded:       s.Forwarded + o.Forwarded,
	}
}

// Sub is the field-wise difference s − o: between two of a stage's
// cumulative stats, the stats of the batches it processed in between.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Received:        s.Received - o.Received,
		Undecryptable:   s.Undecryptable - o.Undecryptable,
		Crowds:          s.Crowds - o.Crowds,
		CrowdsForwarded: s.CrowdsForwarded - o.CrowdsForwarded,
		Forwarded:       s.Forwarded - o.Forwarded,
	}
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
	MinBatch  int // anonymity floor per epoch; 0 selects DefaultMinBatch
	Workers   int // decryption/grouping workers; 0 = GOMAXPROCS, 1 = serial
}

// ErrBatchTooSmall is the drivers' refusal of an epoch below its stage's
// Floor (RunEpoch, and the epoch engine in internal/transport); callers
// should keep batching (§3.3: "the shuffler batches data items for a while
// ... or until the batch is large enough").
var ErrBatchTooSmall = errors.New("shuffler: batch below minimum size")

// openedEnvelope is the per-position result of the decryption workers.
type openedEnvelope struct {
	crowd core.CrowdID
	inner []byte
	ok    bool
}

// ProcessEpoch implements Stage: it peels the outer layer, groups by crowd
// ID, applies thresholding, and returns the surviving inner ciphertexts in
// shuffled order. Decryption (hybrid's ranged OpenBatch) and grouping run
// on the worker pool; see the package comment for the determinism contract.
func (s *Shuffler) ProcessEpoch(in core.Batch) (core.Batch, Stats, error) {
	batch := in.Envelopes
	stats := Stats{Received: len(batch)}
	workers := parallel.Workers(s.Workers)
	items := make([]openedEnvelope, len(batch))
	blobs := make([][]byte, len(batch))
	for i := range batch {
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
	return core.Batch{Payloads: out}, stats, nil
}

// --- Split shuffler with blinded crowd IDs (§4.3) ---

// Shuffler1 blinds crowd-ID ciphertexts with its secret exponent (Admit)
// and shuffles (ProcessEpoch). It cannot decrypt crowd IDs (no Shuffler 2
// private key) nor data (no analyzer key). Clients compute C1 on its public
// blinding key A = αG (PublicKeys), so it multiplies C2 alone by α and
// forwards C1 as received.
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

// admitScratch is one worker range's working set in Admit: its C2s and C1s
// as the kernels take them, the blinded C2s' lengths and the C1 checks.
type admitScratch struct {
	c1s, c2s [parallel.RangeMax][]byte // the range's encodings as received
	lens     [parallel.RangeMax]uint8
	valid    [parallel.RangeMax]bool
}

var admitScratches = sync.Pool{New: func() any { return new(admitScratch) }}

// Admit implements Stage: the blinding, on each batch as it arrives. The C2
// multiplications run in worker ranges (parallel.Ranges) through
// Blinder.BlindEncode, which recodes the tier-fixed exponent once per range
// and takes each range from its wire bytes to the blinded ones in one
// buffer, sharing one field inversion; group.ValidBatch checks the range's
// C1s in lanes. C1, the blob and the partition are kept as received. A
// record whose C1 or C2 does not parse is kept with a nil C2, which
// ProcessEpoch drops.
func (s *Shuffler1) Admit(in core.Batch) core.Batch {
	batch := in.Blinded
	blinder := elgamal.NewBlinder(s.Alpha)
	n := len(batch)
	// record i's blinded C2 at WireSize*i
	c2s := make([]byte, cgroup.WireSize*n)
	out := make([]core.BlindedEnvelope, n)
	parallel.Ranges(parallel.Workers(s.Workers), n, func(lo, hi int) {
		sc := admitScratches.Get().(*admitScratch)
		c1s, c2in, lens, valid := sc.c1s[:hi-lo], sc.c2s[:hi-lo], sc.lens[:hi-lo], sc.valid[:hi-lo]
		for i := lo; i < hi; i++ {
			c1s[i-lo], c2in[i-lo] = batch[i].CrowdC1, batch[i].CrowdC2
		}
		blinder.BlindEncode(c2s[cgroup.WireSize*lo:cgroup.WireSize*hi], lens, c2in)
		cgroup.Default().ValidBatch(valid, c1s)
		for i := lo; i < hi; i++ {
			out[i] = batch[i]
			out[i].CrowdC2 = nil
			if l := int(lens[i-lo]); l != 0 && valid[i-lo] {
				out[i].CrowdC2 = c2s[cgroup.WireSize*i : cgroup.WireSize*i+l : cgroup.WireSize*i+l]
			}
		}
		clear(c1s) // the pool must not pin the batch
		clear(c2in)
		admitScratches.Put(sc)
	})
	return core.Batch{Blinded: out}
}

// shuffle drops the records Admit marked malformed and shuffles the rest,
// both in place: the kept records move to the front of batch, in order, and
// are shuffled there.
func (s *Shuffler1) shuffle(batch []core.BlindedEnvelope) []core.BlindedEnvelope {
	out := batch[:0]
	for i := range batch {
		if len(batch[i].CrowdC2) != 0 {
			out = append(out, batch[i])
		}
	}
	s.Rand.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
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

// ProcessEpoch implements Stage: it thresholds on pseudonyms and returns the
// surviving inner ciphertexts, shuffled. The pseudonyms (Decrypter.Pseudonyms) run in
// worker ranges (parallel.Ranges), each from its crowd ciphertexts' wire
// bytes to the pseudonyms' compressed ones in one buffer, with the private
// scalar recoded once and one field inversion per range; the grouping keys on
// them as fixed 32-byte values. The peel of the selected reports then runs
// in output order (hybrid's OpenBatch, whose arena so holds only what is
// forwarded).
func (s *Shuffler2) ProcessEpoch(in core.Batch) (core.Batch, Stats, error) {
	batch := in.Blinded
	stats := Stats{Received: len(batch)}
	workers := parallel.Workers(s.Workers)
	dec := s.Blinding.Decrypter()
	n := len(batch)
	c1s, c2s := make([][]byte, n), make([][]byte, n)
	for i := range batch {
		c1s[i], c2s[i] = batch[i].CrowdC1, batch[i].CrowdC2
	}
	// record i's pseudonym at 32*i, its length at lens[i], 0 when its crowd
	// ciphertext does not parse
	pseudos, lens := make([]byte, cgroup.CompressedSize*n), make([]uint8, n)
	parallel.Ranges(workers, n, func(lo, hi int) {
		dec.Pseudonyms(pseudos[cgroup.CompressedSize*lo:cgroup.CompressedSize*hi], lens[lo:hi], c1s[lo:hi], c2s[lo:hi])
	})
	idx := make([]int, 0, n)
	for i, l := range lens {
		if l != 0 {
			idx = append(idx, i)
		}
	}
	stats.Undecryptable = n - len(idx)
	groups := groupBy(workers, len(idx),
		func(int) bool { return true },
		func(j int) [32]byte { return pseudonymKey(pseudos, lens, idx[j]) },
		// Byte 1 of the compressed encoding, the y-coordinate's second
		// little-endian byte, is uniform enough to shard on.
		func(k [32]byte) uint32 { return uint32(k[1]) })
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
	return core.Batch{Payloads: out}, stats, nil
}

// pseudonymKey returns record i's pseudonym as a grouping key: its
// compressed encoding, or for the identity, whose encoding is the one byte
// {0}, the 32 bytes of its y = 1, which no other point compresses to.
func pseudonymKey(pseudos []byte, lens []uint8, i int) [32]byte {
	if lens[i] == 1 {
		return [32]byte{1}
	}
	return [32]byte(pseudos[cgroup.CompressedSize*i:])
}
