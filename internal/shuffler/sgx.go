package shuffler

import (
	crand "crypto/rand"
	"fmt"
	"io"
	"math/rand/v2"

	"prochlo/internal/core"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/oblivious"
	"prochlo/internal/sgx"
)

// SGXShuffler is the hardened shuffler of §4.1: it runs inside a (simulated)
// SGX enclave, attests a freshly generated public key (§4.1.1), obliviously
// shuffles each batch with the Stash Shuffle (§4.1.4), and applies crowd
// thresholding with private counters (§4.1.5). The organization hosting it
// learns only the sequence of fixed-size encrypted reads/writes and the
// global selectivity of thresholding.
//
// A report whose outer layer does not open costs only itself. Inside the
// enclave it becomes a dummy of the same size, marked invalid (outerPeelCodec):
// the shuffle reads, re-encrypts and writes it like any other record, the
// threshold passes skip it, and it counts in Undecryptable. The untrusted
// reads and writes of the shuffle are therefore the same whichever input
// failed, or whether one did.
//
// A report of another size costs only itself too. The oblivious passes need
// records of one size, so before the enclave sees an epoch every record
// whose size differs from the epoch's most common size is set aside
// (uniformBlobs) and counted in Undecryptable. The host sees each record's
// size as it arrives, so setting records aside by size reveals nothing it
// does not already know.
type SGXShuffler struct {
	Enclave   *sgx.Enclave
	Threshold Threshold
	Rand      *rand.Rand
	Seed      uint64 // nonzero: each epoch's oblivious shuffle is seeded from Rand (epochSeed)
	MinBatch  int    // anonymity floor per epoch; 0 selects DefaultMinBatch
	Workers   int    // Stash Shuffle distribution workers; 0 = GOMAXPROCS, 1 = serial

	priv *hybrid.PrivateKey

	// Metrics of the most recent batch's oblivious shuffle.
	ShuffleMetrics oblivious.StashMetrics
}

// SGXShufflerMeasurement is the code identity clients expect in quotes.
var SGXShufflerMeasurement = sgx.Measure("prochlo-stash-shuffler-v1")

// NewSGXShuffler generates the shuffler's key pair inside the enclave and
// returns the shuffler along with the attestation quote over its public key.
// Clients must verify the quote against the CA key they pin (never one the
// shuffler serves) and SGXShufflerMeasurement before encrypting to the key; keys are ephemeral
// per §4.1.1 ("the shuffler must create a new key pair every time it
// restarts"). Like NewStage's "shuffler", it draws StageRand(p.Seed,
// "shuffler"); with p.Seed set, each epoch's Stash Shuffle is seeded from
// that stream too.
func NewSGXShuffler(ca *sgx.CA, p Params) (*SGXShuffler, sgx.Quote, error) {
	rng, err := StageRand(p.Seed, "shuffler")
	if err != nil {
		return nil, sgx.Quote{}, err
	}
	enclave := sgx.New(sgx.DefaultEPC, SGXShufflerMeasurement)
	ca.Provision(enclave)
	priv, err := hybrid.GenerateKey(cryptoReader())
	if err != nil {
		return nil, sgx.Quote{}, err
	}
	enclave.CountPubKey()
	quote, err := enclave.GenerateQuote(priv.Public().Bytes())
	if err != nil {
		return nil, sgx.Quote{}, err
	}
	return &SGXShuffler{
		Enclave: enclave, Threshold: p.Threshold, Rand: rng,
		Seed: p.Seed, MinBatch: p.MinBatch, Workers: p.Workers, priv: priv,
	}, quote, nil
}

// PublicKey returns the attested key clients should encrypt to.
func (s *SGXShuffler) PublicKey() *hybrid.PublicKey { return s.priv.Public() }

// outerPeelCodec peels the shuffler layer during the Stash Shuffle's
// distribution phase (the public-key work that §5.1 identifies as the
// dominant cost) and passes payloads through on output. A payload is
// crowdID || inner || 1; a record that does not open, or opens to less than
// a crowd ID, becomes PlainSize zero bytes, whose last byte marks it invalid.
type outerPeelCodec struct {
	priv    *hybrid.PrivateKey
	enclave *sgx.Enclave
}

func (c outerPeelCodec) Open(ct []byte) ([]byte, error) {
	c.enclave.CountPubKey()
	size := c.PlainSize(len(ct))
	pt, err := c.priv.OpenInto(make([]byte, 0, size), ct, nil)
	if err != nil || len(pt) < core.CrowdIDSize {
		return make([]byte, size), nil
	}
	return append(pt, 1), nil
}

func (c outerPeelCodec) Seal(pt []byte) ([]byte, error) { return pt, nil }

func (c outerPeelCodec) PlainSize(recordSize int) int { return max(recordSize-hybrid.Overhead, 0) + 1 }

func (c outerPeelCodec) SealedSize(plainSize int) int { return plainSize }

// peeled splits a payload of outerPeelCodec into its crowd ID and inner
// ciphertext; ok is false for the dummy of a record that did not open.
func peeled(rec []byte) (id core.CrowdID, inner []byte, ok bool) {
	n := len(rec) - 1
	if rec[n] == 0 {
		return id, nil, false
	}
	copy(id[:], rec[:core.CrowdIDSize])
	return id, rec[core.CrowdIDSize:n], true
}

// uniformBlobs strips each envelope's metadata and returns the blobs of the
// batch's most common size, the smaller size on a tie, with that size and
// the number of envelopes of any other size, which it sets aside.
func uniformBlobs(batch []core.Envelope) (blobs [][]byte, size, aside int) {
	counts := make(map[int]int)
	for i := range batch {
		batch[i].StripMetadata()
		counts[len(batch[i].Blob)]++
	}
	for n, c := range counts {
		if c > counts[size] || c == counts[size] && n < size {
			size = n
		}
	}
	blobs = make([][]byte, 0, counts[size])
	for _, e := range batch {
		if len(e.Blob) == size {
			blobs = append(blobs, e.Blob)
		}
	}
	return blobs, size, len(batch) - len(blobs)
}

// Process obliviously shuffles the batch, thresholds crowds with private
// counters, and returns the surviving inner ciphertexts in shuffled order.
func (s *SGXShuffler) Process(batch []core.Envelope) ([][]byte, Stats, error) {
	stats := Stats{Received: len(batch)}
	if len(batch) == 0 {
		return nil, stats, fmt.Errorf("%w: empty", ErrBatchTooSmall)
	}
	blobs, _, aside := uniformBlobs(batch)
	stats.Undecryptable = aside

	// Oblivious shuffle; output records are outerPeelCodec payloads.
	codec := outerPeelCodec{priv: s.priv, enclave: s.Enclave}
	st := oblivious.NewStashShuffle(s.Enclave, codec, len(blobs))
	st.Seed = s.epochSeed()
	st.Workers = s.Workers
	shuffled, err := st.Shuffle(blobs)
	if err != nil {
		return nil, stats, fmt.Errorf("shuffler: oblivious shuffle: %w", err)
	}
	s.ShuffleMetrics = st.Metrics

	// §4.1.5 thresholding: one pass to count crowd IDs in private memory,
	// one pass to filter. The counter table is charged to the enclave.
	counterMem := int64(len(shuffled) * (core.CrowdIDSize + 8))
	if err := s.Enclave.Alloc(counterMem); err != nil {
		return nil, stats, err
	}
	defer s.Enclave.Free(counterMem)
	counts := make(map[core.CrowdID]int, len(shuffled)/4)
	var order []core.CrowdID // first-appearance order, for deterministic RNG use
	for _, rec := range shuffled {
		s.Enclave.ReadUntrusted(len(rec))
		id, _, ok := peeled(rec)
		if !ok {
			stats.Undecryptable++
			continue
		}
		if counts[id] == 0 {
			order = append(order, id)
		}
		counts[id]++
	}
	stats.Crowds = len(counts)
	// Per-crowd forwarding budget after noisy thresholding, decided in
	// first-appearance order so a seeded run consumes the threshold RNG
	// deterministically (map iteration order would not).
	budget := make(map[core.CrowdID]int, len(counts))
	for _, id := range order {
		keep, ok := s.Threshold.Apply(s.Rand, counts[id])
		if !ok {
			continue
		}
		stats.CrowdsForwarded++
		budget[id] = keep
	}
	var out [][]byte
	for _, rec := range shuffled {
		s.Enclave.ReadUntrusted(len(rec))
		id, inner, ok := peeled(rec)
		if ok && budget[id] > 0 {
			budget[id]--
			out = append(out, inner)
			s.Enclave.WriteUntrusted(len(inner))
		}
	}
	stats.Forwarded = len(out)
	return out, stats, nil
}

// epochSeed seeds one oblivious shuffle: zero (crypto-seeded) for an
// unseeded shuffler, else a fresh draw from the stage's stream, so a seeded
// shuffler is reproducible without applying one permutation to every epoch
// of a size.
func (s *SGXShuffler) epochSeed() uint64 {
	if s.Seed == 0 {
		return 0
	}
	return s.Rand.Uint64() | 1
}

// cryptoReader returns the process CSPRNG; isolated for symmetry with the
// enclave's internal entropy source.
func cryptoReader() io.Reader { return crand.Reader }
