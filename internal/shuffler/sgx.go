package shuffler

import (
	crand "crypto/rand"
	"errors"
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
type SGXShuffler struct {
	Enclave   *sgx.Enclave
	Threshold Threshold
	Rand      *rand.Rand
	Seed      uint64 // deterministic stash shuffling for tests
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
// Clients must verify the quote against the CA key and
// SGXShufflerMeasurement before encrypting to the key; keys are ephemeral
// per §4.1.1 ("the shuffler must create a new key pair every time it
// restarts"). Like NewStage's "shuffler", it draws StageRand(p.Seed,
// "shuffler"); p.Seed also seeds the Stash Shuffle.
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
// dominant cost) and passes payloads through on output.
type outerPeelCodec struct {
	priv    *hybrid.PrivateKey
	enclave *sgx.Enclave
	pSize   int
}

func (c outerPeelCodec) Open(ct []byte) ([]byte, error) {
	c.enclave.CountPubKey()
	return c.priv.Open(ct, nil)
}

func (c outerPeelCodec) Seal(pt []byte) ([]byte, error) { return pt, nil }

func (c outerPeelCodec) PlainSize(recordSize int) int { return recordSize - hybrid.Overhead }

func (c outerPeelCodec) SealedSize(plainSize int) int { return plainSize }

// ErrNonUniformBatch is returned when envelopes differ in size; oblivious
// shuffling requires uniform records, so encoders must pad data to a fixed
// report size.
var ErrNonUniformBatch = errors.New("shuffler: batch records are not uniform size")

// Process obliviously shuffles the batch, thresholds crowds with private
// counters, and returns the surviving inner ciphertexts in shuffled order.
func (s *SGXShuffler) Process(batch []core.Envelope) ([][]byte, Stats, error) {
	stats := Stats{Received: len(batch)}
	if len(batch) == 0 {
		return nil, stats, fmt.Errorf("%w: empty", ErrBatchTooSmall)
	}
	blobs := make([][]byte, len(batch))
	size := len(batch[0].Blob)
	for i := range batch {
		batch[i].StripMetadata()
		if len(batch[i].Blob) != size {
			return nil, stats, ErrNonUniformBatch
		}
		blobs[i] = batch[i].Blob
	}

	// Oblivious shuffle; output records are crowdID || inner.
	codec := outerPeelCodec{priv: s.priv, enclave: s.Enclave}
	st := oblivious.NewStashShuffle(s.Enclave, codec, len(blobs))
	st.Seed = s.Seed
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
		var id core.CrowdID
		copy(id[:], rec[:core.CrowdIDSize])
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
		var id core.CrowdID
		copy(id[:], rec[:core.CrowdIDSize])
		if budget[id] > 0 {
			budget[id]--
			inner := rec[core.CrowdIDSize:]
			out = append(out, inner)
			s.Enclave.WriteUntrusted(len(inner))
		}
	}
	stats.Forwarded = len(out)
	return out, stats, nil
}

// cryptoReader returns the process CSPRNG; isolated for symmetry with the
// enclave's internal entropy source.
func cryptoReader() io.Reader { return crand.Reader }
