// Package oblivious implements the oblivious-shuffling algorithms of
// Prochlo §4.1: the paper's Stash Shuffle (§4.1.4) and the prior-work
// baselines it is evaluated against in §4.1.3 — Batcher's sorting network,
// Leighton's ColumnSort, the Melbourne Shuffle, and cascade-mix networks —
// together with the analytic cost models that reproduce Table 1 and the
// §4.1.3 overhead comparison.
//
// All algorithms run against a simulated SGX enclave (package sgx): private
// buffers are charged to the enclave's memory budget, and every byte moved
// across the enclave boundary is metered. An observer of a real deployment
// sees only the sequence of fixed-size encrypted reads and writes; here that
// property is reflected by all intermediate records having identical size
// and fresh encryption, with dummy and real items following identical code
// paths.
//
// Concurrency: StashShuffle has a Workers knob (0 selects GOMAXPROCS, 1 the
// serial reference path) that parallelizes the distribution phase's per-item
// crypto across input buckets while keeping Seed != 0 runs byte-identical at
// every worker count; see the StashShuffle.Workers documentation.
package oblivious

import (
	"crypto/aes"
	"crypto/cipher"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"

	"prochlo/internal/sgx"
)

// Codec peels and applies the transport encryption of shuffled records. In
// the ESA pipeline the input records are doubly encrypted: Open removes the
// outer (shuffler) layer — a public-key operation — and Seal is the identity,
// because the output of the shuffle is the inner ciphertext destined for the
// analyzer (§4.1.4: "the output consists of the inner encrypted data item
// only").
type Codec interface {
	// Open decodes one input record into its payload.
	Open(ct []byte) ([]byte, error)
	// Seal encodes one payload into an output record.
	Seal(pt []byte) ([]byte, error)
	// PlainSize returns the payload size for a given input-record size.
	PlainSize(recordSize int) int
	// SealedSize returns the output-record size for a given payload size.
	SealedSize(plainSize int) int
}

// Passthrough is the identity Codec, used when shuffling already-uniform
// opaque records.
type Passthrough struct{}

// Open returns the record unchanged.
func (Passthrough) Open(ct []byte) ([]byte, error) { return ct, nil }

// Seal returns the payload unchanged.
func (Passthrough) Seal(pt []byte) ([]byte, error) { return pt, nil }

// PlainSize returns n.
func (Passthrough) PlainSize(n int) int { return n }

// SealedSize returns n.
func (Passthrough) SealedSize(n int) int { return n }

// Shuffler is an oblivious shuffle algorithm.
type Shuffler interface {
	// Name identifies the algorithm in benchmark output.
	Name() string
	// Shuffle obliviously permutes the input records, returning the
	// re-encoded records in their shuffled order.
	Shuffle(in [][]byte) ([][]byte, error)
}

// Errors shared by the algorithms. A shuffle attempt that fails with one of
// these is retried with fresh randomness; per §4.1.4 failed attempts leak no
// information because intermediate items are encrypted under an ephemeral
// key that is discarded.
var (
	ErrStashOverflow    = errors.New("oblivious: stash overflow")
	ErrStashResidue     = errors.New("oblivious: stash not empty after distribution")
	ErrQueueOverflow    = errors.New("oblivious: compression queue overflow")
	ErrQueueUnderflow   = errors.New("oblivious: compression queue underflow")
	ErrTooManyItems     = errors.New("oblivious: problem size exceeds algorithm limit")
	ErrRetriesExhausted = errors.New("oblivious: all shuffle attempts failed")
)

// validateUniform checks that all records have the same, nonzero size and
// returns it.
func validateUniform(in [][]byte) (int, error) {
	if len(in) == 0 {
		return 0, errors.New("oblivious: empty input")
	}
	size := len(in[0])
	if size == 0 {
		return 0, errors.New("oblivious: zero-size records")
	}
	for i, r := range in {
		if len(r) != size {
			return 0, fmt.Errorf("oblivious: record %d has size %d, want %d", i, len(r), size)
		}
	}
	return size, nil
}

// sealer performs the ephemeral symmetric re-encryption of intermediate
// items with deterministic counter nonces; the key is fresh per attempt and
// never leaves the enclave, so counter nonces are safe and avoid an entropy
// syscall per record.
type sealer struct {
	gcm cipher.AEAD
	ctr uint64
}

// newSealer creates a sealer with a fresh ephemeral AES-128 key.
func newSealer() (*sealer, error) {
	var key [16]byte
	if _, err := io.ReadFull(crand.Reader, key[:]); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &sealer{gcm: gcm}, nil
}

// sealedOverhead is the expansion of one intermediate encryption.
const sealedOverhead = 12 + 16

func (s *sealer) seal(pt []byte) []byte {
	n := s.ctr
	s.ctr++
	return s.sealAt(pt, n)
}

// sealAt encrypts with an explicit nonce counter. Callers own nonce
// uniqueness (the Stash Shuffle's distribution workers use the intermediate
// slot index, which is unique per attempt); unlike seal it has no mutable
// state, so it is safe for concurrent use by a worker pool.
func (s *sealer) sealAt(pt []byte, nonceCtr uint64) []byte {
	var nonce [12]byte
	binary.BigEndian.PutUint64(nonce[4:], nonceCtr)
	out := make([]byte, 0, len(nonce)+len(pt)+16)
	out = append(out, nonce[:]...)
	return s.gcm.Seal(out, nonce[:], pt, nil)
}

func (s *sealer) open(ct []byte) ([]byte, error) {
	if len(ct) < 12+16 {
		return nil, errors.New("oblivious: truncated intermediate record")
	}
	return s.gcm.Open(nil, ct[:12], ct[12:], nil)
}

// newRand returns the ChaCha8 stream a shuffle draws its permutation from:
// keyed by SHA-256 over a domain string and the seed if seed != 0
// (reproducible tests), by 32 bytes from crypto/rand otherwise.
func newRand(seed uint64) *rand.Rand {
	var key [32]byte
	if seed != 0 {
		key = sha256.Sum256(binary.LittleEndian.AppendUint64([]byte("prochlo-oblivious-rng:"), seed))
	} else if _, err := io.ReadFull(crand.Reader, key[:]); err != nil {
		panic("oblivious: no entropy: " + err.Error())
	}
	return rand.New(rand.NewChaCha8(key))
}

// meteredCodec wraps a Codec so that every Open/Seal is charged to the
// enclave's cryptographic-operation counters.
type meteredCodec struct {
	c Codec
	e *sgx.Enclave
}

func (m meteredCodec) Open(ct []byte) ([]byte, error) {
	m.e.CountOpen()
	return m.c.Open(ct)
}

func (m meteredCodec) Seal(pt []byte) ([]byte, error) {
	m.e.CountSeal()
	return m.c.Seal(pt)
}

func (m meteredCodec) PlainSize(n int) int  { return m.c.PlainSize(n) }
func (m meteredCodec) SealedSize(n int) int { return m.c.SealedSize(n) }
