package shuffler

import (
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
)

// Stage is the common face of every shuffler variant: one hop of an ESA
// chain that consumes an epoch batch and emits the batch for the next hop.
// The plain Shuffler and the SGXShuffler consume client envelopes and emit
// peeled payloads for the analyzer; Shuffler1 consumes blinded envelopes and
// emits blinded envelopes for Shuffler2; Shuffler2 consumes blinded
// envelopes and emits peeled payloads. Because every variant speaks
// core.Batch, the same epoch engine (internal/transport) and the same
// in-process pipeline driver can run any of them, and a chain topology is
// just stages wired output-to-input — in one process or across daemons.
type Stage interface {
	// ProcessEpoch consumes one cut epoch and returns the batch to forward
	// to the next hop, plus the selectivity stats the stage's host is
	// allowed to observe. It fails if the batch kind is not the stage's
	// input kind (a miswired topology) or violates the anonymity floor.
	ProcessEpoch(in core.Batch) (out core.Batch, stats Stats, err error)
	// Kinds declares the batch kind ProcessEpoch consumes and the kind it
	// emits. It is the one statement of a role's place in a chain: what an
	// epoch engine around the stage admits, and whether its output goes to
	// another stage or to the analyzer, both follow from it.
	Kinds() (consumes, emits core.BatchKind)
	// Floor is the stage's anonymity floor: the minimum number of items an
	// epoch must hold before the stage may process it. Epoch schedulers use
	// it to refuse cutting smaller epochs.
	Floor() int
	// PublicKeys names the public keys the stage serves to clients: the
	// hybrid key its reports are sealed to and, at shuffler2, the El Gamal
	// key crowd IDs are encrypted to. Both are nil at shuffler1, which holds
	// no key — clients fetch the chain's keys from shuffler2, so no single hop
	// both sees traffic metadata and decrypts.
	PublicKeys() (blinding, key []byte)
}

// Secrets is the key material a tier's replicas share (cmd/prochlod keeps it
// in one -key-file): the hybrid key the tier decrypts with and an El Gamal
// pair — shuffler2's crowd-ID key, or shuffler1's blinding exponent α, which
// every hop-1 replica must share and shuffler2 must not hold.
type Secrets struct {
	Priv     *hybrid.PrivateKey
	Blinding *elgamal.KeyPair
}

// GenerateSecrets draws a fresh hybrid key and blinding pair.
func GenerateSecrets() (Secrets, error) {
	priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		return Secrets{}, err
	}
	blinding, err := elgamal.GenerateKeyPair(crand.Reader)
	return Secrets{Priv: priv, Blinding: blinding}, err
}

// Params is what a deployment sets for every stage it builds.
type Params struct {
	Threshold Threshold
	Seed      uint64 // batch RNG seed; 0 draws from crypto/rand (see StageRand)
	MinBatch  int    // the entry hop's anonymity floor; 0 selects DefaultMinBatch
	Workers   int    // 0 = GOMAXPROCS, 1 = serial
}

// NewStage builds the stage a role runs — "shuffler", "shuffler1" or
// "shuffler2" — from its tier's secrets and the deployment's parameters. It is
// the one place the rules of a role live: every stage draws
// StageRand(p.Seed, role), so a seeded replica, daemon or in-process pipeline
// reproduces the same draws; shuffler1 blinds with its tier's α,
// sec.Blinding.X, and holds no decryption key; and shuffler2's floor is 1,
// because the chain's entry hop enforces the anonymity floor and hop 2 must
// accept whatever hop 1 forwards (malformed drops can shrink an epoch). The
// SGX shuffler, which makes and attests its own key, is NewSGXShuffler.
func NewStage(role string, sec Secrets, p Params) (Stage, error) {
	rng, err := StageRand(p.Seed, role)
	if err != nil {
		return nil, err
	}
	switch role {
	case "shuffler":
		return &Shuffler{Priv: sec.Priv, Threshold: p.Threshold, Rand: rng, MinBatch: p.MinBatch, Workers: p.Workers}, nil
	case "shuffler1":
		if sec.Blinding == nil {
			return nil, fmt.Errorf("shuffler: shuffler1 needs its tier's blinding exponent")
		}
		return &Shuffler1{Alpha: sec.Blinding.X, Rand: rng, MinBatch: p.MinBatch, Workers: p.Workers}, nil
	case "shuffler2":
		return &Shuffler2{Blinding: sec.Blinding, Priv: sec.Priv, Threshold: p.Threshold, Rand: rng, MinBatch: 1, Workers: p.Workers}, nil
	}
	return nil, fmt.Errorf("shuffler: no role %q (want shuffler, shuffler1 or shuffler2)", role)
}

// floorOf is a stage's anonymity floor: its MinBatch, or DefaultMinBatch
// when unset.
func floorOf(minBatch int) int {
	if minBatch > 0 {
		return minBatch
	}
	return DefaultMinBatch
}

// wrongKind is the miswired-topology error: a stage was handed a batch of
// the wrong wire kind.
func wrongKind(stage string, want, got core.BatchKind) error {
	return fmt.Errorf("shuffler: %s expects %s, got %s", stage, want, got)
}

// ProcessEpoch implements Stage: envelopes in, peeled payloads out.
func (s *Shuffler) ProcessEpoch(in core.Batch) (core.Batch, Stats, error) {
	if k := in.Kind(); k != core.KindEnvelopes && k != core.KindEmpty {
		return core.Batch{}, Stats{}, wrongKind("shuffler", core.KindEnvelopes, k)
	}
	out, stats, err := s.Process(in.Envelopes)
	return core.Batch{Payloads: out}, stats, err
}

// Kinds implements Stage.
func (s *Shuffler) Kinds() (consumes, emits core.BatchKind) {
	return core.KindEnvelopes, core.KindPayloads
}

// Floor implements Stage.
func (s *Shuffler) Floor() int { return floorOf(s.MinBatch) }

// PublicKeys implements Stage.
func (s *Shuffler) PublicKeys() (blinding, key []byte) { return nil, s.Priv.Public().Bytes() }

// ProcessEpoch implements Stage: envelopes in, peeled payloads out, shuffled
// obliviously inside the enclave.
func (s *SGXShuffler) ProcessEpoch(in core.Batch) (core.Batch, Stats, error) {
	if k := in.Kind(); k != core.KindEnvelopes && k != core.KindEmpty {
		return core.Batch{}, Stats{}, wrongKind("sgx shuffler", core.KindEnvelopes, k)
	}
	if min := s.Floor(); len(in.Envelopes) < min {
		return core.Batch{}, Stats{}, fmt.Errorf("%w: %d < %d", ErrBatchTooSmall, len(in.Envelopes), min)
	}
	out, stats, err := s.Process(in.Envelopes)
	return core.Batch{Payloads: out}, stats, err
}

// Kinds implements Stage.
func (s *SGXShuffler) Kinds() (consumes, emits core.BatchKind) {
	return core.KindEnvelopes, core.KindPayloads
}

// Floor implements Stage.
func (s *SGXShuffler) Floor() int { return floorOf(s.MinBatch) }

// PublicKeys implements Stage.
func (s *SGXShuffler) PublicKeys() (blinding, key []byte) { return nil, s.priv.Public().Bytes() }

// ProcessEpoch implements Stage: blinded envelopes in, blinded-and-shuffled
// envelopes out, bound for Shuffler 2. Shuffler 1 sees neither crowd IDs nor
// data, so its stats report only arrival and forwarding counts; envelopes
// whose crowd-ID points fail to parse are dropped and counted undecryptable.
func (s *Shuffler1) ProcessEpoch(in core.Batch) (core.Batch, Stats, error) {
	if k := in.Kind(); k != core.KindBlinded && k != core.KindEmpty {
		return core.Batch{}, Stats{}, wrongKind("shuffler 1", core.KindBlinded, k)
	}
	if min := s.Floor(); len(in.Blinded) < min {
		return core.Batch{}, Stats{}, fmt.Errorf("%w: %d < %d", ErrBatchTooSmall, len(in.Blinded), min)
	}
	out, err := s.Process(in.Blinded)
	stats := Stats{
		Received:      len(in.Blinded),
		Undecryptable: len(in.Blinded) - len(out),
		Forwarded:     len(out),
	}
	return core.Batch{Blinded: out}, stats, err
}

// Kinds implements Stage.
func (s *Shuffler1) Kinds() (consumes, emits core.BatchKind) {
	return core.KindBlinded, core.KindBlinded
}

// Floor implements Stage.
func (s *Shuffler1) Floor() int { return floorOf(s.MinBatch) }

// PublicKeys implements Stage.
func (s *Shuffler1) PublicKeys() (blinding, key []byte) { return nil, nil }

// ProcessEpoch implements Stage: blinded envelopes in, peeled payloads out.
func (s *Shuffler2) ProcessEpoch(in core.Batch) (core.Batch, Stats, error) {
	if k := in.Kind(); k != core.KindBlinded && k != core.KindEmpty {
		return core.Batch{}, Stats{}, wrongKind("shuffler 2", core.KindBlinded, k)
	}
	if min := s.Floor(); len(in.Blinded) < min {
		return core.Batch{}, Stats{}, fmt.Errorf("%w: %d < %d", ErrBatchTooSmall, len(in.Blinded), min)
	}
	out, stats, err := s.Process(in.Blinded)
	return core.Batch{Payloads: out}, stats, err
}

// Kinds implements Stage.
func (s *Shuffler2) Kinds() (consumes, emits core.BatchKind) {
	return core.KindBlinded, core.KindPayloads
}

// Floor implements Stage.
func (s *Shuffler2) Floor() int { return floorOf(s.MinBatch) }

// PublicKeys implements Stage.
func (s *Shuffler2) PublicKeys() (blinding, key []byte) {
	return s.Blinding.H.Bytes(), s.Priv.Public().Bytes()
}

// StageRand derives the batch RNG for the named stage of a deployment. For
// seed != 0 the stream is deterministic and independent per stage name, so a
// networked chain — where each daemon owns exactly one stage and one RNG —
// reproduces the in-process pipeline exactly: prochlo.WithSeed gives each
// in-process stage StageRand(seed, name), and a daemon started with the same
// seed and role name draws the identical sequence. (A single shared RNG
// would not survive the split: stage B's draws would depend on how many
// draws stage A consumed in the same process.) Stage names in use:
// "shuffler" (plain and SGX), "shuffler1", "shuffler2".
//
// The stream is ChaCha8, a CSPRNG: it draws the permutation and the
// threshold noise, so its outputs must not predict the rest of it. For
// seed == 0 its key is 32 bytes from crypto/rand (production); otherwise it
// is SHA-256 over a domain string, the stage name and the seed.
func StageRand(seed uint64, stage string) (*rand.Rand, error) {
	var key [32]byte
	if seed == 0 {
		if _, err := crand.Read(key[:]); err != nil {
			return nil, err
		}
	} else {
		key = sha256.Sum256(binary.LittleEndian.AppendUint64([]byte("prochlo-stage-rng:"+stage+":"), seed))
	}
	return rand.New(rand.NewChaCha8(key)), nil
}
