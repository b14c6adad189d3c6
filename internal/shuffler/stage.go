package shuffler

import (
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand/v2"
	"sync"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
)

// Stage is the common face of every party past the encoder: one hop of an
// ESA chain that consumes an epoch batch and emits the batch for the next hop.
// The plain Shuffler and the SGXShuffler consume client envelopes and emit
// peeled payloads for the analyzer; Shuffler1 consumes blinded envelopes and
// emits blinded envelopes for Shuffler2; Shuffler2 consumes blinded
// envelopes and emits peeled payloads; and the analyzer's Sink consumes
// peeled payloads and emits nothing. Because every variant speaks
// core.Batch, the same epoch engine (internal/transport) and the same
// in-process pipeline driver can run any of them, and a chain topology is
// just stages wired output-to-input — in one process or across daemons.
//
// A stage's work comes in two parts. Admit is what each report needs alone
// — at Shuffler1, the blinding of C2 and the check of C1 — and runs on every
// batch as it arrives, before an epoch is cut; ProcessEpoch is what needs
// the whole epoch — grouping, thresholding, shuffling — and runs on the cut.
// Every epoch a stage processes is made of batches it admitted, each once:
// the epoch engine admits a batch when it keeps it (and what it recovers
// from its log when it restarts), prochlo.Pipeline's first stage admits each
// submitted batch before SubmitBatch returns, and a driver handed a whole
// epoch at once — a later in-process stage, the paper's timing table —
// admits it just before it processes it (RunEpoch).
//
// A stage does only that work. Kinds and Floor state its contract, and the
// drivers enforce it before any work: the epoch engine refuses a batch of
// another kind at ingest and in WAL recovery and never processes an epoch
// below the floor, RunEpoch refuses both, and prochlo.Pipeline, which
// encodes its own batches in its first stage's kind, refuses a below-floor
// epoch before it processes it. Admit and ProcessEpoch check neither.
type Stage interface {
	// Admit does the per-report work of one arriving batch of the kind the
	// stage consumes and returns the batch to keep for the epoch; the input
	// is not modified. A report the work finds malformed stays in the batch,
	// marked for ProcessEpoch to drop and count. At every stage but
	// Shuffler1 (the blinding) and the Sink (the decryption) it returns its
	// input.
	Admit(in core.Batch) core.Batch
	// ProcessEpoch consumes one cut epoch of admitted batches, at least
	// Floor items of the kind the stage consumes, and returns the batch to
	// forward to the next hop, plus the selectivity stats the stage's host is
	// allowed to observe.
	ProcessEpoch(in core.Batch) (out core.Batch, stats Stats, err error)
	// Kinds declares the batch kind ProcessEpoch consumes and the kind it
	// emits — core.KindEmpty at the Sink, which emits nothing. It is the one
	// statement of a role's place in a chain: what an epoch engine around the
	// stage admits, and whether its output goes to another stage, to the
	// analyzer or nowhere, all follow from it.
	Kinds() (consumes, emits core.BatchKind)
	// Floor is the stage's anonymity floor: the minimum number of items an
	// epoch must hold before the stage may process it. The epoch engine cuts
	// no smaller epoch, and drops a recovered one that is smaller.
	Floor() int
	// PublicKeys names the public keys the stage serves to clients: the
	// hybrid key its reports are sealed to and the El Gamal point of the
	// crowd-ID encryption — at shuffler2 the key crowd IDs are encrypted to,
	// at shuffler1 its public blinding key A = αG, the base clients compute
	// C1 on, with a proof that it knows α (elgamal.ProvenKey). Shuffler1
	// serves no hybrid key (nil): it decrypts nothing. The proof keeps the
	// rule that no single hop both sees traffic metadata and decrypts: a hop 1
	// that served a point whose log it does not know, such as a multiple of
	// shuffler2's key, could unmask C2 and read the crowd IDs.
	PublicKeys() (blinding, key []byte)
}

// Secrets is the key material a tier's replicas share (cmd/prochlod keeps it
// in one -key-file): the hybrid key the tier decrypts with and an El Gamal
// pair — shuffler2's crowd-ID key, or shuffler1's blinding exponent α with
// the public A = αG it serves, which every hop-1 replica must share and
// shuffler2 must not hold.
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

// NewStage builds the stage a role runs — "shuffler", "shuffler1",
// "shuffler2" or "analyzer" — from its tier's secrets and the deployment's
// parameters. It is the one place the rules of a role live: every shuffler
// stage draws StageRand(p.Seed, role), so a seeded replica, daemon or
// in-process pipeline reproduces the same draws; shuffler1 blinds with its
// tier's α, sec.Blinding.X, serves A = sec.Blinding.H with its proof of α as
// the base clients encrypt on, and holds no decryption key; shuffler2's floor
// is 1, because the chain's entry hop enforces the anonymity floor and hop 2
// must accept whatever hop 1 forwards (malformed drops can shrink an epoch);
// and the analyzer is a Sink on sec.Priv, which draws nothing. The SGX
// shuffler, which makes and attests its own key, is NewSGXShuffler.
func NewStage(role string, sec Secrets, p Params) (Stage, error) {
	if role == "analyzer" {
		if sec.Priv == nil {
			return nil, fmt.Errorf("shuffler: the analyzer needs its hybrid key")
		}
		return &Sink{an: &analyzer.Analyzer{Priv: sec.Priv, Workers: p.Workers}, counts: make(map[string]int)}, nil
	}
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
		return &Shuffler1{Alpha: sec.Blinding.X, Rand: rng, MinBatch: p.MinBatch, Workers: p.Workers,
			provenKey: sec.Blinding.ProvenKey()}, nil
	case "shuffler2":
		return &Shuffler2{Blinding: sec.Blinding, Priv: sec.Priv, Threshold: p.Threshold, Rand: rng, MinBatch: 1, Workers: p.Workers}, nil
	}
	return nil, fmt.Errorf("shuffler: no role %q (want shuffler, shuffler1, shuffler2 or analyzer)", role)
}

// RunEpoch admits in and processes it as one epoch: what a driver handed a
// whole epoch at once (prochlo.Pipeline.Flush past its first stage, the
// paper's timing table) does where a daemon's epoch engine, and the
// pipeline's first stage, admit each batch as it arrives. Like
// the engine, it enforces the stage's contract before any work, so a refusal
// draws nothing from the stage's RNG: a batch of a kind the stage does not
// consume fails, naming both kinds, and an epoch below the stage's Floor
// fails with ErrBatchTooSmall.
func RunEpoch(st Stage, in core.Batch) (core.Batch, Stats, error) {
	if want, _ := st.Kinds(); in.Kind() != want && in.Kind() != core.KindEmpty {
		return core.Batch{}, Stats{}, fmt.Errorf("shuffler: stage consumes %v, got %v", want, in.Kind())
	}
	if n, floor := in.Len(), st.Floor(); n < floor {
		return core.Batch{}, Stats{}, fmt.Errorf("%w: %d < %d", ErrBatchTooSmall, n, floor)
	}
	return st.ProcessEpoch(st.Admit(in))
}

// floorOf is a stage's anonymity floor: its MinBatch, or DefaultMinBatch
// when unset.
func floorOf(minBatch int) int {
	if minBatch > 0 {
		return minBatch
	}
	return DefaultMinBatch
}

// Admit implements Stage: the plain shuffler does all its work on the cut
// epoch.
func (s *Shuffler) Admit(in core.Batch) core.Batch { return in }

// Kinds implements Stage.
func (s *Shuffler) Kinds() (consumes, emits core.BatchKind) {
	return core.KindEnvelopes, core.KindPayloads
}

// Floor implements Stage.
func (s *Shuffler) Floor() int { return floorOf(s.MinBatch) }

// PublicKeys implements Stage.
func (s *Shuffler) PublicKeys() (blinding, key []byte) { return nil, s.Priv.Public().Bytes() }

// Admit implements Stage: the SGX shuffler does all its work on the cut
// epoch, inside the enclave.
func (s *SGXShuffler) Admit(in core.Batch) core.Batch { return in }

// Kinds implements Stage.
func (s *SGXShuffler) Kinds() (consumes, emits core.BatchKind) {
	return core.KindEnvelopes, core.KindPayloads
}

// Floor implements Stage.
func (s *SGXShuffler) Floor() int { return floorOf(s.MinBatch) }

// PublicKeys implements Stage.
func (s *SGXShuffler) PublicKeys() (blinding, key []byte) { return nil, s.priv.Public().Bytes() }

// ProcessEpoch implements Stage: admitted blinded envelopes in, shuffled
// envelopes out, bound for Shuffler 2. The records Admit marked malformed
// (a nil C2) are dropped and counted undecryptable; Shuffler 1 sees neither
// crowd IDs nor data, so its stats report only arrival and forwarding
// counts. The input is not modified.
func (s *Shuffler1) ProcessEpoch(in core.Batch) (core.Batch, Stats, error) {
	out := s.shuffle(in.Blinded)
	stats := Stats{
		Received:      len(in.Blinded),
		Undecryptable: len(in.Blinded) - len(out),
		Forwarded:     len(out),
	}
	return core.Batch{Blinded: out}, stats, nil
}

// Kinds implements Stage.
func (s *Shuffler1) Kinds() (consumes, emits core.BatchKind) {
	return core.KindBlinded, core.KindBlinded
}

// Floor implements Stage.
func (s *Shuffler1) Floor() int { return floorOf(s.MinBatch) }

// PublicKeys implements Stage: the public blinding key A = αG with its proof
// of α (elgamal.ProvenKey), and no hybrid key. A Shuffler1 that NewStage did
// not build serves neither.
func (s *Shuffler1) PublicKeys() (blinding, key []byte) { return s.provenKey, nil }

// Admit implements Stage: Shuffler 2 does all its work on the cut epoch.
func (s *Shuffler2) Admit(in core.Batch) core.Batch { return in }

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

// Sink is the analyzer (§3.4) as a stage: the last party of a chain, which
// consumes the peeled payloads a thresholding hop forwards and emits
// nothing. Admit opens each arriving batch — the per-record decryption — and
// ProcessEpoch folds the opened records into the running histogram, so the
// sink keeps counts, not records. NewStage("analyzer", …) builds it.
type Sink struct {
	an *analyzer.Analyzer

	mu            sync.Mutex // guards the histogram: ProcessEpoch writes, Histogram reads
	counts        map[string]int
	undecryptable int
}

// Admit implements Stage: it opens every record, positionally — a record that
// does not open stays in the batch as nil, for ProcessEpoch to count.
func (s *Sink) Admit(in core.Batch) core.Batch {
	pts, _ := s.an.OpenBatch(in.Payloads)
	return core.Batch{Payloads: pts}
}

// ProcessEpoch implements Stage: it folds an epoch of admitted (opened)
// records into the histogram and emits nothing. Received counts the records,
// Undecryptable the ones that did not open, Forwarded the ones counted.
func (s *Sink) ProcessEpoch(in core.Batch) (core.Batch, Stats, error) {
	db := make([][]byte, 0, len(in.Payloads))
	for _, pt := range in.Payloads {
		if pt != nil {
			db = append(db, pt)
		}
	}
	undec := len(in.Payloads) - len(db)
	h := analyzer.Histogram(db) // interned outside the lock
	s.mu.Lock()
	for k, n := range h {
		s.counts[k] += n
	}
	s.undecryptable += undec
	s.mu.Unlock()
	return core.Batch{}, Stats{Received: len(in.Payloads), Undecryptable: undec, Forwarded: len(db)}, nil
}

// Kinds implements Stage: payloads in, nothing out.
func (s *Sink) Kinds() (consumes, emits core.BatchKind) {
	return core.KindPayloads, core.KindEmpty
}

// Floor implements Stage: the entry hop enforced the anonymity floor.
func (s *Sink) Floor() int { return 1 }

// PublicKeys implements Stage: the hybrid key the records' inner layer is
// sealed to.
func (s *Sink) PublicKeys() (blinding, key []byte) { return nil, s.an.Priv.Public().Bytes() }

// Histogram returns a copy of the histogram of every record folded so far
// and the number of records that did not open.
func (s *Sink) Histogram() (counts map[string]int, undecryptable int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.counts), s.undecryptable
}

// StageRand derives the batch RNG for the named stage of a deployment. For
// seed != 0 the stream is deterministic and independent per stage name, so a
// networked chain — where each daemon owns exactly one stage and one RNG —
// reproduces the in-process pipeline exactly: prochlo.WithSeed gives each
// in-process stage StageRand(seed, name), and a daemon started with the same
// seed and role name draws the identical sequence. (A single shared RNG
// would not survive the split: stage B's draws would depend on how many
// draws stage A consumed in the same process.) Stage names in use:
// "shuffler" (plain and SGX), "shuffler1", "shuffler2" (the analyzer draws
// nothing).
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
