// Package prochlo is a from-scratch Go implementation of the
// Encode-Shuffle-Analyze (ESA) architecture and its PROCHLO hardening
// (Bittau et al., SOSP 2017): privacy-preserving software monitoring in
// which client reports are nested-encrypted, anonymized and thresholded by a
// shuffler intermediary, and analyzed only in aggregate.
//
// The Pipeline type wires the three stages in-process for experimentation
// and testing; the internal packages implement each stage (and the Stash
// Shuffle, secret sharing, and blinded crowd IDs). For the paper's actual
// deployment shape — long-lived parties serving continuous traffic —
// cmd/prochlod runs the shuffler and analyzer as streaming daemons
// (epoch-driven auto-flush, batched RPC, backpressure), and RemotePipeline
// is the client-side handle that speaks to them; a seeded daemon deployment
// produces output byte-identical to the in-process pipeline.
//
// Basic use:
//
//	p, err := prochlo.New(prochlo.WithNoisyThreshold(20, 10, 2))
//	...
//	for _, w := range words {
//		p.Submit("crowd:"+w, []byte(w))
//	}
//	res, err := p.Flush()
//	// res.Histogram now holds only values from large-enough crowds.
//
// All public-key cryptography — the nested envelopes and, in ModeBlinded, the
// El Gamal crowd-ID blinding — runs over one group, ristretto255. It is a
// constant of the build (internal/crypto/group), not an option: keys, daemons
// and clients cannot disagree about it, and the key parsers the dial
// functions use decode ristretto255 alone, so key material a daemon serves on
// any other group fails to parse.
//
// Submit is the single-report reference path. At scale, hand whole batches
// to SubmitBatch instead: it encodes on a worker pool (WithWorkers; the
// default uses every core), as do the shuffler and analyzer stages, so the
// pipeline is parallel end to end. SubmitBatch also has the first stage
// admit the batch before it returns (in ModeBlinded, shuffler 1 blinds it
// there), so Flush runs only the work that needs the whole epoch; Submit's
// single reports wait and are admitted with the next batch or at Flush.
// Batch and serial submission produce identically distributed output, and a
// seeded pipeline's results are byte-identical at every worker count.
package prochlo

import (
	crand "crypto/rand"
	"errors"
	"fmt"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/parallel"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
)

// Mode selects the shuffler deployment.
type Mode int

const (
	// ModePlain uses a single trusted-third-party shuffler (the §5 case
	// studies' configuration).
	ModePlain Mode = iota
	// ModeSGX hosts the shuffler in a simulated SGX enclave: its key is
	// attested and verified, and batches are shuffled with the oblivious
	// Stash Shuffle (§4.1).
	ModeSGX
	// ModeBlinded splits the shuffler in two, thresholding on blinded
	// crowd IDs so neither shuffler sees them in the clear (§4.3).
	ModeBlinded
)

// Pipeline is an in-process ESA deployment: its Submit method plays the
// role of a fleet of clients, and Flush drives the accumulated epoch
// through the shuffler stage chain and the analyzer. Every mode is the same
// machinery — New wires the mode's stages ([shuffler], [sgx shuffler], or
// [shuffler1, shuffler2]) and Flush runs them output-to-input through the
// shared shuffler.Stage interface, exactly as the networked daemons do. Like
// a daemon's epoch engine, the first stage admits each batch as it arrives
// (SubmitBatch), so Flush runs only the work that needs the whole epoch.
type Pipeline struct {
	mode      Mode
	threshold shuffler.Threshold
	secretT   int
	minBatch  int
	seed      uint64
	workers   int

	// stages is the shuffler chain Flush drives, in hop order.
	stages []shuffler.Stage

	analyzerPriv *hybrid.PrivateKey
	an           *analyzer.Analyzer

	// The epoch awaiting a Flush, of the kind the mode's first stage
	// consumes: admitted holds what that stage has admitted, in submission
	// order; waiting holds Submit's single reports, which wait to be
	// admitted with the next SubmitBatch or at Flush.
	admitted, waiting core.Batch

	// The mode's encoder: client in ModePlain and ModeSGX (whose attested
	// key is quote), blindedClient in ModeBlinded.
	client        *encoder.Client
	quote         sgx.Quote
	blindedClient *encoder.BlindedClient
}

// Option configures a Pipeline.
type Option func(*Pipeline) error

// WithNoisyThreshold enables the §3.5 randomized thresholding: the shuffler
// drops d ~ round(N(d0, sigma²)) reports from each crowd and forwards crowds
// whose remaining cardinality is at least t. The paper's experiments use
// (20, 10, 2), which provides (2.25, 1e-6)-DP for the crowd-ID multiset.
func WithNoisyThreshold(t int, d0, sigma float64) Option {
	return func(p *Pipeline) error {
		p.threshold = shuffler.Threshold{Noise: dp.ThresholdNoise{T: t, D: d0, Sigma: sigma}}
		return nil
	}
}

// WithNaiveThreshold enables plain cardinality thresholding (no noise); the
// paper warns this inherits k-anonymity's composition pitfalls.
func WithNaiveThreshold(t int) Option {
	return func(p *Pipeline) error {
		p.threshold = shuffler.Threshold{Naive: t}
		return nil
	}
}

// WithoutThreshold disables crowd thresholding (the Vocab "NoCrowd"
// configuration: maximum utility, no crowd-ID differential privacy).
func WithoutThreshold() Option {
	return func(p *Pipeline) error {
		p.threshold = shuffler.Threshold{}
		return nil
	}
}

// WithSecretShare makes Submit encode values with the §4.2 t-out-of-n
// secret-share encoder, so the analyzer can decrypt only values reported by
// at least t clients; Flush recovers them into Result.Recovered.
func WithSecretShare(t int) Option {
	return func(p *Pipeline) error {
		if t < 1 {
			return errors.New("prochlo: secret-share threshold must be >= 1")
		}
		p.secretT = t
		return nil
	}
}

// WithMode selects the shuffler deployment.
func WithMode(m Mode) Option {
	return func(p *Pipeline) error {
		p.mode = m
		return nil
	}
}

// WithMinBatch sets the shuffler's minimum batch size.
func WithMinBatch(n int) Option {
	return func(p *Pipeline) error {
		p.minBatch = n
		return nil
	}
}

// WithSeed makes all pipeline randomness (thresholding noise, shuffling)
// deterministic for reproducible experiments. Each stage draws from an
// independent per-stage stream derived from the seed (shuffler.StageRand),
// so a networked deployment of the same stages under the same seed — one
// daemon per stage, as cmd/prochlod runs them — reproduces the in-process
// pipeline exactly. Cryptographic keys remain properly random.
func WithSeed(seed uint64) Option {
	return func(p *Pipeline) error {
		p.seed = seed
		return nil
	}
}

// WithWorkers sets the pipeline-wide worker count: n <= 0 selects
// GOMAXPROCS, 1 forces the serial reference path. Workers parallelize the
// per-report public-key hot path of every stage — batch encoding
// (SubmitBatch), outer-layer decryption, crowd-ID blinding and pseudonym
// recovery, the Stash Shuffle distribution phase, and the analyzer's
// inner-layer decryption — without changing results: a seeded pipeline
// produces identical output at every worker count.
func WithWorkers(n int) Option {
	return func(p *Pipeline) error {
		p.workers = n
		return nil
	}
}

// New builds a pipeline: it generates stage keys and, in ModeSGX, performs
// the §4.1.1 attestation handshake — the "client" refuses to encode if the
// shuffler's quote does not verify.
func New(opts ...Option) (*Pipeline, error) {
	p := &Pipeline{
		threshold: shuffler.Threshold{Noise: dp.PaperThresholdNoise},
		minBatch:  shuffler.DefaultMinBatch,
	}
	for _, o := range opts {
		if err := o(p); err != nil {
			return nil, err
		}
	}
	var err error
	p.analyzerPriv, err = hybrid.GenerateKey(crand.Reader)
	if err != nil {
		return nil, err
	}
	p.an = &analyzer.Analyzer{Priv: p.analyzerPriv, Workers: p.workers}

	// sec is the secrets of the tier clients encrypt to: the plain shuffler's
	// key, or shuffler2's keys in the split chain (shuffler1 blinds with a
	// tier of its own; the SGX shuffler makes its key in the enclave).
	sec, err := shuffler.GenerateSecrets()
	if err != nil {
		return nil, err
	}
	params := shuffler.Params{Threshold: p.threshold, Seed: p.seed, MinBatch: p.minBatch, Workers: p.workers}
	switch p.mode {
	case ModePlain:
		st, err := shuffler.NewStage("shuffler", sec, params)
		if err != nil {
			return nil, err
		}
		p.stages = []shuffler.Stage{st}
		p.client = &encoder.Client{
			ShufflerKey: sec.Priv.Public(),
			AnalyzerKey: p.analyzerPriv.Public(),
			Rand:        crand.Reader,
		}
	case ModeSGX:
		ca, err := sgx.NewCA()
		if err != nil {
			return nil, err
		}
		sh, err := shuffler.NewSGXShuffler(ca, params)
		if err != nil {
			return nil, err
		}
		p.stages, p.quote = []shuffler.Stage{sh}, sh.Quote()
		// Client-side verification before trusting the key (§4.1.1).
		if err := sgx.VerifyQuote(ca.PublicKey(), p.quote, shuffler.SGXShufflerMeasurement); err != nil {
			return nil, fmt.Errorf("prochlo: shuffler attestation failed: %w", err)
		}
		attested, err := hybrid.ParsePublicKey(p.quote.ReportData)
		if err != nil {
			return nil, fmt.Errorf("prochlo: attested key: %w", err)
		}
		p.client = &encoder.Client{
			ShufflerKey: attested,
			AnalyzerKey: p.analyzerPriv.Public(),
			Rand:        crand.Reader,
		}
	case ModeBlinded:
		// Were hop 1's α shuffler2's El Gamal secret, hop 2 could
		// dictionary-attack crowd IDs.
		s1Sec, err := shuffler.GenerateSecrets()
		if err != nil {
			return nil, err
		}
		for i, role := range []string{"shuffler1", "shuffler2"} {
			st, err := shuffler.NewStage(role, []shuffler.Secrets{s1Sec, sec}[i], params)
			if err != nil {
				return nil, err
			}
			p.stages = append(p.stages, st)
		}
		// Clients compute C1 on hop 1's public blinding key A = αG, so
		// that hop 1 blinds C2 alone.
		p.blindedClient = &encoder.BlindedClient{
			Shuffler1Blinding: s1Sec.Blinding.H,
			Shuffler2Blinding: sec.Blinding.H,
			Shuffler2Key:      sec.Priv.Public(),
			AnalyzerKey:       p.analyzerPriv.Public(),
			Rand:              crand.Reader,
		}
	default:
		return nil, fmt.Errorf("prochlo: unknown mode %d", p.mode)
	}
	return p, nil
}

// Quote returns the SGX attestation quote of the shuffler key (ModeSGX).
func (p *Pipeline) Quote() sgx.Quote { return p.quote }

// PrivacyGuarantee returns the (eps, delta) differential-privacy guarantee
// the shuffler's randomized thresholding provides for the crowd-ID multiset,
// at the given delta. It returns an error when thresholding is disabled or
// naive (no DP guarantee).
func (p *Pipeline) PrivacyGuarantee(delta float64) (eps float64, err error) {
	if p.threshold.Noise.Sigma <= 0 {
		return 0, errors.New("prochlo: no randomized thresholding, no DP guarantee")
	}
	return p.threshold.Noise.Privacy(delta)
}

// Submit encodes one client's report into the pending epoch. It is not
// admitted yet: a one-report batch would run the batch kernels a point at a
// time, so it waits for the next SubmitBatch or Flush.
func (p *Pipeline) Submit(crowdLabel string, data []byte) error {
	if p.secretT > 0 {
		var err error
		data, err = encoder.SecretShareData(crand.Reader, p.secretT, data)
		if err != nil {
			return err
		}
	}
	if p.mode == ModeBlinded {
		env, err := p.blindedClient.Encode(crowdLabel, data)
		if err != nil {
			return err
		}
		return p.wait(core.Batch{Blinded: []core.BlindedEnvelope{env}})
	}
	env, err := p.client.Encode(core.Report{CrowdID: core.HashCrowdID(crowdLabel), Data: data})
	if err != nil {
		return err
	}
	return p.wait(core.Batch{Envelopes: []core.Envelope{env}})
}

// wait adds freshly encoded envelopes to the reports awaiting admission.
func (p *Pipeline) wait(batch core.Batch) (err error) {
	p.waiting, err = p.waiting.Append(batch)
	return err
}

// admit has the first stage admit every waiting report as one batch and
// appends what it keeps to the admitted epoch.
func (p *Pipeline) admit() error {
	if p.waiting.Len() == 0 {
		return nil
	}
	admitted, err := p.admitted.Append(p.stages[0].Admit(p.waiting))
	if err != nil {
		return err
	}
	p.admitted, p.waiting = admitted, core.Batch{}
	return nil
}

// encodeBatch is the SubmitBatch encode path Pipeline and RemotePipeline
// share: it checks the batch's shape and encodes report i (labels[i],
// data[i]) on the worker pool with whichever client the mode wired — benc
// in ModeBlinded, enc otherwise — returning the envelopes as the wire batch
// the first stage ingests.
func encodeBatch(enc *encoder.Client, benc *encoder.BlindedClient, labels []string, data [][]byte, workers int) (core.Batch, error) {
	if len(labels) != len(data) {
		return core.Batch{}, fmt.Errorf("prochlo: %d labels for %d data payloads", len(labels), len(data))
	}
	if len(labels) == 0 {
		return core.Batch{}, nil
	}
	if benc != nil {
		envs, err := benc.EncodeBatch(labels, data, workers)
		return core.Batch{Blinded: envs}, err
	}
	reports := make([]core.Report, len(labels))
	for i := range reports {
		reports[i] = core.Report{CrowdID: core.HashCrowdID(labels[i]), Data: data[i]}
	}
	envs, err := enc.EncodeBatch(reports, workers)
	return core.Batch{Envelopes: envs}, err
}

// SubmitBatch encodes a batch of client reports — labels[i] is report i's
// crowd label, data[i] its payload — into the pending epoch, and has the
// first stage admit it, together with any reports Submit left waiting,
// before it returns: the per-report stage work (shuffler 1's blinding) runs
// as the batch arrives, as a daemon's does before its ack, not in Flush. A
// lone report waits, as Submit's do. SubmitBatch is equivalent to calling
// Submit per report but runs the per-report public-key encoding on the
// pipeline's worker pool (see WithWorkers), so it is the entry point for
// population-scale submission: a fleet simulator or ingestion front end
// hands over whole batches and the encode stage scales with cores instead
// of serializing two ECDH key agreements per report.
func (p *Pipeline) SubmitBatch(labels []string, data [][]byte) error {
	if p.secretT > 0 {
		shared := make([][]byte, len(data))
		errs := make([]error, len(data))
		parallel.For(parallel.Workers(p.workers), len(data), func(i int) {
			shared[i], errs[i] = encoder.SecretShareData(crand.Reader, p.secretT, data[i])
		})
		if i, err := parallel.FirstError(errs); err != nil {
			return fmt.Errorf("prochlo: report %d: %w", i, err)
		}
		data = shared
	}
	batch, err := encodeBatch(p.client, p.blindedClient, labels, data, p.workers)
	if err != nil {
		return err
	}
	if err := p.wait(batch); err != nil {
		return err
	}
	if p.waiting.Len() < 2 {
		return nil // a one-report batch waits, as Submit's reports do
	}
	return p.admit()
}

// Pending returns the number of reports awaiting a Flush, admitted or not.
func (p *Pipeline) Pending() int { return p.admitted.Len() + p.waiting.Len() }

// Result is the analyzer-side outcome of one batch.
type Result struct {
	// Histogram counts identical data payloads in the materialized
	// database (for secret-shared pipelines these are encodings, not
	// plaintexts; see Recovered).
	Histogram map[string]int
	// Recovered maps secret-shared plaintext values to their report counts
	// (only for WithSecretShare pipelines).
	Recovered map[string]int
	// ShufflerStats is the thresholding selectivity the shuffler observed.
	ShufflerStats shuffler.Stats
	// Undecryptable counts records the analyzer could not open.
	Undecryptable int
}

// Flush drives the pending epoch through the shuffler stage chain —
// each stage's output is the next stage's input, exactly as the networked
// daemons forward epochs — and the analyzer over the final stage's output,
// returning the analysis result. The first stage admits what Submit left
// waiting and processes the epoch it admitted (each report once); every
// later stage receives its epoch whole and runs it with shuffler.RunEpoch.
// Result.ShufflerStats is the last stage's (the thresholding hop's)
// selectivity, the only stage whose stats describe what reaches the
// analyzer. A pending epoch below the first stage's anonymity floor is
// refused before any work and stays pending, as a daemon's epoch does.
func (p *Pipeline) Flush() (*Result, error) {
	if n, floor := p.Pending(), p.stages[0].Floor(); n < floor {
		return nil, fmt.Errorf("%w: %d < %d", shuffler.ErrBatchTooSmall, n, floor)
	}
	if err := p.admit(); err != nil {
		return nil, err
	}
	batch, stats, err := p.stages[0].ProcessEpoch(p.admitted)
	p.admitted = core.Batch{}
	if err != nil {
		return nil, err
	}
	for _, st := range p.stages[1:] {
		batch, stats, err = shuffler.RunEpoch(st, batch)
		if err != nil {
			return nil, err
		}
	}
	db, undec := p.an.Open(batch.Payloads)
	res := &Result{
		Histogram:     analyzer.Histogram(db),
		ShufflerStats: stats,
		Undecryptable: undec,
	}
	if p.secretT > 0 {
		rec, malformed, _ := p.an.RecoverSecretShared(p.secretT, db)
		res.Undecryptable += malformed
		res.Recovered = make(map[string]int, len(rec))
		for _, r := range rec {
			res.Recovered[string(r.Value)] = r.Count
		}
	}
	return res, nil
}
