// Package prochlo is a from-scratch Go implementation of the
// Encode-Shuffle-Analyze (ESA) architecture and its PROCHLO hardening
// (Bittau et al., SOSP 2017): privacy-preserving software monitoring in
// which client reports are nested-encrypted, anonymized and thresholded by a
// shuffler intermediary, and analyzed only in aggregate.
//
// The Pipeline type runs the three stages in-process for experimentation
// and testing; the internal packages implement each stage (and the Stash
// Shuffle, secret sharing, and blinded crowd IDs). For the paper's actual
// deployment shape — long-lived parties serving continuous traffic —
// cmd/prochlod runs the shuffler and analyzer as streaming daemons
// (epoch-driven auto-flush, batched RPC, backpressure), and RemotePipeline
// is the client-side handle that speaks to them. One driver runs both: the
// Pipeline's stages sit on the daemons' epoch engine (internal/transport),
// linked in memory instead of over sockets, so a seeded daemon deployment
// produces output byte-identical to the in-process pipeline. And one client
// drives both: each learns its encoder's keys from what its tiers serve,
// drains them in chain order and reads the analyzer's histogram through the
// same code, whether a tier is in process or on a socket.
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
// pipeline is parallel end to end. SubmitBatch also hands the batch to the
// first stage's engine, which admits it before SubmitBatch returns (in
// ModeBlinded, shuffler 1 blinds it there), so Flush runs only the work that
// needs the whole epoch; Submit's single reports wait and ride in with the
// next batch or at Flush.
// Batch and serial submission produce identically distributed output, and a
// seeded pipeline's results are byte-identical at every worker count.
package prochlo

import (
	"crypto/ecdsa"
	crand "crypto/rand"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/parallel"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
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
// through the shuffler stage chain and the analyzer. It has no driver of its
// own: New builds the mode's stages ([shuffler], [sgx shuffler], or
// [shuffler1, shuffler2], then the analyzer's sink) and the pipeline runs
// them on the daemons' epoch engine, one drain-only engine a stage, each
// pushing its epochs straight into the next (transport.Link) — the
// deployment transport.StartFleet runs over sockets. Its client is
// RemotePipeline's: it encodes to the keys its tiers serve, checked as a
// dial checks them, and Flush drains the tiers and reads the analyzer as
// RemotePipeline.Flush does. So the first stage admits each batch as it
// arrives (SubmitBatch), and Flush drains the tiers in order, running only
// the work that needs the whole epoch. The engines start in New and stop
// once the pipeline is garbage: there is nothing to close.
type Pipeline struct {
	mode      Mode
	threshold shuffler.Threshold
	secretT   int
	minBatch  int
	seed      uint64
	workers   int

	// stages is the chain, in hop order, the analyzer's sink last; tiers
	// runs it, each stage a tier of one, and pos is the position of the
	// pipeline's last batch on its stream into the first tier.
	stages []shuffler.Stage
	tiers  fleet[*transport.StageService]
	pos    int64

	// waiting holds Submit's single reports, of the kind the first stage
	// consumes, which ride in with the next SubmitBatch or at Flush.
	waiting core.Batch

	// encoders is the mode's encoder, learned from the keys the tiers
	// serve, and flushed the tiers' cumulative result at the last Flush
	// that returned one (empty before).
	encoders
	flushed *Result
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

// New builds a pipeline: it generates stage keys, links the stages, and
// learns its encoder's keys from the tiers as a RemotePipeline dial does —
// hop 1's blinding key only with its proof of α, and in ModeSGX the
// shuffler's key only from a quote that verifies against the pipeline's own
// attestation CA (§4.1.1): the "client" refuses to encode otherwise.
func New(opts ...Option) (*Pipeline, error) {
	p := &Pipeline{
		threshold: shuffler.Threshold{Noise: dp.PaperThresholdNoise},
		minBatch:  shuffler.DefaultMinBatch,
		flushed:   &Result{},
	}
	for _, o := range opts {
		if err := o(p); err != nil {
			return nil, err
		}
	}
	params := shuffler.Params{Threshold: p.threshold, Seed: p.seed, MinBatch: p.minBatch, Workers: p.workers}
	var roles []string
	var attestCA *ecdsa.PublicKey
	switch p.mode {
	case ModePlain:
		roles = []string{"shuffler"}
	case ModeSGX:
		// The enclave makes its key; the pipeline pins its CA.
		ca, err := sgx.NewCA()
		if err != nil {
			return nil, err
		}
		sh, err := shuffler.NewSGXShuffler(ca, params)
		if err != nil {
			return nil, err
		}
		p.stages, attestCA = []shuffler.Stage{sh}, ca.PublicKey()
	case ModeBlinded:
		roles = []string{"shuffler1", "shuffler2"}
	default:
		return nil, fmt.Errorf("prochlo: unknown mode %d", p.mode)
	}
	// Each party's secrets are its own: were hop 1's α shuffler2's El
	// Gamal secret, hop 2 could dictionary-attack crowd IDs.
	for _, role := range append(roles, "analyzer") {
		sec, err := shuffler.GenerateSecrets()
		if err != nil {
			return nil, err
		}
		st, err := shuffler.NewStage(role, sec, params)
		if err != nil {
			return nil, err
		}
		p.stages = append(p.stages, st)
	}
	var err error
	if p.tiers, err = link(p.stages); err != nil {
		return nil, err
	}
	runtime.AddCleanup(p, closeTiers, p.tiers)
	if p.encoders, err = p.tiers.learnKeys(attestCA); err != nil {
		return nil, err
	}
	return p, nil
}

// pipelineStream is the stream the pipeline submits on: it is its first
// tier's only sender.
const pipelineStream = 1

// link stands a chain up in this process (transport.Link), each stage a
// tier of one.
func link(stages []shuffler.Stage) (fleet[*transport.StageService], error) {
	tiers, err := transport.Link(stages)
	if err != nil {
		return nil, err
	}
	f := make(fleet[*transport.StageService], len(tiers))
	for i := range tiers {
		f[i] = tiers[i : i+1]
	}
	return f, nil
}

// closeTiers stops a pipeline's engines, in hop order, off the caller's
// goroutine: New has the runtime's cleanup goroutine call it once the
// pipeline is garbage.
func closeTiers(tiers fleet[*transport.StageService]) {
	go func() {
		for _, t := range tiers {
			t[0].Close()
		}
	}()
}

// Quote returns the SGX attestation quote the shuffler tier serves over
// its key (ModeSGX; the zero Quote in the other modes).
func (p *Pipeline) Quote() sgx.Quote {
	att, _ := p.tiers[0][0].Attestation()
	return att.Quote
}

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
// handed to the first stage yet: a one-report batch would run the batch
// kernels a point at a time, so it waits for the next SubmitBatch or Flush.
func (p *Pipeline) Submit(crowdLabel string, data []byte) error {
	if p.secretT > 0 {
		var err error
		data, err = encoder.SecretShareData(crand.Reader, p.secretT, data)
		if err != nil {
			return err
		}
	}
	if p.mode == ModeBlinded {
		env, err := p.benc.Encode(crowdLabel, data)
		if err != nil {
			return err
		}
		return p.wait(core.Batch{Blinded: []core.BlindedEnvelope{env}})
	}
	env, err := p.enc.Encode(core.Report{CrowdID: core.HashCrowdID(crowdLabel), Data: data})
	if err != nil {
		return err
	}
	return p.wait(core.Batch{Envelopes: []core.Envelope{env}})
}

// wait adds freshly encoded envelopes to the reports awaiting the first
// tier.
func (p *Pipeline) wait(batch core.Batch) (err error) {
	p.waiting, err = p.waiting.Append(batch)
	return err
}

// ingest hands every waiting report to the first tier as one batch, which
// its engine admits before the call returns.
func (p *Pipeline) ingest() error {
	if p.waiting.Len() == 0 {
		return nil
	}
	p.pos++
	if _, err := p.tiers[0][0].Submit(pipelineStream, p.pos, p.waiting); err != nil {
		return err
	}
	p.waiting = core.Batch{}
	return nil
}

// SubmitBatch encodes a batch of client reports — labels[i] is report i's
// crowd label, data[i] its payload — into the pending epoch, and hands it,
// together with any reports Submit left waiting, to the first stage's
// engine, which admits it before SubmitBatch returns: the per-report stage
// work (shuffler 1's blinding) runs as the batch arrives, as a daemon's does
// before its ack, not in Flush. A lone report waits, as Submit's do.
// SubmitBatch is equivalent to calling Submit per report but runs the
// per-report public-key encoding on the pipeline's worker pool (see
// WithWorkers), so it is the entry point for population-scale submission: a
// fleet simulator or ingestion front end hands over whole batches and the
// encode stage scales with cores instead of serializing two ECDH key
// agreements per report.
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
	batch, err := p.encodeBatch(labels, data, p.workers)
	if err != nil {
		return err
	}
	if err := p.wait(batch); err != nil {
		return err
	}
	if p.waiting.Len() < 2 {
		return nil // a one-report batch waits, as Submit's reports do
	}
	return p.ingest()
}

// Pending returns the number of reports awaiting a Flush, admitted or not.
func (p *Pipeline) Pending() int {
	return p.waiting.Len() + p.tiers[0][0].Stats().Pending
}

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

// Flush drives the pending epoch through the shuffler stage chain and the
// analyzer and returns the analysis result: it hands the first tier what
// Submit left waiting, drains the tiers in hop order — each processes its
// epoch and pushes the output into the next, exactly as the networked
// daemons forward epochs — and reads what the analyzer's sink folded, as
// RemotePipeline.Flush does. The tiers count from the pipeline's start, so
// the result is what they gained since the previous Flush that returned one.
// Result.ShufflerStats is the last shuffler's (the thresholding hop's)
// selectivity, the only stage whose stats describe what reaches the
// analyzer. A pending epoch below the first stage's anonymity floor is
// refused before any work and stays pending, as a daemon's epoch does.
func (p *Pipeline) Flush() (*Result, error) {
	if n, floor := p.Pending(), p.stages[0].Floor(); n < floor {
		return nil, fmt.Errorf("%w: %d < %d", shuffler.ErrBatchTooSmall, n, floor)
	}
	if err := p.ingest(); err != nil {
		return nil, err
	}
	now, _, err := p.tiers.flush()
	if err != nil {
		return nil, err
	}
	was := p.flushed
	p.flushed = now
	res := &Result{
		Histogram:     make(map[string]int),
		ShufflerStats: now.ShufflerStats.Sub(was.ShufflerStats),
		Undecryptable: now.Undecryptable - was.Undecryptable,
	}
	for v, n := range now.Histogram {
		if n > was.Histogram[v] {
			res.Histogram[v] = n - was.Histogram[v]
		}
	}
	if p.secretT > 0 {
		// The sink keeps counts, not records: the epoch's records are the
		// histogram's multiset, in value order.
		var db [][]byte
		for _, v := range slices.Sorted(maps.Keys(res.Histogram)) {
			for range res.Histogram[v] {
				db = append(db, []byte(v))
			}
		}
		rec, malformed, _ := analyzer.RecoverSecretShared(p.secretT, db)
		res.Undecryptable += malformed
		res.Recovered = make(map[string]int, len(rec))
		for _, r := range rec {
			res.Recovered[string(r.Value)] = r.Count
		}
	}
	return res, nil
}
