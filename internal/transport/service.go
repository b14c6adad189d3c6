package transport

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
)

// forwardDedup keeps, per sender stream, the last position ingested, so an
// at-least-once retry of a stamped batch — a hop push or a client
// submission whose reply was lost — is acknowledged without re-ingesting.
// One number per stream is enough because every stamped sender keeps the
// sender rule: at most one call in flight per stream, and increasing
// positions. An engine pushes its epochs in id order from its one FIFO
// flusher (recovered epochs first), each partition a receiver of its own; a
// Client gives each concurrent Submit a stream of its own. So a position at
// or below the stream's last is a replay. The stream's lock is held across
// the ingest: a replay racing its original — a dead replica's in-flight push
// and its WAL-recovered successor's — waits for it, and an ingest that is
// refused (epoch-full, a WAL error) leaves the mark where it was. Stream 0
// is unstamped and skips dedup.
type forwardDedup struct {
	mu      sync.Mutex
	streams map[int64]*streamMark
	replays atomic.Int64 // stamped ingests acked as replays, for the metrics
}

// streamMark is one stream's last ingested position.
type streamMark struct {
	mu   sync.Mutex
	last int64
}

// restore pre-loads marks recovered from a WAL, so upstream retries of
// batches ingested before a crash are still absorbed after the restart.
func (d *forwardDedup) restore(marks map[int64]int64) {
	for stream, pos := range marks {
		d.mark(stream).last = pos
	}
}

// mark returns a stream's mark, adding it on first sight.
func (d *forwardDedup) mark(stream int64) *streamMark {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.streams[stream]
	if m == nil {
		if d.streams == nil {
			d.streams = make(map[int64]*streamMark)
		}
		m = &streamMark{}
		d.streams[stream] = m
	}
	return m
}

// ingest runs add unless pos is a replay on its stream, and advances the
// stream's mark only when add succeeds.
func (d *forwardDedup) ingest(stream, pos int64, add func() error) error {
	if stream == 0 {
		return add()
	}
	m := d.mark(stream)
	m.mu.Lock()
	defer m.mu.Unlock()
	if pos <= m.last {
		d.replays.Add(1)
		return nil
	}
	if err := add(); err != nil {
		return err
	}
	m.last = pos
	return nil
}

// StageService serves one shuffler stage — the plain or SGX shuffler, or
// either hop of the §4.3 split chain — over the frame protocol. Every role
// runs the same epoch engine around its shuffler.Stage; what distinguishes
// the roles is the stage itself — the batch kind it consumes is what the
// service admits, the kind it emits is what the next tier must take, the keys
// it holds are the keys it serves — plus where its epochs go and (SGX only)
// an attestation quote. See the package comment for the epoch/backpressure
// model.
//
// Clients enter a chain at its first hop with Submit, and each hop pushes
// its epochs to the next with the same call. Both are deduplicated by their
// (stream, seq-or-epoch) stamp, since pushes and client retries are
// at-least-once. Backpressure composes across the chain: when hop 2 rejects
// a push as epoch-full, hop 1's flusher backs off and retries, its in-flight
// queue fills, and hop 1 starts rejecting its own clients with the same
// retryable error.
type StageService struct {
	eng  *engine
	keys Keys

	mu  sync.Mutex // guards att
	att *AttestationReply
}

// NewStageService wraps a stage: the service admits the batch kind the stage
// consumes (st.Kinds: envelopes for the plain and SGX shufflers, blinded
// envelopes for both split-chain hops) and pushes each processed epoch to
// the downstream tier next: an analyzer when the stage emits peeled payloads,
// the next shuffler hop otherwise. A tier of the wrong sort refuses the first
// push, naming the kind it got. next lists the tier's replicas in partition
// order: one address is a plain push, several split every epoch —
// blinded envelopes by the client-stamped crowd partition, so the replica
// that thresholds a crowd sees all of it no matter which upstream replica
// the reports entered through; payloads by content hash, which suffices
// because the analyzer merge is commutative — with per-partition
// (stream, epoch) dedup keeping the fan-in exactly-once.
//
// The service serves the stage's PublicKeys over Keys. The caller should
// Close the service to drain it and release the downstream connections.
func NewStageService(st shuffler.Stage, next []string, cfg EpochConfig) (*StageService, error) {
	eng, err := newEngine(cfg, st, next)
	if err != nil {
		return nil, err
	}
	blinding, key := st.PublicKeys()
	return &StageService{eng: eng, keys: Keys{Blinding: blinding, Key: key}}, nil
}

// SetAttestation installs the quote served over Attestation (the SGX
// deployment: the quote covers the service's public key). The attestation
// CA's key is not served: a client pins it (WithRemoteAttestation).
func (s *StageService) SetAttestation(quote sgx.Quote) {
	s.mu.Lock()
	s.att = &AttestationReply{Quote: quote}
	s.mu.Unlock()
}

// Attestation returns the SGX quote over the service's public key; it fails
// on a service running without an enclave (clients requiring attestation
// must not fall back silently).
func (s *StageService) Attestation() (AttestationReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.att == nil {
		return AttestationReply{}, errors.New("transport: shuffler runs without SGX attestation")
	}
	return *s.att, nil
}

// Config returns the service's effective epoch configuration, with every
// default and clamp applied.
func (s *StageService) Config() EpochConfig { return s.eng.cfg }

// Healthz is the cheap liveness probe; see HealthzReply.
func (s *StageService) Healthz() HealthzReply { return s.eng.healthz() }

// Keys returns the key material clients encrypt to — at shuffler1 its
// public blinding key alone; it fails at a hop that serves neither key.
func (s *StageService) Keys() (Keys, error) {
	if len(s.keys.Key) == 0 && len(s.keys.Blinding) == 0 {
		return Keys{}, errors.New("transport: this hop serves no keys")
	}
	return s.keys, nil
}

// Submit ingests one batch — a client's submission or an epoch the upstream
// hop pushed — returning how many items were accepted. The batch is accepted
// or rejected atomically: on ErrEpochFull nothing is ingested. A stamped
// batch (nonzero stream: a client stream's (stream, seq), a hop's (stream,
// epoch)) is deduplicated, so an at-least-once retry — any position at or
// below the stream's last — is acknowledged with the same count and ingests
// nothing; with a WAL the mark persists with the items. The service keeps an accepted batch's items without copying them:
// the caller hands b over and must not reuse it.
func (s *StageService) Submit(stream, pos int64, b core.Batch) (int, error) {
	if err := s.eng.ingest(stream, pos, b); err != nil {
		return 0, err
	}
	return b.Len(), nil
}

// Drain cuts the current epoch if it meets the anonymity floor — a
// below-floor epoch is left pending, where it can still grow — waits for
// every queued epoch to reach the next hop, and returns the service stats.
// It succeeds when nothing is pending, so it is the barrier clients use
// before querying downstream. Chains drain in hop order: hop 1
// first (its final epoch must reach hop 2's ingestion before hop 2's drain
// cuts), then hop 2. With force a below-floor epoch is released as Dropped
// (counted in ServiceStats.Dropped and WAL-resolved, so the reconciliation
// invariant still closes) instead of left pending — the final drain of a
// fleet shutting down for good.
func (s *StageService) Drain(force bool) (ServiceStats, error) {
	if err := s.eng.drain(force); err != nil {
		return ServiceStats{}, err
	}
	return s.eng.stats(), nil
}

// Stats reports the service's occupancy, epoch counters, and cumulative
// selectivity.
func (s *StageService) Stats() ServiceStats { return s.eng.stats() }

// Close gracefully shuts the service down: it stops accepting submissions,
// cuts and flushes the final epoch (if it meets the anonymity floor), waits
// for every queued epoch to reach the next hop, and releases the downstream
// connections.
func (s *StageService) Close() error { return s.eng.close() }

// Abort simulates a crash (kill -9) for the recovery test harness: no final
// cut, no flush, no WAL sync — the log directory is left exactly as a dead
// process would leave it, for a successor service on the same WALDir to
// recover. Production shutdown is Close.
func (s *StageService) Abort() { s.eng.abort() }

func (s *StageService) serveFrame(method uint8, body, dst []byte) ([]byte, error) {
	switch method {
	case methodSubmit:
		stream, pos, b, err := parseBatchCall(body)
		if err != nil {
			return nil, err
		}
		n, err := s.Submit(stream, pos, b)
		return appendWireInts(dst, int64(n)), err
	case methodKeys:
		k, err := s.Keys()
		return k.appendWire(dst), err
	case methodHealthz:
		return s.Healthz().appendWire(dst), nil
	case methodStats:
		return s.Stats().appendWire(dst), nil
	case methodDrain:
		if len(body) != 1 || body[0] > 1 {
			return nil, errors.New("transport: malformed drain request")
		}
		st, err := s.Drain(body[0] == 1)
		return st.appendWire(dst), err
	case methodAttestation:
		att, err := s.Attestation()
		return att.appendWire(dst), err
	}
	return nil, fmt.Errorf("transport: shuffler stage does not serve method %d", method)
}

// AnalyzerService serves an analyzer over the frame protocol. It keeps the
// histogram, not the records: each ingest is opened and folded into the
// running counts, so its memory grows with the distinct values seen, not
// with the reports.
type AnalyzerService struct {
	start time.Time
	open  func(items [][]byte) (db [][]byte, undecryptable int) // the analyzer's Open
	pub   []byte
	// dedup absorbs retried pushes by their (stream, epoch) stamp; see Ingest.
	dedup forwardDedup

	mu            sync.Mutex
	counts        map[string]int // histogram of every record materialized
	records       int
	undecryptable int
	ingests       int
}

// NewAnalyzerService wraps an analyzer; the public half of the analyzer's
// key is what it serves over Keys.
func NewAnalyzerService(an *analyzer.Analyzer) *AnalyzerService {
	return &AnalyzerService{start: time.Now(), open: an.Open, pub: an.Priv.Public().Bytes(), counts: make(map[string]int)}
}

// Healthz is the cheap liveness probe (lock-free; see HealthzReply).
func (a *AnalyzerService) Healthz() HealthzReply {
	return HealthzReply{Healthy: true, UptimeMillis: time.Since(a.start).Milliseconds()}
}

// Ingest decrypts a batch of shuffled records and folds them into the
// histogram. Stream and epoch identify the push for dedup: the shuffler's
// push retry is at-least-once (a reply can be lost after the analyzer
// ingested), so a retried push of an epoch this service already counted is
// acknowledged without re-ingesting, and a concurrent delivery of the same
// epoch waits for the first instead of decrypting it a second time. Stream
// 0 skips dedup.
func (a *AnalyzerService) Ingest(stream, epoch int64, items [][]byte) {
	a.dedup.ingest(stream, epoch, func() error {
		db, undec := a.open(items)
		h := analyzer.Histogram(db) // interned outside the lock
		a.mu.Lock()
		defer a.mu.Unlock()
		for k, n := range h {
			a.counts[k] += n
		}
		a.records += len(db)
		a.undecryptable += undec
		a.ingests++
		return nil
	})
}

// Histogram returns a copy of the histogram of every record materialized
// and the number of payloads that failed to decrypt.
func (a *AnalyzerService) Histogram() (counts map[string]int, undecryptable int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return maps.Clone(a.counts), a.undecryptable
}

// Stats reports the analyzer service's record and ingest counters.
func (a *AnalyzerService) Stats() AnalyzerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AnalyzerStats{Records: a.records, Undecryptable: a.undecryptable, Ingests: a.ingests}
}

func (a *AnalyzerService) serveFrame(method uint8, body, dst []byte) ([]byte, error) {
	switch method {
	case methodSubmit:
		stream, epoch, b, err := parseBatchCall(body)
		if err != nil {
			return nil, err
		}
		if k := b.Kind(); k != core.KindPayloads && k != core.KindEmpty {
			return nil, fmt.Errorf("transport: analyzer ingests %v, got %v", core.KindPayloads, k)
		}
		a.Ingest(stream, epoch, b.Payloads)
		return appendWireInts(dst, int64(len(b.Payloads))), nil
	case methodKeys:
		return Keys{Key: a.pub}.appendWire(dst), nil
	case methodHealthz:
		return a.Healthz().appendWire(dst), nil
	case methodStats:
		return a.Stats().appendWire(dst), nil
	case methodHistogram:
		counts, undec := a.Histogram()
		return appendHistogram(dst, counts, undec), nil
	}
	return nil, fmt.Errorf("transport: analyzer does not serve method %d", method)
}
