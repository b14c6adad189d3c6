package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
// refused (epoch-full, a WAL error) leaves the mark where it was. A held
// batch holds its stream's lock, so a replay of it waits for the hold.
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

// StageService serves one party's stage — the plain or SGX shuffler, either
// hop of the §4.3 split chain, or the analyzer — over the frame protocol.
// Every role runs the same epoch engine around its shuffler.Stage; what
// distinguishes the roles is the stage itself — the batch kind it consumes is
// what the service admits, the kind it emits is what the next tier must take
// (the analyzer emits nothing, has no next tier, and serves its Histogram),
// the keys it holds are the keys it serves, and a quote it holds (SGX only)
// is served over Attestation — plus where its epochs go. See the package
// comment for the epoch/backpressure model.
//
// Clients enter a chain at its first hop with Submit, and each hop pushes
// its epochs to the next with the same call. Both are deduplicated by their
// (stream, seq-or-epoch) stamp, since pushes and client retries are
// at-least-once. Backpressure composes across the chain: when hop 2 holds a
// push until it has room, hop 1's flusher waits on it, its in-flight queue
// fills, and hop 1 holds its own clients' Submits in turn.
type StageService struct {
	eng  *engine
	keys Keys
	sink histogrammer // the analyzer's stage, whose Histogram is served; nil at a shuffler
	att  quoter       // the SGX shuffler, whose quote is served; nil at any other stage
}

// histogrammer is the analyzer's stage, shuffler.Sink, as StageService
// serves it.
type histogrammer interface {
	Histogram() (counts map[string]int, undecryptable int)
}

// quoter is the SGX shuffler, shuffler.SGXShuffler, as StageService serves
// it: a stage whose enclave quotes the key it serves.
type quoter interface {
	Quote() sgx.Quote
}

// NewStageService wraps a stage: the service admits the batch kind the stage
// consumes (st.Kinds: envelopes for the plain and SGX shufflers, blinded
// envelopes for both split-chain hops, peeled payloads for the analyzer) and
// pushes each processed epoch to the downstream tier next: an analyzer when
// the stage emits peeled payloads, the next shuffler hop when it emits
// blinded envelopes, and none — next must be empty, and cfg zero but for its
// metrics — when it emits nothing. A tier of the wrong sort refuses the first
// push, naming the kind it got. next lists the tier's replicas in partition
// order: one address is a plain push, several split every epoch —
// blinded envelopes by the client-stamped crowd partition, so the replica
// that thresholds a crowd sees all of it no matter which upstream replica
// the reports entered through; payloads by content hash, which suffices
// because the analyzer merge is commutative — with per-partition
// (stream, epoch) dedup keeping the fan-in exactly-once.
//
// The service serves the stage's PublicKeys over Keys, and its Quote, if it
// has one, over Attestation. The caller should Close the service to drain it
// and release the downstream connections.
func NewStageService(st shuffler.Stage, next []string, cfg EpochConfig) (*StageService, error) {
	eng, err := newEngine(cfg, st, next)
	if err != nil {
		return nil, err
	}
	blinding, key := st.PublicKeys()
	sink, _ := st.(histogrammer)
	att, _ := st.(quoter)
	return &StageService{eng: eng, keys: Keys{Blinding: blinding, Key: key}, sink: sink, att: att}, nil
}

// Attestation returns the stage's SGX quote over the service's public key.
// The attestation CA's key is not served: a client pins it
// (WithRemoteAttestation). It fails at a stage without an enclave (clients
// requiring attestation must not fall back silently).
func (s *StageService) Attestation() (AttestationReply, error) {
	if s.att == nil {
		return AttestationReply{}, errors.New("transport: shuffler runs without SGX attestation")
	}
	return AttestationReply{Quote: s.att.Quote()}, nil
}

// Config returns the service's effective epoch configuration: FlushAt is
// raised to the stage's anonymity floor.
func (s *StageService) Config() EpochConfig { return s.eng.cfg }

// Keys returns the key material clients encrypt to — at shuffler1 its
// public blinding key alone; it fails at a hop that serves neither key.
func (s *StageService) Keys() (Keys, error) {
	if len(s.keys.Key) == 0 && len(s.keys.Blinding) == 0 {
		return Keys{}, errors.New("transport: this hop serves no keys")
	}
	return s.keys, nil
}

// Submit ingests one batch — a client's submission or an epoch the upstream
// hop pushed — returning how many items were accepted. A batch without room
// waits for a cut to free some (see the package comment's Backpressure). The
// batch is accepted or refused whole: on ErrEpochFull, a wait past the
// bound, nothing is ingested. Every batch
// is stamped — a client stream's (stream, seq), a hop's (stream, epoch); a
// stream of 0 is refused — and deduplicated, so an at-least-once retry — any
// position at or below the stream's last — is acknowledged with the same
// count and ingests nothing; with a WAL the mark persists with the items. The service keeps an accepted batch's items without copying them:
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

// Stats reports the service's health, occupancy, epoch counters, and
// cumulative selectivity; see ServiceStats.
func (s *StageService) Stats() ServiceStats { return s.eng.stats() }

// Histogram returns a copy of the analyzer's histogram and the number of
// records that did not open. It is a barrier: it drains first, so it counts
// every batch the service acked before the call — whoever reads it after
// draining the last shuffler tier sees every report that tier forwarded. Only
// the analyzer serves it.
func (s *StageService) Histogram() (counts map[string]int, undecryptable int, err error) {
	if s.sink == nil {
		return nil, 0, fmt.Errorf("transport: shuffler stage does not serve method %d", methodHistogram)
	}
	if err := s.eng.drain(false); err != nil {
		return nil, 0, err
	}
	counts, undecryptable = s.sink.Histogram()
	return counts, undecryptable, nil
}

// Close gracefully shuts the service down: it stops accepting submissions,
// cuts and flushes the final epoch (if it meets the anonymity floor), waits
// for every queued epoch to reach the next hop, and releases the downstream
// connections.
func (s *StageService) Close() error { return s.eng.close() }

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
	case methodHistogram:
		counts, undec, err := s.Histogram()
		return appendHistogram(dst, counts, undec), err
	}
	return nil, fmt.Errorf("transport: shuffler stage does not serve method %d", method)
}
