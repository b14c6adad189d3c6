// Package transport runs the ESA stages as separate networked services —
// the deployment shape of Figure 1, where encoders, shufflers, and analyzers
// are distinct long-lived parties. Every call between two parties is a
// request/reply frame pair on one pipelined TCP connection (wire.go): report
// batches and the control calls (keys, stats — the one status call, health
// included — drain barriers, attestation, the analyzer's histogram) alike.
//
// # Stage topology
//
// Every party is a StageService: the epoch engine (engine.go) around a
// shuffler.Stage — each shuffler variant, and the analyzer, whose stage
// (shuffler.Sink) emits nothing. The service ingests wire items, admits each
// batch through its stage as it arrives (the analyzer opens its records
// there), cuts them into epochs, processes each epoch through its stage (the
// analyzer folds them into its histogram), and pushes the output to a
// downstream tier, if the stage emits any. Because stage output travels as
// the shared core.Batch wire union, the downstream can be an analyzer or
// another shuffler hop, so the split-shuffler chain of §4.3 deploys as real
// networked daemons:
//
//	clients -> Shuffler1 daemon -> Shuffler2 daemon -> analyzer daemon
//
// The analyzer cuts every batch it keeps as an epoch of its own, and takes no
// WAL: its histogram is its state. Its Histogram call drains before it
// answers.
//
// Ingest is one path whatever the sender: a client's batch and a hop's
// pushed epoch are the same stamped Submit frame, the same engine.ingest
// and the same WAL record. They also leave through one sender,
// (*peerConn).send: after a connection failure it resends the same stamp
// on a fresh connection under one redial policy (DefaultClientRedials from
// DefaultClientRedialBase, about 6.4 s), so a hop rides out a short
// downstream restart exactly as a client rides out its shuffler's, and any
// answer the receiver gives — a refusal, epoch-full — comes back at once and
// is final. Callers keep only what differs: a hop pushes its epoch whole
// (its stamp is the epoch id, which recovery replays), and the Balancer
// fails over between replicas. Every batch is at-least-once and
// deduplicated by its (stream, seq-or-epoch) stamp.
//
// # Streaming model
//
// The services are built for continuous report traffic, not one-shot
// batches. Each submission reserves a contiguous range of global sequence
// numbers and is kept whole as one chunk in a single list, its lock held
// only for the append (the WAL fsync happens before it). An epoch scheduler
// cuts the accumulated chunks into an epoch — merging them by sequence
// number, which makes the cut deterministic for in-order submission —
// whenever occupancy reaches EpochConfig.FlushAt or the
// EpochConfig.Interval timer fires. Cut epochs enter an in-flight queue of
// two, consumed by a single flusher goroutine, which runs the stage over
// each epoch's items (which carry no sequence number: the numbers stay with
// the chunks) and pushes the output downstream asynchronously, in epoch
// order.
// A zero EpochConfig disables the scheduler: epochs are cut only by an
// explicit Drain.
//
// # Backpressure
//
// A service never grows without bound. Its limit is twice FlushAt (2^20 under the Interval timer alone; a
// drain-only service has none). A Submit that would take the uncut occupancy
// past it — the flusher has fallen behind and the in-flight queue is full —
// is held, unacknowledged, until a cut frees room, and then admitted. A
// batch that arrives while occupancy is below the level at which the
// scheduler cuts on its own (FlushAt, or the floor under the timer alone) is
// admitted at once, even past the limit, since no cut is owed to free room
// for it: so a hop that holds a tail below its FlushAt still takes the
// upstream's next epoch. A held Submit delays only the frames behind it on
// its own connection, since the read loop answers Submits in order; that
// is the backpressure, and it composes up a chain: a held push holds the
// upstream flusher, whose in-flight queue fills, whose own clients are then
// held. Only a hold longer than 10 s, which takes a stuck flusher, answers
// ErrEpochFull, having ingested nothing, and every sender treats that answer
// as final.
//
// # Durability
//
// With EpochConfig.WALDir set, a service is crash-safe: every accepted batch
// is appended to the log as one fsynced record, with its dedup stamp, before
// it is acknowledged; every cut epoch's membership is fsynced before it is
// pushed, and every drop before the next push. Each such sync is data-only
// (fdatasync on Linux): a segment is written as zeros and synced when it is
// created, and records overwrite the zeros. The log is one family of
// segments, each opening with a checkpoint of the state before it (the
// horizon below which every item is resolved, the cuts above it, each
// stream's last position), and a segment is deleted once the horizon covers
// its items — so the directory holds the unresolved epochs and one mark per
// stream. A restarted daemon recovers the directory without rewriting it —
// same stream id, pending items with their sequence ranges, each stream's
// dedup mark, unresolved epochs re-pushed under their original (stream,
// epoch) pairs — so the at-least-once push plus receiver dedup, one last
// position per sender stream, becomes exactly-once across process crashes.
// See wal.go for the log format and EXPERIMENTS.md for a kill-and-restart
// walkthrough.
//
// # Shutdown
//
// Close drains: it cuts the final epoch, waits for every queued epoch to be
// flushed downstream, and only then releases the downstream connection.
package transport

import (
	"errors"
	"io"
	"net"
	"strings"
	"time"

	"prochlo/internal/metrics"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
)

// Keys is the public key material a party serves to clients: the hybrid key
// reports are sealed to, and from a hop of the chain an El Gamal key —
// shuffler2's key crowd IDs are encrypted to (a tagged group element), or
// shuffler1's blinding key A = αG, the base of C1, with its proof of α
// (elgamal.ProvenKey) and no hybrid key.
type Keys struct {
	Blinding []byte
	Key      []byte
}

func (k Keys) appendWire(dst []byte) []byte {
	return appendWireBytes(appendWireBytes(dst, k.Blinding), k.Key)
}

func decodeKeys(body []byte) (Keys, error) {
	r := wireReader{b: body}
	k := Keys{Blinding: r.bytes(), Key: r.bytes()}
	return k, r.done()
}

// AttestationReply carries an SGX shuffler's quote over its public key, so a
// networked client can perform the §4.1.1 checks against the attestation CA
// key it pins before trusting the key.
type AttestationReply struct {
	Quote sgx.Quote
}

func (a AttestationReply) appendWire(dst []byte) []byte {
	for _, f := range [][]byte{a.Quote.Measurement[:], a.Quote.ReportData, a.Quote.R, a.Quote.S} {
		dst = appendWireBytes(dst, f)
	}
	return dst
}

func decodeAttestation(body []byte) (AttestationReply, error) {
	r := wireReader{b: body}
	var a AttestationReply
	if m := r.bytes(); len(m) == len(a.Quote.Measurement) {
		copy(a.Quote.Measurement[:], m)
	} else {
		r.fail()
	}
	a.Quote.ReportData, a.Quote.R, a.Quote.S = r.bytes(), r.bytes(), r.bytes()
	return a, r.done()
}

// ServiceStats is a stage service's health and occupancy snapshot, the one
// status call: a balancer's probe is a Stats call, and so is prochlod's
// /healthz. The service answers it under the engine's counter lock alone,
// which no cut, push or drain holds across its work, so a probe never waits
// behind one.
type ServiceStats struct {
	Healthy       bool  // the service is not closed and its WAL has not failed
	Pending       int   // items accumulated in the current epoch
	QueuedEpochs  int   // epochs cut but not yet flushed downstream
	EpochsFlushed int   // epochs processed and pushed successfully
	EpochsFailed  int   // epochs whose processing or push failed
	Accepted      int64 // items accepted since start
	Rejected      int64 // items refused: held past the bound (ErrEpochFull), or failed admission or the WAL
	// Dropped counts accepted reports that were lost anyway: the contents
	// of failed epochs, and a below-floor final epoch discarded at
	// shutdown (the anonymity floor forbids forwarding it). Operators
	// reconcile Accepted against Cumulative.Received + Dropped + Pending;
	// Unaccounted reports that reconciliation directly.
	Dropped   int64
	LastError string
	// Unaccounted is Accepted - Cumulative.Received - Dropped - Pending,
	// computed only when QueuedEpochs is zero (at a drain barrier every
	// accepted report must be counted downstream, dropped, or pending — a
	// nonzero value there means the accounting leaks). While epochs are in
	// flight the field is zero and meaningless.
	Unaccounted int64
	// RecoveredItems/RecoveredEpochs report what this service replayed from
	// its write-ahead log at startup (zero for a fresh start or no WAL).
	RecoveredItems  int64
	RecoveredEpochs int64
	// Cumulative sums the per-epoch shuffler stats (received, undecryptable,
	// crowds, crowds forwarded, reports forwarded) — the only selectivity
	// signal the shuffler's host is allowed to observe (§4.1.5).
	Cumulative shuffler.Stats
}

func (s ServiceStats) appendWire(dst []byte) []byte {
	healthy := int64(0)
	if s.Healthy {
		healthy = 1
	}
	dst = appendWireInts(dst, healthy, int64(s.Pending), int64(s.QueuedEpochs), int64(s.EpochsFlushed),
		int64(s.EpochsFailed), s.Accepted, s.Rejected, s.Dropped, s.Unaccounted,
		s.RecoveredItems, s.RecoveredEpochs)
	return appendEpochStats(appendWireBytes(dst, []byte(s.LastError)), s.Cumulative)
}

func decodeServiceStats(body []byte) (ServiceStats, error) {
	r := wireReader{b: body}
	s := ServiceStats{
		Healthy:         r.int() == 1,
		Pending:         int(r.int()),
		QueuedEpochs:    int(r.int()),
		EpochsFlushed:   int(r.int()),
		EpochsFailed:    int(r.int()),
		Accepted:        r.int(),
		Rejected:        r.int(),
		Dropped:         r.int(),
		Unaccounted:     r.int(),
		RecoveredItems:  r.int(),
		RecoveredEpochs: r.int(),
		LastError:       string(r.bytes()),
		Cumulative:      readEpochStats(&r),
	}
	return s, r.done()
}

// appendEpochStats encodes cumulative selectivity stats, the tail of
// ServiceStats.
func appendEpochStats(dst []byte, s shuffler.Stats) []byte {
	return appendWireInts(dst, int64(s.Received), int64(s.Undecryptable), int64(s.Crowds),
		int64(s.CrowdsForwarded), int64(s.Forwarded))
}

func readEpochStats(r *wireReader) shuffler.Stats {
	return shuffler.Stats{
		Received:        int(r.int()),
		Undecryptable:   int(r.int()),
		Crowds:          int(r.int()),
		CrowdsForwarded: int(r.int()),
		Forwarded:       int(r.int()),
	}
}

// appendHistogram encodes the analyzer's histogram. Keys are decrypted
// report payloads, so they travel as length-prefixed bytes, never as text.
func appendHistogram(dst []byte, counts map[string]int, undecryptable int) []byte {
	dst = appendWireInts(dst, int64(len(counts)))
	for k, n := range counts {
		dst = appendWireInts(appendWireBytes(dst, []byte(k)), int64(n))
	}
	return appendWireInts(dst, int64(undecryptable))
}

func decodeHistogram(body []byte) (counts map[string]int, undecryptable int, err error) {
	r := wireReader{b: body}
	n := r.count()
	counts = make(map[string]int, n)
	for i := 0; i < n; i++ {
		k := string(r.bytes())
		counts[k] = int(r.int())
	}
	undecryptable = int(r.int())
	return counts, undecryptable, r.done()
}

// epochFullPrefix opens ErrEpochFull's text. It also opened the older text,
// "transport: epoch full, retry after flush". A server error arrives
// client-side as its message, so IsEpochFull matches on this stable prefix,
// and a party still recognizes the refusal from a peer on the older build.
const epochFullPrefix = "transport: epoch full"

// ErrEpochFull answers a Submit that was held for room longer than the hold
// bound, 10 s: the service's flusher is stuck. Nothing was ingested, and the
// answer is final — a sender does not resend the batch to the same service.
var ErrEpochFull = errors.New(epochFullPrefix + ": held past its bound; the refusal is final")

// IsEpochFull reports whether err is ErrEpochFull, including its
// ServerError form after crossing the wire.
func IsEpochFull(err error) bool {
	return err != nil && strings.Contains(err.Error(), epochFullPrefix)
}

// IsTransient reports whether a fresh connection to the same address may get
// a different answer: err is a connection-level failure — the call may or
// may not have reached the service — or the service answered that it is
// shutting down (ErrClosed), which a restarted successor at that address
// replaces. Transient errors are what the sender retries; with a stamped
// (stream, seq) the service's dedup absorbs the ambiguous redelivery. Any
// other error the service returned is its answer.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var se ServerError
	if errors.As(err, &se) {
		return string(se) == errClosedMsg
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// errClosedMsg is ErrClosed's text, which IsTransient matches after the wire.
const errClosedMsg = "transport: shuffler service closed"

// ErrClosed is returned by submissions to a service that has been Closed.
var ErrClosed = errors.New(errClosedMsg)

// EpochConfig tunes a stage service's streaming behavior. The zero value
// disables the scheduler: nothing auto-flushes, batches are only processed
// by an explicit Drain, and no Submit is ever held. The occupancy limit at
// which Submits are held is derived, not set (see the package comment's
// Backpressure).
type EpochConfig struct {
	// FlushAt cuts an epoch as soon as occupancy reaches this many items.
	// 0 disables occupancy-driven flushing.
	FlushAt int
	// Interval cuts an epoch when the timer fires, provided occupancy has
	// reached the stage's anonymity floor (forwarding a smaller batch
	// would violate it). 0 disables timer-driven flushing.
	Interval time.Duration
	// WALDir enables the write-ahead log: every accepted batch is fsynced
	// to this directory before it is acknowledged, and a restart over the
	// same directory recovers pending items, resumes unresolved epoch
	// pushes under the same (stream, epoch) ids, and restores the dedup
	// marks — making the at-least-once push chain exactly-once across
	// process crashes. Empty disables durability.
	WALDir string
	// Metrics, when non-nil, registers this service's engine, WAL, and
	// stage-latency instruments (the prochlo_* series; see
	// docs/OPERATIONS.md for the catalog) on the given registry. Nil
	// disables instrumentation at zero hot-path cost.
	Metrics *metrics.Registry
	// MetricsLabels is attached to every series this service registers —
	// conventionally at least {"role": ...}, plus {"replica": ...} when
	// several services share one registry. Ignored when Metrics is nil.
	MetricsLabels metrics.Labels
}
