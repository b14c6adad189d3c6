package transport

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
)

// newStreamID draws a random 63-bit stream id. A stream id names a sender's
// dedup space — the receiver keeps one last position per stream (see
// forwardDedup); randomness keeps independent senders (engines, client
// streams, restarted successors without a WAL) from colliding.
func newStreamID() (int64, error) {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, err
	}
	id := int64(binary.LittleEndian.Uint64(b[:]) >> 1)
	if id == 0 {
		id = 1 // a Submit on stream 0 is refused (errStreamZero)
	}
	return id, nil
}

// maxHold bounds how long keep holds a batch that does not fit: a wait past
// it answers ErrEpochFull, and every sender takes that answer as final. A
// hold waits only on a cut the scheduler already owes, so the bound is
// reached only when the flusher is stuck; it is well under DefaultWireTimeout,
// so the sender hears the refusal, not a timeout. Tests that must reach it
// quickly shrink it; nothing else sets it.
var maxHold = 10 * time.Second

// hop is one replica of an engine's downstream tier, the seam every push
// leaves through: a *peerConn, which writes the batch to a daemon over the
// wire, or the next *StageService of a chain linked in one process (Link),
// which ingests it directly. Pushes are at-least-once — a peerConn resends
// after a connection failure — so receivers dedup by the (stream, epoch)
// pair stamped on every push.
type hop interface {
	send(stream, pos int64, b core.Batch) error
}

// tier is an engine's downstream tier: its replicas in partition order.
type tier []hop

// dialTier connects to every replica of a downstream tier.
func dialTier(addrs []string) (tier, error) {
	t := make(tier, 0, len(addrs))
	for _, addr := range addrs {
		p, err := dialPeer(addr)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("transport: dial next hop %s: %w", addr, err)
		}
		t = append(t, p)
	}
	return t, nil
}

// close releases the tier's connections. A linked hop is not the engine's
// to close: the chain's owner closes its services in chain order.
func (t tier) close() {
	for _, h := range t {
		if p, ok := h.(*peerConn); ok {
			p.Close()
		}
	}
}

// push delivers one processed epoch to the downstream tier: whole to a single
// replica, split by partitionBatch across several. Blinded envelopes route
// by the client-stamped owning partition (core.PartitionOf over the crowd
// ID — consistent, so the partition that thresholds a crowd sees all of it
// no matter which upstream replica the reports entered through); payloads
// route by content hash, which is deterministic and sufficient because
// their downstream merge is commutative. The parts are
// pushed concurrently, each on its replica's own connection, so the epoch
// costs the slowest partition, not the sum. Every partition receives at most
// one push per (stream, epoch), so per-partition dedup keeps the fan-in
// exactly-once: when a multi-partition push fails halfway and is retried
// (same epoch id, possibly by a WAL-recovered successor), the partitions
// that already ingested absorb the replay. The first (lowest-partition)
// error is reported. A stage that emits nothing has no tier and pushes
// nothing.
func (e *engine) push(id int64, out core.Batch) error {
	if len(e.next) == 1 {
		return e.pushTo(e.next[0], id, out)
	}
	parts := partitionBatch(out, len(e.next))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		if part.Len() == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = e.pushTo(e.next[i], id, part)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pushTo sends an epoch, or its partition, to one replica. The sender has
// already ridden out connection failures, and the receiver holds a batch
// that does not fit until it has room, so any answer is final. An epoch is
// never split: its stamp is the epoch id, which a WAL-recovered successor
// replays whole.
func (e *engine) pushTo(h hop, id int64, b core.Batch) error {
	if err := h.send(e.stream, id, b); err != nil {
		return fmt.Errorf("transport: push to next hop %s: %w", h, err)
	}
	return nil
}

// contentPartition spreads a blob over m partitions by FNV-1a hash.
func contentPartition(b []byte, m int) int {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return int(h % uint32(m))
}

// partitionBatch splits one epoch's output batch into per-partition
// sub-batches, preserving the within-partition order. A stage emits blinded
// envelopes (shuffler1) or payloads (every other stage); none emits plain
// envelopes.
func partitionBatch(out core.Batch, m int) []core.Batch {
	split := make([]core.Batch, m)
	switch out.Kind() {
	case core.KindBlinded:
		for _, env := range out.Blinded {
			i := int(uint32(env.Partition)) % m
			split[i].Blinded = append(split[i].Blinded, env)
		}
	case core.KindPayloads:
		for _, p := range out.Payloads {
			i := contentPartition(p, m)
			split[i].Payloads = append(split[i].Payloads, p)
		}
	}
	return split
}

// inFlightEpochs is how many cut epochs may queue ahead of the flusher. A
// cut beyond it blocks the scheduler, occupancy then grows to the engine's
// limit, and keep holds the batches behind it until a cut frees room:
// backpressure, not memory.
const inFlightEpochs = 2

// chunk is a run of items in arrival order with the sequence range
// [min, max] the engine gave them. One ingest call's batch is one chunk, and
// its item i is number min+i; a cut merges chunks into one, whose range may
// hold numbers no item has (burned by a refused append). Sequence numbers
// live here and in the WAL alone: no item carries one.
type chunk struct {
	min, max int64
	items    core.Batch
}

// add appends next, the chunk that follows c in sequence order, to c.
func (c *chunk) add(next chunk) error {
	if c.items.Len() == 0 {
		c.min = next.min
	}
	c.max = next.max
	var err error
	c.items, err = c.items.Append(next.items)
	return err
}

// epoch is a cut chunk traveling to the flusher. id is assigned at cut time
// (before the WAL cut record), so a crash between cut and push replays the
// epoch under the same id and downstream dedup stays exact. reply is non-nil
// for an epoch a Drain cut; an empty chunk is a Drain's pure barrier.
type epoch struct {
	chunk
	id    int64
	reply chan error
}

// forceReq asks the scheduler to cut the current epoch immediately.
type forceReq struct {
	reply chan error
	// forceDrop releases a below-floor epoch as Dropped (counted and
	// WAL-resolved) instead of leaving it pending — the final-drain path
	// for a deployment shutting down for good, where "pending forever" is
	// a leak, not patience.
	forceDrop bool
}

// engine is the reusable epoch machinery every stage daemon runs: ingestion
// in one global arrival order, with the stage's per-report work (Admit) done
// on each batch as it is kept, an epoch scheduler (occupancy- and
// timer-driven cuts, respecting the stage's anonymity floor), submission
// backpressure that holds a batch until a cut frees room for it, per-stream
// dedup of stamped ingests, a single in-order flusher feeding the stage, and
// an at-least-once push of each processed epoch to the downstream tier — none
// at the analyzer, whose stage emits nothing. It admits the one batch kind
// its stage consumes (client envelopes for the plain and SGX shufflers,
// blinded envelopes for the split-shuffler hops, peeled payloads for the
// analyzer) and is otherwise indifferent to what an item is: the durable item form is
// core.Batch's, and the arrival order is the engine's own (chunk). See the
// package comment for the streaming and backpressure model.
//
// With EpochConfig.WALDir set, the engine is crash-safe: accepted batches are
// logged as they arrived before the submission is acknowledged, cut epochs
// before they are pushed, and a restart over the same directory resumes the
// same stream id, re-ingests pending items (sequence ranges preserved, so
// the cut's merge is byte-identical), restores the dedup marks, and
// re-pushes unresolved epochs under their original (stream, epoch) pairs
// for downstream dedup to absorb — admitting the pending items and the
// unresolved epochs once first (walRecovery.admit).
type engine struct {
	stage shuffler.Stage
	next  tier
	kind  core.BatchKind // the one batch kind ingested: what the stage consumes
	floor int
	cfg   EpochConfig
	wal   *wal
	dedup forwardDedup

	stream    int64 // id naming this engine's push stream for dedup; persisted in the WAL
	epochID   atomic.Int64
	seq       atomic.Int64
	occupancy atomic.Int64
	accepted  atomic.Int64
	rejected  atomic.Int64
	dropped   atomic.Int64
	closed    atomic.Bool
	// limit caps the occupancy keep admits a batch into, and cutAt is the
	// occupancy at which the scheduler cuts on its own (see hold). Both are
	// derived from FlushAt, or from the floor under the timer alone; a
	// drain-only engine has no limit and holds nothing.
	limit, cutAt int64
	roomMu       sync.Mutex
	room         chan struct{} // closed and replaced by every cut: wakes held batches
	// closeMu serializes close — and epoch cuts — against in-flight ingests:
	// keep holds the read side for the whole number-log-append, so once a cut
	// holds the write side every numbered item is both in the WAL and in
	// chunks. That makes every cut a contiguous sequence range, which is
	// what lets the WAL record an epoch's membership as (id, minSeq, maxSeq)
	// and truncate segments by a stable-sequence horizon; and it means an
	// acknowledged submission cannot race past the drain and strand.
	closeMu sync.RWMutex

	chunkMu sync.Mutex // guards chunks: concurrent keeps append to it
	chunks  []chunk

	kick   chan struct{} // occupancy crossed FlushAt
	force  chan forceReq // Drain
	epochs chan *epoch   // scheduler -> flusher, cap inFlightEpochs
	stop   chan struct{} // close -> scheduler
	done   chan struct{} // flusher exited

	// recovered epochs (cut before the last crash, never resolved) are
	// re-processed and re-pushed by the flusher before any live epoch.
	recovered []*epoch
	recItems  int64
	recEpochs int64

	mu            sync.Mutex // guards the epoch counters below
	queuedEpochs  int
	epochsFlushed int
	epochsFailed  int
	lastErr       error
	cum           shuffler.Stats

	// Scrape instruments (nil without EpochConfig.Metrics; Observe on a
	// nil histogram is a no-op). Set in registerMetrics before the
	// scheduler/flusher goroutines start.
	admitSeconds *metrics.Histogram
	procSeconds  *metrics.Histogram
	pushSeconds  *metrics.Histogram
}

// newEngine dials the downstream tier next, its replicas' addresses in
// partition order, and starts an engine pushing to it (startEngine).
func newEngine(cfg EpochConfig, st shuffler.Stage, next []string) (*engine, error) {
	t, err := dialTier(next)
	if err != nil {
		return nil, err
	}
	e, err := startEngine(cfg, st, t)
	if err != nil {
		t.close()
	}
	return e, err
}

// startEngine wires an engine: FlushAt raised to the floor and the limit
// derived, stream id drawn (or recovered from the WAL), scheduler and flusher
// started. st processes every cut epoch, sets the anonymity floor and names
// the admitted kind; next is the downstream tier, which the engine closes
// when it closes.
func startEngine(cfg EpochConfig, st shuffler.Stage, next tier) (*engine, error) {
	kind, emits := st.Kinds()
	if kind == core.KindEmpty {
		return nil, fmt.Errorf("transport: no stage ingests %v", kind)
	}
	floor := max(st.Floor(), 1)
	switch {
	case emits == core.KindEmpty:
		// A stage that emits nothing — the analyzer — has no downstream tier,
		// and cuts every kept batch as its own epoch, so all it holds is what
		// its stage folds. Its folded state is not in the log, so it takes no
		// WAL, and no epoch size or timer of its own.
		if len(next) > 0 || cfg.WALDir != "" || cfg.FlushAt != 0 || cfg.Interval != 0 {
			return nil, errors.New("transport: a stage that emits nothing takes no next tier, WALDir, FlushAt or Interval: it cuts every batch it keeps as an epoch")
		}
		cfg.FlushAt = floor
	case len(next) == 0:
		return nil, errors.New("transport: downstream tier needs at least one address")
	}
	if cfg.FlushAt > 0 && cfg.FlushAt < floor {
		// An epoch below the stage's anonymity floor could never be
		// processed; auto-flush no earlier than the floor.
		cfg.FlushAt = floor
	}
	stream, err := newStreamID()
	if err != nil {
		return nil, fmt.Errorf("transport: stream id: %w", err)
	}

	var (
		w   *wal
		rec *walRecovery
	)
	if cfg.WALDir != "" {
		if rec, err = recoverWAL(cfg.WALDir, kind); err == nil && rec != nil {
			rec.admit(st)
		}
		if err != nil {
			return nil, err
		}
		w, err = openWAL(cfg.WALDir, DefaultWALSegmentBytes, stream, kind, rec)
		if err != nil {
			return nil, err
		}
		// Resume the pre-crash push stream: replayed epochs must carry the
		// same (stream, epoch) pairs for downstream dedup.
		stream = w.stream
	}

	e := &engine{
		stage:  st,
		next:   next,
		kind:   kind,
		floor:  floor,
		cfg:    cfg,
		wal:    w,
		stream: stream,
		room:   make(chan struct{}),
		kick:   make(chan struct{}, 1),
		force:  make(chan forceReq),
		epochs: make(chan *epoch, inFlightEpochs),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	switch {
	case cfg.FlushAt > 0:
		e.limit, e.cutAt = 2*int64(cfg.FlushAt), int64(cfg.FlushAt)
	case cfg.Interval > 0:
		// The timer alone still must not let occupancy grow without bound
		// while the flusher falls behind; a generous limit keeps the
		// backpressure.
		e.limit, e.cutAt = 1<<20, int64(floor)
	}
	if rec != nil {
		e.seq.Store(rec.seqMax)
		e.epochID.Store(rec.epochMax)
		e.putBack(rec.pending)
		e.recItems += int64(rec.pending.items.Len())
		for _, ep := range rec.epochs {
			e.recItems += int64(ep.items.Len())
		}
		e.accepted.Store(e.recItems)
		e.recovered = rec.epochs
		e.recEpochs = int64(len(rec.epochs))
		e.dedup.restore(rec.marks)
		e.queuedEpochs = len(rec.epochs)
	}
	e.registerMetrics()
	go e.scheduler()
	go e.flusher()
	if e.cfg.FlushAt > 0 && e.occupancy.Load() >= int64(e.cfg.FlushAt) {
		// Recovered pending items may already fill an epoch.
		select {
		case e.kick <- struct{}{}:
		default:
		}
	}
	return e, nil
}

// admit admits what recovery read back — the pending items and every
// unresolved epoch — once each, as keep admits a batch on arrival: the log
// holds batches as they arrived, and the engine holds them admitted. It
// runs before the flusher starts, on items recovery has held to the stage's
// kind.
func (rec *walRecovery) admit(st shuffler.Stage) {
	rec.pending.items = st.Admit(rec.pending.items)
	for _, ep := range rec.epochs {
		ep.items = st.Admit(ep.items)
	}
}

// ingest is the one way a batch of the admitted kind enters the engine,
// whether a client submitted it or the upstream hop pushed it as an epoch.
// Every batch is stamped (stream, pos), stream nonzero, and goes in exactly
// once: an at-least-once retry, at or below the stream's last position, is
// acknowledged without re-ingesting (forwardDedup). The engine owns b's
// items from here on (nothing is copied until the cut).
func (e *engine) ingest(stream, pos int64, b core.Batch) error {
	if stream == 0 {
		return errStreamZero
	}
	if k := b.Kind(); k != e.kind && k != core.KindEmpty {
		return fmt.Errorf("transport: stage ingests %v, got %v", e.kind, k)
	}
	if b.Len() == 0 {
		return nil
	}
	return e.dedup.ingest(stream, pos, func() error { return e.keep(stream, pos, b) })
}

// keep admits an ingested batch, numbers it and keeps it, whole, as one
// chunk: the call reserves a contiguous sequence range. It first holds the
// batch until it has room (hold), so a batch that waits costs no crypto. The
// stage's Admit — hop 1's blinding — runs next, once per batch, after the
// replay check (ingest), and before closeMu is taken, so the crypto holds up
// no cut. The occupancy is reserved only after admission, so that it counts
// what a cut can take (a cut on occupancy takes at least FlushAt reports).
// With a WAL, the batch as it arrived and its (stream, pos) mark are logged
// as one fsynced record before the admitted chunk becomes visible — and
// before the stream's mark advances and the batch is acked — so a crash can
// never keep the mark without the items or the items without the mark. The
// read side of closeMu, held from the reservation to the append, is what
// makes "in the log" and "visible to the next cut" atomic: a cut takes the
// write side, so it sees a kept batch either logged and appended or not at
// all.
func (e *engine) keep(stream, pos int64, b core.Batch) error {
	n := int64(b.Len())
	if e.closed.Load() {
		return ErrClosed
	}
	if err := e.hold(n); err != nil {
		return err
	}
	admitStart := time.Now()
	admitted := e.stage.Admit(b)
	observeSeconds(e.admitSeconds, admitStart)
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	e.occupancy.Add(n)
	last := e.seq.Add(n)
	c := chunk{min: last - n + 1, max: last, items: b}
	if e.wal != nil {
		if werr := e.wal.appendBatch(stream, pos, c); werr != nil {
			// Durability was promised but cannot be provided: refuse the
			// submission so the client retries (or fails loudly) rather
			// than accepting data the log did not capture.
			e.occupancy.Add(-n)
			e.rejected.Add(n)
			e.recordErr(werr)
			return werr
		}
	}
	c.items = admitted
	e.chunkMu.Lock()
	e.chunks = append(e.chunks, c)
	e.chunkMu.Unlock()
	e.accepted.Add(n)
	if e.cfg.FlushAt > 0 && e.occupancy.Load() >= int64(e.cfg.FlushAt) {
		select {
		case e.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// hold returns once a batch of n has room: it fits under the limit, or it
// arrives while occupancy is below cutAt. The second rule lets a batch go
// over the limit, by at most its own size, where refusing it would wait on a
// cut that never comes — a hop holding a tail below its FlushAt must still
// take the upstream's epoch, or the upstream could never push it. Any other
// batch waits, before admission, for a cut to free room: occupancy is then
// at least cutAt, so the scheduler owes that cut and makes it as soon as its
// in-flight queue takes an epoch. Only a wait past maxHold answers
// ErrEpochFull, counted in Rejected; close answers ErrClosed at once. Concurrent keeps decide on
// the occupancy they see, so each connection can put at most one batch
// over the limit this way: the read loop serves a connection's Submits one
// at a time.
func (e *engine) hold(n int64) error {
	fits := func() bool {
		occ := e.occupancy.Load()
		return e.limit == 0 || occ+n <= e.limit || occ < e.cutAt
	}
	if fits() {
		return nil
	}
	timeout := time.NewTimer(maxHold)
	defer timeout.Stop()
	for {
		// Take the room channel before looking at the occupancy: a cut
		// after the look closes the channel taken.
		e.roomMu.Lock()
		room := e.room
		e.roomMu.Unlock()
		if fits() {
			return nil
		}
		select {
		case <-room:
		case <-timeout.C:
			e.rejected.Add(n)
			return ErrEpochFull
		case <-e.stop:
			return ErrClosed
		}
	}
}

// cut takes every chunk and merges them into one, ordered by global
// sequence number — a total order that, for in-order submission, is
// independent of how concurrent ingests interleaved their appends. Holding
// closeMu excludes in-flight ingests, so the cut is a contiguous sequence
// range (see the closeMu comment). Each chunk is a range reserved by one
// ingest call (or a whole earlier cut put back, or the recovered pending
// set, both of which precede everything numbered since), so chunks are
// internally ordered and pairwise disjoint: sorting them by min and
// concatenating is the per-item sort by sequence number, and only the
// gathering needs the exclusive lock. The merged range runs from the first
// chunk's min to the last one's max: the WAL's cut record.
func (e *engine) cut() chunk {
	e.closeMu.Lock()
	e.chunkMu.Lock()
	chunks := e.chunks
	e.chunks = nil
	e.chunkMu.Unlock()
	e.closeMu.Unlock()
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].min < chunks[j].min })
	var cut chunk
	for _, c := range chunks {
		if err := cut.add(c); err != nil {
			panic(err) // ingest let a second kind in: a bug, not an input
		}
	}
	e.occupancy.Add(-int64(cut.items.Len()))
	e.roomMu.Lock()
	close(e.room)
	e.room = make(chan struct{})
	e.roomMu.Unlock()
	return cut
}

// putBack returns a cut chunk to ingestion whole (it keeps its range, so
// the next cut's merge restores its order).
func (e *engine) putBack(c chunk) {
	if c.items.Len() == 0 {
		return
	}
	e.chunkMu.Lock()
	e.chunks = append(e.chunks, c)
	e.chunkMu.Unlock()
	e.occupancy.Add(int64(c.items.Len()))
}

// cutFloor cuts the pending epoch if it holds at least the stage's anonymity
// floor, and puts a smaller cut back (occupancy can momentarily exceed what
// has been appended, because ingestion bumps the counter before the chunk
// append — the cut, not the counter, is authoritative). It returns the empty
// chunk when nothing was cut.
func (e *engine) cutFloor() chunk {
	c := e.cut()
	if c.items.Len() >= e.floor {
		return c
	}
	e.putBack(c)
	return chunk{}
}

// sendEpoch assigns the epoch its id, persists the cut (items synced, then
// the cut record — after this the epoch replays under the same id across a
// crash), and queues it for the flusher, blocking when the in-flight queue
// is full (submission-side backpressure keeps occupancy bounded meanwhile).
// An epoch whose cut record the log refused never leaves: its items go back
// to pending (their batch records leave them to a restart), and a Drain's
// epoch goes on as its bare barrier.
func (e *engine) sendEpoch(ep *epoch) {
	if ep.items.Len() > 0 {
		ep.id = e.epochID.Add(1)
		if err := e.wal.logCut(ep.id, ep.min, ep.max); err != nil {
			e.recordErr(err)
			e.putBack(ep.chunk)
			ep.chunk = chunk{}
		}
	}
	e.mu.Lock()
	e.queuedEpochs++
	e.mu.Unlock()
	e.epochs <- ep
}

// scheduler is the only goroutine that cuts epochs, serializing occupancy
// triggers, timer fires, and drains into one deterministic order.
func (e *engine) scheduler() {
	defer close(e.epochs)
	var tick <-chan time.Time
	if e.cfg.Interval > 0 {
		t := time.NewTicker(e.cfg.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-e.stop:
			// Drain: flush whatever the final epoch holds, unless it is
			// below the anonymity floor (a smaller batch must not be
			// forwarded; those reports are dropped with the connection,
			// and the loss is counted in Dropped).
			if c := e.cut(); c.items.Len() >= e.floor {
				e.sendEpoch(&epoch{chunk: c})
			} else {
				e.dropCut(c)
			}
			return
		case <-e.kick:
			if e.occupancy.Load() >= int64(e.cfg.FlushAt) {
				if c := e.cutFloor(); c.items.Len() > 0 {
					e.sendEpoch(&epoch{chunk: c})
				}
			}
		case <-tick:
			if e.occupancy.Load() >= int64(e.floor) {
				if c := e.cutFloor(); c.items.Len() > 0 {
					e.sendEpoch(&epoch{chunk: c})
				}
			}
		case req := <-e.force:
			// A Drain: cut the epoch if it meets the floor; otherwise leave
			// it pending (it may yet grow past the floor) and send the empty
			// chunk, a pure barrier. A final drain instead releases the
			// below-floor epoch as Dropped (counted, WAL-resolved): the
			// floor forbids forwarding it, and the caller has declared no
			// more traffic is coming to grow it.
			c := e.cutFloor()
			if c.items.Len() == 0 && req.forceDrop {
				e.dropCut(e.cut())
			}
			e.sendEpoch(&epoch{chunk: c, reply: req.reply})
		}
	}
}

// dropCut records a cut chunk's loss in the WAL, so a restart over this
// directory does not resurrect reports the daemon already counted as lost,
// and then counts it as dropped. A drop the log refused is not counted: the
// chunk goes back to pending.
func (e *engine) dropCut(c chunk) {
	if c.items.Len() == 0 {
		return
	}
	if err := e.wal.logDrop(e.epochID.Add(1), c.min, c.max); err != nil {
		e.recordErr(err)
		e.putBack(c)
		return
	}
	e.dropped.Add(int64(c.items.Len()))
}

// recordErr keeps a non-nil err as the LastError Stats reports.
func (e *engine) recordErr(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	e.lastErr = err
	e.mu.Unlock()
}

// flusher consumes cut epochs in order — epochs share the stage's batch
// RNG, so processing them FIFO keeps a seeded deployment deterministic —
// and pushes each processed epoch downstream. Epochs recovered from the
// WAL flush first, under their pre-crash ids.
func (e *engine) flusher() {
	defer close(e.done)
	for _, ep := range e.recovered {
		e.flushOne(ep)
	}
	e.recovered = nil
	for ep := range e.epochs {
		e.flushOne(ep)
	}
}

// flushOne processes and pushes a single epoch, then resolves it in the WAL
// and updates the counters. A delivered epoch is acked; a failed one — its
// processing failed, or its push got a final refusal or outlived the
// sender's redial budget — is dropped: the WAL records the drop, so its
// reports are never pushed again, not even after a restart, and they count
// in Dropped. An epoch below the stage's floor is dropped unprocessed: the
// scheduler cuts none, so it is one recovered from the WAL under a floor
// since raised (-min-batch). Once the log has failed nothing is pushed
// behind a record that may not be durable: the epoch is held, back in
// pending, for a restart.
func (e *engine) flushOne(ep *epoch) {
	var stats shuffler.Stats
	err := e.wal.failure()
	held := err != nil && ep.items.Len() > 0
	if n := ep.items.Len(); n > 0 && err == nil { // else a Drain barrier: every earlier epoch has been flushed
		var out core.Batch
		if n < e.floor {
			err = fmt.Errorf("%w: %d < %d", shuffler.ErrBatchTooSmall, n, e.floor)
		} else {
			procStart := time.Now()
			out, stats, err = e.stage.ProcessEpoch(ep.items)
			observeSeconds(e.procSeconds, procStart)
		}
		if err == nil {
			pushStart := time.Now()
			err = e.push(ep.id, out)
			observeSeconds(e.pushSeconds, pushStart)
		}
		if err == nil {
			e.recordErr(e.wal.logAck(ep.id, ep.min, ep.max))
		} else if werr := e.wal.logDrop(ep.id, ep.min, ep.max); werr != nil {
			err, held = errors.Join(err, werr), true
		}
	}
	e.mu.Lock()
	e.queuedEpochs--
	switch {
	case held:
		e.lastErr = err
	case ep.items.Len() == 0: // a barrier
	case err != nil:
		e.epochsFailed++
		e.lastErr = err
		e.dropped.Add(int64(ep.items.Len()))
	default:
		e.epochsFlushed++
		e.cum = e.cum.Add(stats)
	}
	e.mu.Unlock()
	if held {
		e.putBack(ep.chunk)
	}
	if ep.reply != nil {
		ep.reply <- err
	}
}

// drain cuts the current epoch if it meets the anonymity floor and waits for
// it (and every earlier queued epoch) to be flushed, returning the cut
// epoch's processing or push error. forceDrop additionally releases a
// below-floor cut as Dropped instead of leaving it pending (final drain).
func (e *engine) drain(forceDrop bool) error {
	if e.closed.Load() {
		return ErrClosed
	}
	req := forceReq{reply: make(chan error, 1), forceDrop: forceDrop}
	select {
	case e.force <- req:
	case <-e.stop:
		return ErrClosed
	}
	return <-req.reply
}

// stats snapshots the service's occupancy, epoch counters, and cumulative
// selectivity.
func (e *engine) stats() ServiceStats {
	reply := ServiceStats{Healthy: !e.closed.Load() && e.wal.failure() == nil}
	e.mu.Lock()
	reply.QueuedEpochs = e.queuedEpochs
	reply.EpochsFlushed = e.epochsFlushed
	reply.EpochsFailed = e.epochsFailed
	if e.lastErr != nil {
		reply.LastError = e.lastErr.Error()
	}
	reply.Cumulative = e.cum
	e.mu.Unlock()
	reply.Pending = int(e.occupancy.Load())
	reply.Accepted = e.accepted.Load()
	reply.Rejected = e.rejected.Load()
	reply.Dropped = e.dropped.Load()
	reply.RecoveredItems = e.recItems
	reply.RecoveredEpochs = e.recEpochs
	if reply.QueuedEpochs == 0 {
		// The reconciliation invariant: with no epoch in flight, every
		// accepted report is either counted downstream, dropped, or still
		// pending. Nonzero at a drain barrier means the accounting leaks.
		reply.Unaccounted = reply.Accepted -
			int64(reply.Cumulative.Received) - reply.Dropped - int64(reply.Pending)
	}
	return reply
}

// close gracefully shuts the engine down: it stops accepting submissions,
// cuts and flushes the final epoch (if it meets the anonymity floor), waits
// for every queued epoch to reach the downstream tier, closes its
// connections, and — when nothing is left pending or unresolved — wipes the
// WAL so the next start is fresh.
func (e *engine) close() error {
	e.closeMu.Lock()
	swapped := e.closed.CompareAndSwap(false, true)
	e.closeMu.Unlock()
	if !swapped {
		return nil
	}
	// Report only failures from the drain itself (epochs still queued or
	// cut now); earlier failures were already surfaced to Drain/Stats
	// callers and must not turn a clean shutdown into an error.
	e.mu.Lock()
	failedBefore := e.epochsFailed
	e.mu.Unlock()
	close(e.stop)
	<-e.done
	e.mu.Lock()
	var err error
	if e.epochsFailed > failedBefore {
		err = e.lastErr
	}
	e.mu.Unlock()
	e.next.close()
	if e.wal != nil {
		wipe := e.occupancy.Load() == 0 && e.wal.unresolvedCount() == 0
		if werr := e.wal.close(wipe); err == nil {
			err = werr
		}
	}
	return err
}
