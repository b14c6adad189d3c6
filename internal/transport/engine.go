package transport

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
)

// newStreamID draws a random 63-bit stream id. Stream ids name a pusher's
// (stream, epoch)/(stream, seq) dedup space; randomness keeps independent
// pushers (engines, clients, restarted successors without a WAL) from
// colliding.
func newStreamID() (int64, error) {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, err
	}
	id := int64(binary.LittleEndian.Uint64(b[:]) >> 1)
	if id == 0 {
		id = 1 // zero means "no dedup" on the wire
	}
	return id, nil
}

// Push retry policy: a downstream hop rejecting with the retryable
// epoch-full error is backpressure, not failure — the upstream flusher backs
// off and retries while the downstream epoch drains. The bound exists so a
// misconfigured chain (an epoch larger than the next hop's MaxPending can
// never be accepted) surfaces as a failed epoch in Stats instead of a silent
// stall.
const (
	forwardRetries = 400
	forwardDelay   = 25 * time.Millisecond
)

// tier is an engine's downstream tier: its replicas' connections in
// partition order. Pushes are at-least-once — the sender resends after a
// connection failure — so receivers dedup by the (stream, epoch) pair
// stamped on every push.
type tier []*peerConn

// dialTier connects to every replica of a downstream tier.
func dialTier(addrs []string, ab *aborter, fault *FaultPlan) (tier, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("transport: downstream tier needs at least one address")
	}
	t := make(tier, 0, len(addrs))
	for _, addr := range addrs {
		p, err := dialPeer(addr, ab, fault)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("transport: dial next hop %s: %w", addr, err)
		}
		t = append(t, p)
	}
	return t, nil
}

func (t tier) close() {
	for _, p := range t {
		p.Close()
	}
}

// push delivers one processed epoch to the downstream tier: whole to a single
// replica, split by partitionBatch across several. Blinded envelopes route
// by the client-stamped owning partition (core.PartitionOf over the crowd
// ID — consistent, so the partition that thresholds a crowd sees all of it
// no matter which upstream replica the reports entered through); payloads
// and plain envelopes route by content hash, which is deterministic and
// sufficient because their downstream merge is commutative. The parts are
// pushed concurrently, each on its replica's own connection, so the epoch
// costs the slowest partition, not the sum. Every partition receives at most
// one push per (stream, epoch), so per-partition dedup keeps the fan-in
// exactly-once: when a multi-partition push fails halfway and is retried
// (same epoch id, possibly by a WAL-recovered successor), the partitions
// that already ingested absorb the replay. The first (lowest-partition)
// error is reported.
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
// already ridden out connection failures; an epoch-full answer is
// downstream backpressure, so the whole epoch is resent after a pause (the
// flusher blocks, the in-flight queue fills, and this hop starts rejecting
// its own clients). An epoch is never split: its stamp is the epoch id,
// which a WAL-recovered successor replays whole. Any other answer is final.
func (e *engine) pushTo(p *peerConn, id int64, b core.Batch) error {
	err := p.send(e.stream, id, b)
	for i := 0; IsEpochFull(err) && i < forwardRetries; i++ {
		if !e.ab.sleep(forwardDelay) {
			break
		}
		err = p.send(e.stream, id, b)
	}
	switch {
	case err == nil:
		return nil
	case IsEpochFull(err):
		return fmt.Errorf("transport: next hop %s still epoch-full after %d retries "+
			"(its MaxPending must fit this hop's epochs): %w", p.addr, forwardRetries, err)
	}
	return fmt.Errorf("transport: push to next hop %s: %w", p.addr, err)
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
// sub-batches, preserving the within-partition order.
func partitionBatch(out core.Batch, m int) []core.Batch {
	split := make([]core.Batch, m)
	switch out.Kind() {
	case core.KindBlinded:
		for _, env := range out.Blinded {
			i := int(uint32(env.Partition)) % m
			split[i].Blinded = append(split[i].Blinded, env)
		}
	case core.KindEnvelopes:
		for _, env := range out.Envelopes {
			i := contentPartition(env.Blob, m)
			split[i].Envelopes = append(split[i].Envelopes, env)
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
// cut beyond it blocks the scheduler, occupancy then grows to MaxPending,
// and submissions are refused as epoch-full: backpressure, not memory.
const inFlightEpochs = 2

// chunk is one ingest call's batch, kept whole: its items carry the
// contiguous sequence numbers base+1 … base+Len().
type chunk struct {
	base  int64
	items core.Batch
}

// epoch is a cut batch traveling to the flusher. id is assigned at cut time
// (before the WAL cut record), so a crash between cut and push replays the
// epoch under the same id and downstream dedup stays exact. reply is non-nil
// for an epoch a Drain cut; an empty batch is a Drain's pure barrier.
type epoch struct {
	batch core.Batch
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
// with global sequence stamping, an epoch scheduler (occupancy- and
// timer-driven cuts, respecting the stage's anonymity floor), submission
// backpressure at MaxPending, (stream, epoch) dedup of stamped ingests, a
// single in-order flusher feeding the stage, and an at-least-once push of
// each processed epoch to the downstream tier. It admits the one batch kind
// its stage consumes (client envelopes for the plain and SGX shufflers,
// blinded envelopes for the split-shuffler hops) and is otherwise
// indifferent to what an item is: stamping, ordering and the durable item form are
// core.Batch's. See the package comment for the streaming and backpressure
// model.
//
// With EpochConfig.WALDir set, the engine is crash-safe: accepted batches are
// logged before the submission is acknowledged, cut epochs before they are
// pushed, and a restart over the same directory resumes the same stream id,
// re-ingests pending items (sequence stamps preserved, so the cut's merge
// is byte-identical), restores the dedup marks, and re-pushes unresolved
// epochs under their original (stream, epoch) pairs for downstream dedup to
// absorb.
type engine struct {
	stage shuffler.Stage
	next  tier
	kind  core.BatchKind // the one batch kind ingested: what the stage consumes
	floor int
	cfg   EpochConfig
	wal   *wal
	ab    *aborter
	dedup forwardDedup

	stream    int64 // id naming this engine's push stream for dedup; persisted in the WAL
	epochID   atomic.Int64
	seq       atomic.Int64
	occupancy atomic.Int64
	accepted  atomic.Int64
	rejected  atomic.Int64
	dropped   atomic.Int64
	closed    atomic.Bool
	start     time.Time
	// closeMu serializes close — and epoch cuts — against in-flight ingests:
	// keep holds the read side for the whole stamp-log-append, so once a cut
	// holds the write side every stamped item is both in the WAL and in
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
	procSeconds *metrics.Histogram
	pushSeconds *metrics.Histogram
}

// newEngine wires an engine: cfg defaults and clamps applied, downstream
// tier dialed, stream id drawn (or recovered from the WAL), scheduler and
// flusher started. st processes every cut epoch, sets the anonymity floor
// and names the admitted kind; next lists the downstream replicas in
// partition order.
func newEngine(cfg EpochConfig, st shuffler.Stage, next []string) (*engine, error) {
	kind, _ := st.Kinds()
	if kind != core.KindEnvelopes && kind != core.KindBlinded {
		return nil, fmt.Errorf("transport: no stage ingests %v", kind)
	}
	ab := newAborter()
	t, err := dialTier(next, ab, cfg.Fault)
	if err != nil {
		return nil, err
	}
	floor := st.Floor()
	if floor <= 0 {
		floor = 1
	}
	if cfg.FlushAt > 0 && cfg.FlushAt < floor {
		// An epoch below the stage's anonymity floor could never be
		// processed; auto-flush no earlier than the floor.
		cfg.FlushAt = floor
	}
	if cfg.MaxPending <= 0 {
		switch {
		case cfg.FlushAt > 0:
			cfg.MaxPending = 2 * cfg.FlushAt
		case cfg.Interval > 0:
			// Timer-only streaming still must not grow unboundedly when
			// the flusher falls behind; a generous cap keeps the
			// backpressure guarantee.
			cfg.MaxPending = 1 << 20
		}
	}
	if cfg.MaxPending > 0 && cfg.MaxPending < cfg.FlushAt {
		// An occupancy cap below the flush threshold could never be
		// crossed: submissions would bounce forever and no epoch would
		// ever cut. Keep the threshold reachable.
		cfg.MaxPending = cfg.FlushAt
	}
	stream, err := newStreamID()
	if err != nil {
		t.close()
		return nil, fmt.Errorf("transport: stream id: %w", err)
	}

	var (
		w   *wal
		rec *walRecovery
	)
	if cfg.WALDir != "" {
		if rec, err = recoverWAL(cfg.WALDir, kind); err != nil {
			t.close()
			return nil, err
		}
		if rec != nil {
			// Resume the pre-crash push stream: replayed epochs must carry
			// the same (stream, epoch) pairs for downstream dedup.
			stream = rec.stream
		}
		w, err = openWAL(cfg.WALDir, DefaultWALSegmentBytes, stream, kind, walStartGen(cfg.WALDir))
		if err != nil {
			t.close()
			return nil, err
		}
		if rec != nil {
			if err := migrateWAL(w, rec); err != nil {
				w.closeFiles()
				t.close()
				return nil, fmt.Errorf("transport: wal migrate: %w", err)
			}
		}
	}

	e := &engine{
		stage:  st,
		next:   t,
		kind:   kind,
		floor:  floor,
		cfg:    cfg,
		wal:    w,
		ab:     ab,
		stream: stream,
		start:  time.Now(),
		kick:   make(chan struct{}, 1),
		force:  make(chan forceReq),
		epochs: make(chan *epoch, inFlightEpochs),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if rec != nil {
		e.seq.Store(rec.seqMax)
		e.epochID.Store(rec.epochMax)
		e.putBack(rec.pending)
		e.recItems += int64(rec.pending.Len())
		for _, ep := range rec.epochs {
			e.recItems += int64(ep.batch.Len())
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

func (e *engine) isKilled() bool { return e.ab.aborted() }

// ingest is the one way a batch of the admitted kind enters the engine,
// whether a client submitted it or the upstream hop pushed it as an epoch.
// A batch stamped (stream, pos) — nonzero — goes in exactly once: an
// at-least-once retry of a pair already ingested is acknowledged without
// re-ingesting. The engine owns b's items from here on (nothing is copied
// until the cut).
func (e *engine) ingest(stream, pos int64, b core.Batch) error {
	if k := b.Kind(); k != e.kind && k != core.KindEmpty {
		return fmt.Errorf("transport: stage ingests %v, got %v", e.kind, k)
	}
	if b.Len() == 0 {
		return nil
	}
	return e.dedup.ingest(stream, pos, func() error { return e.keep(stream, pos, b) })
}

// keep stamps an ingested batch, enforcing backpressure, and keeps it, whole,
// as one chunk. The call reserves a contiguous sequence range. With a WAL,
// the batch and its (stream, pos) mark are logged as one fsynced record
// before the chunk becomes visible — and before the pair is marked seen and
// the batch acked — so a crash can never keep the mark without the items or
// the items without the mark. The read side of closeMu, held across the
// whole call, is what makes "in the log" and "visible to the next cut"
// atomic: a cut takes the write side, so it sees a kept batch either
// logged and appended or not at all.
func (e *engine) keep(stream, pos int64, b core.Batch) error {
	n := int64(b.Len())
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if limit := int64(e.cfg.MaxPending); limit > 0 {
		if cur := e.occupancy.Add(n); cur > limit {
			e.occupancy.Add(-n)
			e.rejected.Add(n)
			return ErrEpochFull
		}
	} else {
		e.occupancy.Add(n)
	}
	base := e.seq.Add(n) - n
	b.Stamp(time.Now(), base)
	if e.wal != nil {
		if werr := e.wal.appendBatch(stream, pos, b); werr != nil {
			// Durability was promised but cannot be provided: refuse the
			// submission so the client retries (or fails loudly) rather
			// than accepting data the log did not capture.
			e.occupancy.Add(-n)
			e.rejected.Add(n)
			e.recordErr(werr)
			return werr
		}
	}
	e.chunkMu.Lock()
	e.chunks = append(e.chunks, chunk{base: base, items: b})
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

// cut takes every chunk and merges them into one epoch batch, ordered by
// global sequence number — a total order that, for in-order submission, is
// independent of how concurrent ingests interleaved their appends. Holding
// closeMu excludes in-flight ingests, so the cut is a contiguous sequence
// range (see the closeMu comment). Each chunk is a range reserved by one
// ingest call (or a whole earlier cut put back, or the recovered pending
// set, both of which precede everything stamped since), so chunks are
// internally ordered and pairwise disjoint: sorting them by base and
// concatenating is the per-item sort by sequence number, and only the
// gathering needs the exclusive lock.
func (e *engine) cut() core.Batch {
	e.closeMu.Lock()
	e.chunkMu.Lock()
	chunks := e.chunks
	e.chunks = nil
	e.chunkMu.Unlock()
	e.closeMu.Unlock()
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].base < chunks[j].base })
	var batch core.Batch
	for _, c := range chunks {
		var err error
		if batch, err = batch.Append(c.items); err != nil {
			panic(err) // ingest let a second kind in: a bug, not an input
		}
	}
	e.occupancy.Add(-int64(batch.Len()))
	return batch
}

// putBack returns a cut batch to ingestion as one chunk (the items keep
// their sequence stamps, so the next cut's merge restores their order).
func (e *engine) putBack(batch core.Batch) {
	if batch.Len() == 0 {
		return
	}
	e.chunkMu.Lock()
	e.chunks = append(e.chunks, chunk{base: batch.Seq(0) - 1, items: batch})
	e.chunkMu.Unlock()
	e.occupancy.Add(int64(batch.Len()))
}

// cutFloor cuts the pending epoch if it holds at least the stage's anonymity
// floor, and puts a smaller cut back (occupancy can momentarily exceed what
// has been appended, because ingestion bumps the counter before the chunk
// append — the cut, not the counter, is authoritative). It returns the empty
// batch when nothing was cut.
func (e *engine) cutFloor() core.Batch {
	batch := e.cut()
	if batch.Len() >= e.floor {
		return batch
	}
	e.putBack(batch)
	return core.Batch{}
}

// seqRange is a cut batch's first and last sequence number: its membership,
// as the WAL's cut record states it.
func seqRange(batch core.Batch) (min, max int64) {
	return batch.Seq(0), batch.Seq(batch.Len() - 1)
}

// sendEpoch assigns the epoch its id, persists the cut (items synced, then
// the cut record — after this the epoch replays under the same id across a
// crash), and queues it for the flusher, blocking when the in-flight queue
// is full (submission-side backpressure keeps occupancy bounded meanwhile).
func (e *engine) sendEpoch(ep *epoch) {
	if ep.batch.Len() > 0 {
		ep.id = e.epochID.Add(1)
		if e.wal != nil {
			min, max := seqRange(ep.batch)
			e.recordErr(e.wal.logCut(ep.id, min, max))
		}
	}
	e.mu.Lock()
	e.queuedEpochs++
	e.mu.Unlock()
	select {
	case e.epochs <- ep:
	case <-e.ab.ch:
		e.mu.Lock()
		e.queuedEpochs--
		e.mu.Unlock()
	}
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
		case <-e.ab.ch:
			// Simulated crash: no final cut, no flush — the WAL is the
			// only survivor, exactly like a real kill -9.
			return
		case <-e.stop:
			// Drain: flush whatever the final epoch holds, unless it is
			// below the anonymity floor (a smaller batch must not be
			// forwarded; those reports are dropped with the connection,
			// and the loss is counted in Dropped).
			if batch := e.cut(); batch.Len() >= e.floor {
				e.sendEpoch(&epoch{batch: batch})
			} else {
				e.dropCut(batch)
			}
			return
		case <-e.kick:
			if e.occupancy.Load() >= int64(e.cfg.FlushAt) {
				if batch := e.cutFloor(); batch.Len() > 0 {
					e.sendEpoch(&epoch{batch: batch})
				}
			}
		case <-tick:
			if e.occupancy.Load() >= int64(e.floor) {
				if batch := e.cutFloor(); batch.Len() > 0 {
					e.sendEpoch(&epoch{batch: batch})
				}
			}
		case req := <-e.force:
			// A Drain: cut the epoch if it meets the floor; otherwise leave
			// it pending (it may yet grow past the floor) and send the empty
			// batch, a pure barrier. A final drain instead releases the
			// below-floor epoch as Dropped (counted, WAL-resolved): the
			// floor forbids forwarding it, and the caller has declared no
			// more traffic is coming to grow it.
			batch := e.cutFloor()
			if batch.Len() == 0 && req.forceDrop {
				e.dropCut(e.cut())
			}
			e.sendEpoch(&epoch{batch: batch, reply: req.reply})
		}
	}
}

// dropCut counts a cut batch as dropped and records the loss in the WAL so
// a restart over this directory does not resurrect reports the daemon
// already counted as lost. The batch must be cut()-sorted.
func (e *engine) dropCut(batch core.Batch) {
	if batch.Len() == 0 {
		return
	}
	e.dropped.Add(int64(batch.Len()))
	if e.wal != nil {
		id := e.epochID.Add(1)
		min, max := seqRange(batch)
		e.recordErr(e.wal.logCut(id, min, max))
		e.wal.resolve(id, false)
	}
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
		if e.isKilled() {
			return
		}
		e.flushOne(ep)
	}
	e.recovered = nil
	for ep := range e.epochs {
		if e.isKilled() {
			return
		}
		e.flushOne(ep)
	}
}

// flushOne processes and pushes a single epoch, then resolves it in the WAL
// and updates the counters. A delivered epoch is acked; a failed one — its
// processing failed, or its push got a final refusal or outlived the
// sender's redial budget — is dropped: its reports count in Dropped and the
// WAL records the drop, so they are never pushed again, not even after a
// restart.
func (e *engine) flushOne(ep *epoch) {
	var (
		stats shuffler.Stats
		err   error
	)
	if ep.batch.Len() > 0 { // else a Drain barrier: every earlier epoch has been flushed
		var out core.Batch
		procStart := time.Now()
		out, stats, err = e.stage.ProcessEpoch(ep.batch)
		observeSeconds(e.procSeconds, procStart)
		if err == nil {
			pushStart := time.Now()
			err = e.push(ep.id, out)
			observeSeconds(e.pushSeconds, pushStart)
		}
		if e.isKilled() {
			// Simulated crash mid-push: the outcome is unknowable from
			// here (the ack may have been lost in the crash), so leave the
			// epoch unresolved — recovery replays it and downstream dedup
			// decides.
			return
		}
		if e.wal != nil {
			e.wal.resolve(ep.id, err == nil)
		}
	}
	e.mu.Lock()
	e.queuedEpochs--
	if err != nil {
		e.epochsFailed++
		e.lastErr = err
		e.dropped.Add(int64(ep.batch.Len()))
	} else if ep.batch.Len() > 0 {
		e.epochsFlushed++
		e.cum.Received += stats.Received
		e.cum.Undecryptable += stats.Undecryptable
		e.cum.Crowds += stats.Crowds
		e.cum.CrowdsForwarded += stats.CrowdsForwarded
		e.cum.Forwarded += stats.Forwarded
	}
	e.mu.Unlock()
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
	case <-e.ab.ch:
		return ErrClosed
	}
	select {
	case err := <-req.reply:
		return err
	case <-e.ab.ch:
		return ErrClosed
	}
}

// stats snapshots the service's occupancy, epoch counters, and cumulative
// selectivity.
func (e *engine) stats() ServiceStats {
	var reply ServiceStats
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

// healthz is the cheap liveness snapshot. Unlike stats it takes no engine
// locks — only atomics — so a probe cannot block behind an epoch cut
// (closeMu), a slow drain, or a wedged flusher.
func (e *engine) healthz() HealthzReply {
	return HealthzReply{
		Healthy:      !e.closed.Load() && !e.ab.aborted(),
		UptimeMillis: time.Since(e.start).Milliseconds(),
		Pending:      int(e.occupancy.Load()),
		Accepted:     e.accepted.Load(),
	}
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

// abort simulates a crash (kill -9) for the recovery tests: no final cut,
// no flush, no WAL sync — in-flight pushes are interrupted by closing the
// tier's connections, and the log directory is left exactly as a dead
// process would leave it, for a successor engine to recover.
func (e *engine) abort() {
	e.closeMu.Lock()
	swapped := e.closed.CompareAndSwap(false, true)
	e.closeMu.Unlock()
	if !swapped {
		return
	}
	e.ab.abort()
	e.next.close()
	<-e.done
	if e.wal != nil {
		e.wal.closeFiles()
	}
}
