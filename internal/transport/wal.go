package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/metrics"
)

// The write-ahead log makes a stage engine's accepted-but-unflushed items
// survive a process crash. It is one family of segment files (wal-<gen>.log)
// and nothing else: an event log of everything the engine decided, all
// written at the log's end in the one active segment:
//
//   - a batch record per accepted Submit, whoever sent it: the engine's
//     chunk of it (engine.go), as its sequence base min−1 followed by the
//     Submit request body as it arrived (appendBatchCall: the (stream, pos)
//     dedup stamp and the batch in the wire codec), so the mark and the data
//     it guards cannot be separated by a crash. Item i of a record has
//     sequence number base+1+i; no item carries a number of its own;
//   - a cut record when the scheduler cuts an epoch: its id and sequence
//     range (cuts take every pending chunk, and a cut excludes every ingest
//     from its numbering to its append, so an epoch is always a contiguous
//     range);
//   - an ack or drop record when the flusher's push is acked downstream or
//     permanently fails, or a final drain drops a below-floor epoch. Each
//     carries the epoch's id and range, as the cut does, and resolves the
//     range alone: the below-floor drop has no cut record to be torn from.
//
// Every segment opens with a checkpoint record: the log's push stream id and
// the batch kind its items are, and the state the log's records before it
// add up to. That state is the horizon H — every sequence number <= H
// belongs to a resolved cut; H is the highest resolved cut's max, held one
// below the lowest unresolved cut's min — the highest epoch id issued, every
// cut above H with whether it has resolved, and each stream's last logged
// position. A sealed segment whose every item is <= H therefore holds
// nothing the active segment's checkpoint does not summarize, and is
// deleted once that checkpoint is synced: any suffix of the segments is a
// valid log. The directory holds the items of unresolved epochs, the cuts
// above H and one mark per stream.
//
// A segment takes its full size on disk from the moment it is created: it is
// written as segBytes of zeros and synced, file and directory entry, before
// its checkpoint is written. Records then overwrite the zeros from the front;
// the log's end is w.size, not the file's. A zero byte starts no valid
// record (its checksum fails), so recovery stops at the first zero past the
// log's end as it stops at a torn tail.
//
// One lock, w.mu, guards the active segment and the log's state: appends,
// cuts and resolutions share the one file, so they share its lock.
//
// Durability points:
//
//   - batch records: synced before the batch is acknowledged;
//   - cut records: synced before the epoch may be pushed — every item the
//     cut covers was synced before it was acknowledged, so a pushed epoch's
//     membership is always recoverable and a retried push after restart
//     reuses the same epoch id for downstream dedup;
//   - drop records: synced before the next epoch is pushed. Downstream
//     dedup keeps one position per stream, so a dropped epoch re-pushed
//     after a restart would land behind a later epoch and be acked without
//     being ingested; a synced drop is never pushed again;
//   - ack records and checkpoints: not synced on their own (a checkpoint
//     rides the segment's next sync, and is synced before any segment it
//     summarizes is deleted). Losing an ack re-pushes a delivered epoch,
//     which downstream dedup absorbs;
//   - each new segment: synced in full, and then its directory (syncDir),
//     before anything is logged in it.
//
// A record's sync is data-only (dataSync: fdatasync(2) on Linux, File.Sync
// elsewhere), and that is enough: the blocks a record overwrites, and the
// segment's size, were made durable when the segment was created, so the
// record changes no metadata a reader needs. A record larger than a whole
// segment extends its file; fdatasync(2) syncs the size a read of the data
// needs along with the data. Each acknowledged Submit waits for one sync,
// under w.mu.
//
// The first write or sync that fails fails the log for good (failure): after
// a failed fsync the file's state is unknown (Rebello et al., USENIX ATC
// 2020), so every later record is refused with that error, and the engine
// pushes, drops and acknowledges nothing more until a restart.
//
// Recovery (recoverWAL) reads every segment and rewrites none: marks are the
// highest position per stream, cuts and resolutions the union of the
// checkpoints and records, and a batch record, kept whole, is dropped only
// when it lies at or below H or inside a resolved cut. A cut takes whole
// chunks, so a record that overlaps a cut (or H) without lying inside it was
// not written by an engine, and recovery refuses the directory, as it does a
// record type this build does not write and a CRC-valid record that does not
// parse. The recovered segments become the sealed segments of the reopened
// log, so a burned sequence range stays a gap.

// WAL record types. Types 1, 2, 6, 7, 8, 10, 11 and 12 are retired and never
// reused, so a directory an older build wrote is refused, not misread.
const (
	walRecCut        byte = 3  // epoch id, min seq, max seq
	walRecAck        byte = 4  // epoch id, min seq, max seq: delivered downstream
	walRecDrop       byte = 5  // epoch id, min seq, max seq: permanently failed / dropped
	walRecBatch      byte = 9  // one ingested batch: uvarint base | Submit request body
	walRecCheckpoint byte = 13 // stream id, batch kind, H, epoch max, cuts above H, marks
)

// DefaultWALSegmentBytes is a segment's size on disk: each is created as
// this many zeros, and a record that does not fit in the space left opens
// the next. Sealed segments become deletable as their epochs resolve.
const DefaultWALSegmentBytes = 4 << 20

// walSegmentPrefix names the log's segments (wal-<gen>.log).
const walSegmentPrefix = "wal"

// walCut is an epoch's contiguous sequence range, inclusive, and whether the
// epoch has resolved.
type walCut struct {
	min, max int64
	resolved bool
}

// walSealed is a rotated (immutable) segment awaiting the horizon.
type walSealed struct {
	path   string
	maxSeq int64
}

// wal is the engine's write-ahead log over one directory. It is shared by
// the engine's ingest path (batch appends, concurrent with each other),
// its scheduler (cut records, and drop records for a final drain), and its
// flusher (ack and drop records).
type wal struct {
	dir      string
	segBytes int64
	stream   int64          // the engine's push stream, named in every checkpoint
	kind     core.BatchKind // the batch kind the items are, named in every checkpoint

	mu     sync.Mutex // everything below
	f      *os.File   // the active segment
	path   string
	size   int64
	maxSeq int64  // highest sequence number logged in the active segment
	dirty  bool   // the active segment has records not yet fsynced
	buf    []byte // reused by appendBatch: the batch body, then its framed record
	gen    int64  // file-generation counter (naming only)
	sealed []walSealed

	horizon  int64            // H: every seq <= horizon belongs to a resolved cut
	epochMax int64            // highest epoch id cut
	cuts     map[int64]walCut // every cut above the horizon
	marks    map[int64]int64  // stream -> last position logged

	failed atomic.Pointer[error] // the first write or sync error; set, it refuses every record (failure)

	appendRecords *metrics.Counter   // items logged; nil disables
	fsync         *metrics.Histogram // syncLocked latency, not a new segment's full sync; nil disables (see attachMetrics)
}

// appendRecord frames one record (type, uvarint length, body, crc32 over
// type+body) into dst. body may be dst's own contents (appendBatch frames a
// record behind its body in one buffer): the checksum reads the copy just
// appended.
func appendRecord(dst []byte, typ byte, body []byte) []byte {
	start := len(dst)
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	head := len(dst)
	dst = append(dst, body...)
	crc := crc32.Update(0, crc32.IEEETable, dst[start:start+1])
	crc = crc32.Update(crc, crc32.IEEETable, dst[head:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// readRecord reads one framed record into a fresh buffer. io.EOF means a
// clean end of file; any other error (short read, CRC mismatch, absurd
// length) means the rest of the file is unreadable — a torn tail from a
// crash — and the reader stops there. The length is read from a file a crash
// may have torn, so the buffer grows only as bytes arrive (readBody): a
// corrupt length costs one read chunk, not the length it claims.
func readRecord(r *bufio.Reader) (byte, []byte, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return 0, nil, io.EOF
	}
	n, err := binary.ReadUvarint(r)
	if err != nil || n > maxWireFrame {
		return 0, nil, io.ErrUnexpectedEOF
	}
	rec, err := readBody(r, int(n)+4)
	if err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	body := rec[:n]
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(body)
	if crc.Sum32() != binary.LittleEndian.Uint32(rec[n:]) {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return typ, body, nil
}

// openWAL opens the log directory for appending. rec is what recoverWAL
// read from it, nil for a directory without segments. stream is a fresh
// log's push stream; a recovered log keeps the one its checkpoints name.
// Every segment's checkpoint names the stream and the kind the items are,
// which recoverWAL checks against the engine's. A fresh segment opens with a
// checkpoint and is synced; the recovered segments become sealed ones, and
// those the horizon covers are deleted.
func openWAL(dir string, segBytes int64, stream int64, kind core.BatchKind, rec *walRecovery) (*wal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("transport: wal dir: %w", err)
	}
	w := &wal{dir: dir, segBytes: segBytes, stream: stream, kind: kind, cuts: make(map[int64]walCut), marks: make(map[int64]int64)}
	if rec != nil {
		w.sealed, w.horizon, w.epochMax, w.cuts, w.marks = rec.sealed, rec.horizon, rec.epochMax, rec.cuts, rec.marks
		if rec.stream != 0 { // else no checkpoint survived: nothing was ever logged
			w.stream = rec.stream
		}
		// New segments go past the last one read (names sort by generation).
		fmt.Sscanf(filepath.Base(rec.sealed[len(rec.sealed)-1].path), walSegmentPrefix+"-%d.log", &w.gen)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advanceLocked()
	err := w.startSegmentLocked()
	if err == nil {
		err = w.syncLocked()
	}
	if err != nil {
		w.closeLocked()
		return nil, err
	}
	w.pruneLocked()
	return w, nil
}

// walZeros is what a new segment is written with, one chunk at a time.
var walZeros [64 << 10]byte

// startSegmentLocked opens the next generation's segment as the active one:
// segBytes of zeros, synced in full with its directory entry (see the file
// comment; a segment that fails this never held a record and is removed),
// then its checkpoint, unsynced: the segment's next sync carries it with the
// record that follows.
func (w *wal) startSegmentLocked() error {
	w.gen++
	path := filepath.Join(w.dir, fmt.Sprintf("%s-%012d.log", walSegmentPrefix, w.gen))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("transport: wal segment: %w", err)
	}
	for off := int64(0); off < w.segBytes && err == nil; off += int64(len(walZeros)) {
		_, err = f.Write(walZeros[:min(int64(len(walZeros)), w.segBytes-off)])
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = syncDir(w.dir)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("transport: wal segment: %w", err)
	}
	w.f, w.path, w.size, w.maxSeq = f, path, 0, 0
	return w.writeLocked(w.checkpoint(), false)
}

// checkpoint frames the checkpoint record of the log's state: the stream
// and kind, H, the highest epoch id, the cuts above H and the marks.
func (w *wal) checkpoint() []byte {
	body := appendWireInts(nil, w.stream, int64(w.kind), w.horizon, w.epochMax, int64(len(w.cuts)))
	for id, c := range w.cuts {
		resolved := int64(0)
		if c.resolved {
			resolved = 1
		}
		body = appendWireInts(body, id, c.min, c.max, resolved)
	}
	body = appendWireInts(body, int64(len(w.marks)))
	for stream, pos := range w.marks {
		body = appendWireInts(body, stream, pos)
	}
	return appendRecord(nil, walRecCheckpoint, body)
}

// writeLocked writes framed bytes at the log's end in the active segment,
// syncing it if sync. A record that does not fit in the space the segment
// has left seals it first — it joins the sealed segments, deletable once
// the horizon covers its items — and opens the next one, behind its
// checkpoint: a failed rotation refuses the record instead of leaving it
// logged but refused. A record larger than a whole segment is written
// where it starts, extending the file, unless the segment is full already.
// Every record a sealed segment holds that must be durable already is; an
// ack that is not may be lost, as anywhere. A failed write fails the log.
func (w *wal) writeLocked(b []byte, sync bool) error {
	if err := w.failure(); err != nil {
		return err
	}
	n := int64(len(b))
	if w.size+n > w.segBytes && (n <= w.segBytes || w.size >= w.segBytes) {
		w.f.Close()
		w.sealed = append(w.sealed, walSealed{path: w.path, maxSeq: w.maxSeq})
		if err := w.startSegmentLocked(); err != nil {
			return w.failLocked(err)
		}
	}
	if _, err := w.f.WriteAt(b, w.size); err != nil {
		return w.failLocked(err)
	}
	w.size += int64(len(b))
	w.dirty = true
	if sync {
		return w.syncLocked()
	}
	return nil
}

// syncLocked makes the active segment's records durable, if it is dirty,
// with a data-only sync (dataSync). A failed sync fails the log.
func (w *wal) syncLocked() error {
	if err := w.failure(); err != nil || !w.dirty {
		return err
	}
	var start time.Time
	if w.fsync != nil {
		start = time.Now()
	}
	if err := dataSync(w.f); err != nil {
		return w.failLocked(err)
	}
	if w.fsync != nil {
		w.fsync.Observe(time.Since(start).Seconds())
	}
	w.dirty = false
	return nil
}

// failLocked fails the log with err, unless it has failed already, and
// returns its failure.
func (w *wal) failLocked(err error) error {
	err = fmt.Errorf("transport: wal failed: %w", err)
	w.failed.CompareAndSwap(nil, &err)
	return w.failure()
}

// failure is the error that failed the log, nil while it has not failed (and
// for a nil log: an engine without one). It takes no lock, so a liveness
// probe does not wait behind a sync.
func (w *wal) failure() error {
	if w == nil {
		return nil
	}
	if err := w.failed.Load(); err != nil {
		return *err
	}
	return nil
}

// advanceLocked recomputes the horizon from the cuts — the highest resolved
// max, held one below the lowest unresolved cut's min — and forgets the
// cuts it covers.
func (w *wal) advanceLocked() {
	open, done := int64(math.MaxInt64), w.horizon
	for _, c := range w.cuts {
		if c.resolved {
			done = max(done, c.max)
		} else {
			open = min(open, c.min-1)
		}
	}
	w.horizon = max(w.horizon, min(open, done))
	for id, c := range w.cuts {
		if c.max <= w.horizon {
			delete(w.cuts, id)
		}
	}
}

// pruneLocked deletes the sealed segments whose every item is at or below
// the horizon, after syncing the active segment, whose checkpoint
// summarizes them. A failed sync deletes nothing.
func (w *wal) pruneLocked() {
	stale := 0
	for _, sg := range w.sealed {
		if sg.maxSeq <= w.horizon {
			stale++
		}
	}
	if stale == 0 || w.syncLocked() != nil {
		return
	}
	kept := w.sealed[:0]
	for _, sg := range w.sealed {
		if sg.maxSeq <= w.horizon {
			os.Remove(sg.path)
		} else {
			kept = append(kept, sg)
		}
	}
	w.sealed = kept
}

// appendBatch logs one ingested batch, the engine's chunk c, as one atomic,
// fsynced record: its sequence base c.min−1 and the Submit request body
// carrying its (stream, pos) dedup stamp and every item. The engine
// acknowledges the batch only after this returns, so a crash can never
// persist the mark without the items (a retry swallowed, items lost) or the
// items without the mark (a retry double-ingesting). The stamp becomes the
// stream's mark once it is logged, so the checkpoint of the next segment
// holds it. The engine calls it under the read side of its closeMu, before
// the batch joins the pending chunks, so an epoch cut (the write side) never
// sees a batch that is logged but not visible, or visible but not logged.
func (w *wal) appendBatch(stream, pos int64, c chunk) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	body := binary.AppendUvarint(w.buf[:0], uint64(c.min-1))
	body = appendBatchCall(body, stream, pos, c.items)
	// The record is framed behind its body in the same buffer.
	buf := appendRecord(body, walRecBatch, body)
	w.buf = buf[:0]
	if err := w.writeLocked(buf[len(body):], true); err != nil {
		return err
	}
	w.appendRecords.Add(float64(c.items.Len()))
	w.maxSeq = max(w.maxSeq, c.max)
	w.marks[stream] = max(w.marks[stream], pos)
	return nil
}

// logCut records a cut epoch's id and sequence range as an fsynced record —
// the barrier that makes a pushed epoch replayable under the same id after a
// crash. The epoch's items are already durable: appendBatch fsyncs every
// batch before it becomes visible to a cut.
func (w *wal) logCut(id, minSeq, maxSeq int64) error {
	return w.logEpoch(walRecCut, id, minSeq, maxSeq)
}

// logAck records an epoch delivered downstream, not synced: a lost ack
// re-pushes the epoch after a restart, and downstream dedup absorbs it.
func (w *wal) logAck(id, minSeq, maxSeq int64) error {
	return w.logEpoch(walRecAck, id, minSeq, maxSeq)
}

// logDrop records an epoch given up as dropped — a failed push, or the
// below-floor epoch a final drain releases without a cut record of its own —
// as an fsynced record, before the next epoch is pushed (see the file
// comment).
func (w *wal) logDrop(id, minSeq, maxSeq int64) error {
	return w.logEpoch(walRecDrop, id, minSeq, maxSeq)
}

// logEpoch writes a cut, ack or drop record and applies it; without a log
// (nil) it does nothing. An ack or drop resolves its range, advances the
// horizon and deletes the sealed segments it now covers. A force drain's
// drop resolves its range ahead of an epoch still in flight, so resolutions
// come out of id order; the horizon stays below the unresolved one.
func (w *wal) logEpoch(typ byte, id, minSeq, maxSeq int64) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writeLocked(appendRecord(nil, typ, appendWireInts(nil, id, minSeq, maxSeq)), typ != walRecAck); err != nil {
		return err
	}
	w.cuts[id] = walCut{min: minSeq, max: maxSeq, resolved: typ != walRecCut}
	w.epochMax = max(w.epochMax, id)
	if typ != walRecCut {
		w.advanceLocked()
		w.pruneLocked()
	}
	return nil
}

// unresolvedCount reports how many cut epochs still await resolution.
func (w *wal) unresolvedCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, c := range w.cuts {
		if !c.resolved {
			n++
		}
	}
	return n
}

// closeLocked closes the active segment without syncing it.
func (w *wal) closeLocked() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// close shuts the log down. wipe (set when the engine drained cleanly with
// nothing pending or unresolved) deletes every segment, oldest first: the
// directory then holds no state to recover and the next start is fresh, and
// a crash in the middle leaves the newest segments, whose checkpoints hold
// the state the deleted ones added up to.
func (w *wal) close(wipe bool) error {
	w.mu.Lock()
	err := w.syncLocked()
	w.closeLocked()
	w.mu.Unlock()
	if wipe && err == nil {
		paths, _ := filepath.Glob(filepath.Join(w.dir, walSegmentPrefix+"-*.log")) // generation order (zero-padded)
		for _, p := range paths {
			os.Remove(p)
		}
	}
	return err
}

// walRecovery is everything a restarted engine rebuilds from the log.
type walRecovery struct {
	stream   int64 // named by the checkpoints; 0 if none survived
	seqMax   int64
	epochMax int64
	horizon  int64
	pending  chunk // accepted, never cut
	// epochs were cut but never resolved, sorted by id, each with its cut's
	// range: their items must be re-processed and re-pushed under the same
	// id so downstream (stream, epoch) dedup absorbs the replay.
	epochs []*epoch
	marks  map[int64]int64  // stream -> last position logged
	cuts   map[int64]walCut // every cut above the horizon
	sealed []walSealed      // every segment read: the reopened log's sealed ones
}

// recoverWAL reads a log directory back into engine state. It returns
// (nil, nil) when the directory holds no segment. kind is the batch kind the
// recovering engine admits; a checkpoint naming another kind was written by a
// different role, and the directory is refused. So is one holding a record of
// a type this build does not write (an older build's layout), a CRC-valid
// record that does not parse, a batch of another kind, checkpoints naming
// different streams, or a batch record that overlaps a cut without lying
// inside it. A refusal changes no file.
func recoverWAL(dir string, kind core.BatchKind) (*walRecovery, error) {
	paths, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log"))
	if len(paths) == 0 {
		return nil, nil
	}
	rec := &walRecovery{marks: make(map[int64]int64), cuts: make(map[int64]walCut)}
	var records []chunk // every nonempty batch record
	// addCut merges a cut, its resolution or a checkpoint's copy of either;
	// records come in log order, so a resolution sticks.
	addCut := func(id int64, c walCut) {
		c.resolved = c.resolved || rec.cuts[id].resolved
		rec.cuts[id] = c
		rec.epochMax = max(rec.epochMax, id)
		rec.seqMax = max(rec.seqMax, c.max)
	}
	handle := func(seg *walSealed, typ byte, body []byte) error {
		r := wireReader{b: body}
		switch typ {
		case walRecBatch:
			// readRecord's buffer is fresh, so the batch may alias it.
			base, k := binary.Uvarint(body)
			if k <= 0 {
				return fmt.Errorf("batch record: corrupt sequence base")
			}
			stream, pos, b, err := parseBatchCall(body[k:])
			if err != nil {
				return fmt.Errorf("batch record: %w", err)
			}
			if b.Kind() != kind {
				return fmt.Errorf("batch record holds %v, this stage ingests %v", b.Kind(), kind)
			}
			c := chunk{min: int64(base) + 1, max: int64(base) + int64(b.Len()), items: b}
			if b.Len() > 0 {
				records = append(records, c)
			}
			seg.maxSeq = max(seg.maxSeq, c.max)
			rec.marks[stream] = max(rec.marks[stream], pos)
		case walRecCheckpoint:
			stream, held := r.int(), core.BatchKind(r.int())
			rec.horizon = max(rec.horizon, r.int())
			rec.epochMax = max(rec.epochMax, r.int())
			for n := r.count(); n > 0; n-- {
				addCut(r.int(), walCut{min: r.int(), max: r.int(), resolved: r.int() != 0})
			}
			for n := r.count(); n > 0; n-- {
				stream, pos := r.int(), r.int()
				rec.marks[stream] = max(rec.marks[stream], pos)
			}
			switch err := r.done(); {
			case err != nil:
				return fmt.Errorf("checkpoint record: %w", err)
			case held != kind:
				return fmt.Errorf("checkpoint record holds %v, this stage ingests %v", held, kind)
			case stream == 0 || rec.stream != 0 && stream != rec.stream:
				return fmt.Errorf("checkpoint record names stream %d where the log's is %d", stream, rec.stream)
			}
			rec.stream = stream
		case walRecCut, walRecAck, walRecDrop:
			id, c := r.int(), walCut{min: r.int(), max: r.int(), resolved: typ != walRecCut}
			if err := r.done(); err != nil {
				return fmt.Errorf("record type %d: %w", typ, err)
			}
			addCut(id, c)
		default:
			return fmt.Errorf("record type %d is not one this build writes; recover the directory with the build that wrote it, or remove it", typ)
		}
		return nil
	}
	sort.Strings(paths) // generation order (zero-padded)
	for _, path := range paths {
		seg := walSealed{path: path}
		if err := readSegment(path, func(typ byte, body []byte) error { return handle(&seg, typ, body) }); err != nil {
			return nil, fmt.Errorf("transport: wal recover %s: %w", path, err)
		}
		rec.sealed = append(rec.sealed, seg)
		rec.seqMax = max(rec.seqMax, seg.maxSeq)
	}
	rec.seqMax = max(rec.seqMax, rec.horizon)

	// Place each record whole, in sequence order: at or below the horizon or
	// inside a resolved cut it is done, inside an unresolved cut it rejoins
	// that epoch, and in no cut it is pending. Cuts are disjoint, so one walk
	// over both, each sorted by min, places every record.
	var cuts []*epoch // every cut above the horizon
	for id, c := range rec.cuts {
		if c.max <= rec.horizon {
			delete(rec.cuts, id)
			continue
		}
		cuts = append(cuts, &epoch{chunk: chunk{min: c.min, max: c.max}, id: id})
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].min < cuts[j].min })
	sort.Slice(records, func(i, j int) bool { return records[i].min < records[j].min })
	next := 0
	for _, r := range records {
		for next < len(cuts) && cuts[next].max < r.min {
			next++
		}
		switch {
		case r.max <= rec.horizon: // resolved, and its segment not yet deleted
		case r.min <= rec.horizon:
			return nil, fmt.Errorf("transport: wal recover: batch record [%d, %d] straddles the horizon %d", r.min, r.max, rec.horizon)
		case next == len(cuts) || r.max < cuts[next].min:
			_ = rec.pending.add(r) // every record's kind was checked
		case r.min < cuts[next].min || r.max > cuts[next].max:
			return nil, fmt.Errorf("transport: wal recover: batch record [%d, %d] overlaps cut %d [%d, %d] without lying inside it",
				r.min, r.max, cuts[next].id, cuts[next].min, cuts[next].max)
		case !rec.cuts[cuts[next].id].resolved:
			cuts[next].items, _ = cuts[next].items.Append(r.items)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].id < cuts[j].id })
	for _, ep := range cuts {
		if ep.items.Len() > 0 {
			rec.epochs = append(rec.epochs, ep)
		}
	}
	return rec, nil
}

// readSegment hands every whole record of one segment to handle, stopping
// at a clean end of file or a torn tail.
func readSegment(path string, handle func(typ byte, body []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for {
		typ, body, err := readRecord(br)
		if err != nil {
			return nil
		}
		if err := handle(typ, body); err != nil {
			return err
		}
	}
}

// syncDir makes the names created in dir durable: syncing a file does not
// sync its directory entry (fsync(2)). Windows cannot sync a directory
// handle, and there it does nothing.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
