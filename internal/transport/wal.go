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
	"strconv"
	"strings"
	"sync"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/metrics"
)

// The write-ahead log makes a stage engine's accepted-but-unflushed items
// survive a process crash. It is one family of segment files (wal-<gen>.log)
// beside the wal.meta record, an event log of everything the engine decided,
// all written at the log's end in the one active segment:
//
//   - a batch record per accepted Submit, whoever sent it: the batch's
//     sequence base followed by the Submit request body as it arrived
//     (appendBatchCall: the (stream, pos) dedup stamp and the batch in the
//     wire codec), so the mark and the data it guards cannot be separated by
//     a crash. Item i of a record has sequence number base+1+i; a batch's
//     numbers are therefore contiguous, which Stamp, their only writer on
//     the ingest path, guarantees;
//   - a cut record when the scheduler cuts an epoch: its id and sequence
//     range (cuts take every pending item, and a cut excludes every ingest
//     from its stamp to its append, so an epoch is always a contiguous
//     range);
//   - an ack or drop record when the flusher's push is acked downstream or
//     permanently fails.
//
// Every segment opens with a checkpoint record: the state the log's records
// before it add up to. It holds the horizon H — every sequence number <= H
// belongs to a resolved cut; H is the highest resolved cut's max, held one
// below the lowest unresolved cut's min — the highest epoch id issued, every
// cut above H with whether it has resolved, and each stream's last logged
// position. A sealed segment whose every item is <= H therefore holds
// nothing the active segment's checkpoint does not summarize, and is
// deleted once that checkpoint is synced. The directory holds the items of
// unresolved epochs, the cuts above H and one mark per stream.
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
//   - the wal.meta record and each new segment: synced in full, and then
//     their directory (syncDir), before anything is logged behind them.
//
// A record's sync is data-only (dataSync: fdatasync(2) on Linux, File.Sync
// elsewhere), and that is enough: the blocks a record overwrites, and the
// segment's size, were made durable when the segment was created, so the
// record changes no metadata a reader needs. A record larger than a whole
// segment extends its file; fdatasync(2) syncs the size a read of the data
// needs along with the data. Each acknowledged Submit waits for one sync,
// under w.mu.
//
// Recovery (recoverWAL) reads every segment and rewrites none: marks are the
// highest position per stream, cuts and resolutions the union of the
// checkpoints and records, and an item is dropped only when it is <= H or
// lies inside a resolved cut. The recovered segments become the sealed
// segments of the reopened log, so a burned sequence range stays a gap.

// WAL record types. Types 1, 2, 6, 7 and 8 are retired (1 and 6 were the
// meta and batch records of a layout that logged each item in a codec of its
// own; 7 and 8 the mark replica and meta record of the layout with a
// separate epoch log) and never reused, so a directory in an older layout is
// refused at its meta record instead of misread.
const (
	walRecCut        byte = 3  // epoch id, min seq, max seq
	walRecAck        byte = 4  // epoch id resolved: delivered downstream
	walRecDrop       byte = 5  // epoch id resolved: permanently failed / dropped
	walRecBatch      byte = 9  // one ingested batch: uvarint base | Submit request body
	walRecMeta       byte = 10 // stream id + admitted batch kind
	walRecCheckpoint byte = 11 // H, epoch max, cuts above H, marks
)

// DefaultWALSegmentBytes is a segment's size on disk: each is created as
// this many zeros, and a record that does not fit in the space left opens
// the next. Sealed segments become deletable as their epochs resolve.
const DefaultWALSegmentBytes = 4 << 20

const walMetaName = "wal.meta"

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
// its scheduler (cut records), and its flusher (resolve records).
type wal struct {
	dir      string
	segBytes int64

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
// read from it, nil for a directory without state: then stream and the batch
// kind the items are encoded as are persisted as the meta record (batch
// records carry no kind of their own; recoverWAL checks the directory's
// against the engine's), and any segment a wipe left behind is deleted. A
// fresh segment opens with a checkpoint and is synced; the recovered
// segments become sealed ones, and those the horizon covers are deleted.
func openWAL(dir string, segBytes int64, stream int64, kind core.BatchKind, rec *walRecovery) (*wal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("transport: wal dir: %w", err)
	}
	w := &wal{dir: dir, segBytes: segBytes, cuts: make(map[int64]walCut), marks: make(map[int64]int64)}
	if rec != nil {
		w.sealed, w.horizon, w.epochMax, w.cuts, w.marks = rec.sealed, rec.horizon, rec.epochMax, rec.cuts, rec.marks
	} else {
		stale, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log"))
		for _, p := range stale {
			os.Remove(p)
		}
		f, err := os.OpenFile(filepath.Join(dir, walMetaName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err == nil {
			_, err = f.Write(appendRecord(nil, walRecMeta, appendWireInts(nil, stream, int64(kind))))
			if err == nil {
				err = f.Sync()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err == nil {
			err = syncDir(dir)
		}
		if err != nil {
			return nil, fmt.Errorf("transport: wal meta: %w", err)
		}
	}
	w.gen = walStartGen(dir)
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

// checkpoint frames the checkpoint record of the log's state: H, the
// highest epoch id, the cuts above H and the marks.
func (w *wal) checkpoint() []byte {
	body := appendWireInts(nil, w.horizon, w.epochMax, int64(len(w.cuts)))
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
// ack that is not may be lost, as anywhere.
func (w *wal) writeLocked(b []byte, sync bool) error {
	n := int64(len(b))
	if w.size+n > w.segBytes && (n <= w.segBytes || w.size >= w.segBytes) {
		w.f.Close()
		w.sealed = append(w.sealed, walSealed{path: w.path, maxSeq: w.maxSeq})
		if err := w.startSegmentLocked(); err != nil {
			return err
		}
	}
	if _, err := w.f.WriteAt(b, w.size); err != nil {
		return err
	}
	w.size += int64(len(b))
	w.dirty = true
	if sync {
		return w.syncLocked()
	}
	return nil
}

// syncLocked makes the active segment's records durable, if it is dirty,
// with a data-only sync (dataSync).
func (w *wal) syncLocked() error {
	if !w.dirty {
		return nil
	}
	var start time.Time
	if w.fsync != nil {
		start = time.Now()
	}
	if err := dataSync(w.f); err != nil {
		return err
	}
	if w.fsync != nil {
		w.fsync.Observe(time.Since(start).Seconds())
	}
	w.dirty = false
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

// appendBatch logs one ingested, sequence-stamped batch as one atomic,
// fsynced record: its sequence base and the Submit request body carrying its
// (stream, pos) dedup stamp and every item. A batch whose sequence numbers
// are not contiguous has no base to log and is refused. The engine
// acknowledges the batch only after this returns, so a crash can never
// persist the mark without the items (a retry swallowed, items lost) or the
// items without the mark (a retry double-ingesting). The stamp becomes the
// stream's mark once it is logged, so the checkpoint of the next segment
// holds it. The engine calls it under the read side of its closeMu, before
// the batch joins the pending chunks, so an epoch cut (the write side) never
// sees a batch that is logged but not visible, or visible but not logged.
func (w *wal) appendBatch(stream, pos int64, b core.Batch) error {
	n := b.Len()
	base := b.Seq(0) - 1
	for i := 1; i < n; i++ {
		if b.Seq(i) != base+1+int64(i) {
			return fmt.Errorf("transport: wal append: item %d has sequence number %d, want %d: a logged batch is one contiguous range", i, b.Seq(i), base+1+int64(i))
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	body := binary.AppendUvarint(w.buf[:0], uint64(base))
	body = appendBatchCall(body, stream, pos, b)
	// The record is framed behind its body in the same buffer.
	buf := appendRecord(body, walRecBatch, body)
	w.buf = buf[:0]
	if err := w.writeLocked(buf[len(body):], true); err != nil {
		return fmt.Errorf("transport: wal append: %w", err)
	}
	w.appendRecords.Add(float64(n))
	w.maxSeq = max(w.maxSeq, base+int64(n))
	if stream != 0 {
		w.marks[stream] = max(w.marks[stream], pos)
	}
	return nil
}

// logCut records a cut epoch's id and sequence range as an fsynced record —
// the barrier that makes a pushed epoch replayable under the same id after a
// crash. The epoch's items are already durable: appendBatch fsyncs every
// batch before it becomes visible to a cut.
func (w *wal) logCut(id, minSeq, maxSeq int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writeLocked(appendRecord(nil, walRecCut, appendWireInts(nil, id, minSeq, maxSeq)), true); err != nil {
		return fmt.Errorf("transport: wal cut: %w", err)
	}
	w.cuts[id] = walCut{min: minSeq, max: maxSeq}
	w.epochMax = max(w.epochMax, id)
	return nil
}

// resolve marks an epoch delivered (ack) or permanently failed (drop, which
// is fsynced: see the file comment), advances the horizon, and deletes the
// sealed segments it now covers. A force drain's drop resolves its cut ahead
// of an epoch still in flight, so resolutions come out of id order; the
// horizon stays below the unresolved one.
func (w *wal) resolve(id int64, delivered bool) error {
	typ := walRecAck
	if !delivered {
		typ = walRecDrop
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writeLocked(appendRecord(nil, typ, appendWireInts(nil, id)), !delivered); err != nil {
		return fmt.Errorf("transport: wal resolve: %w", err)
	}
	if c, ok := w.cuts[id]; ok {
		c.resolved = true
		w.cuts[id] = c
	}
	w.advanceLocked()
	w.pruneLocked()
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

// closeFiles closes the active segment without syncing (the crash path).
func (w *wal) closeFiles() {
	w.mu.Lock()
	w.closeLocked()
	w.mu.Unlock()
}

// close shuts the log down. wipe (set when the engine drained cleanly with
// nothing pending or unresolved) deletes the meta record, then every
// segment: the directory then holds no state to recover and the next start
// is fresh.
func (w *wal) close(wipe bool) error {
	w.mu.Lock()
	err := w.syncLocked()
	w.closeLocked()
	w.mu.Unlock()
	if wipe && err == nil {
		os.Remove(filepath.Join(w.dir, walMetaName))
		paths, _ := filepath.Glob(filepath.Join(w.dir, walSegmentPrefix+"-*.log"))
		for _, p := range paths {
			os.Remove(p)
		}
	}
	return err
}

// walRecovery is everything a restarted engine rebuilds from the log.
type walRecovery struct {
	stream   int64
	seqMax   int64
	epochMax int64
	horizon  int64
	pending  core.Batch // accepted, never cut; sorted by seq
	// epochs were cut but never resolved, sorted by id: their items must be
	// re-processed and re-pushed under the same id so downstream
	// (stream, epoch) dedup absorbs the replay.
	epochs []*epoch
	marks  map[int64]int64  // stream -> last position logged
	cuts   map[int64]walCut // every cut above the horizon
	sealed []walSealed      // every segment read: the reopened log's sealed ones
}

// recoverWAL reads a log directory back into engine state. It returns
// (nil, nil) when the directory holds no recoverable state. kind is the batch
// kind the recovering engine admits; a directory whose meta record names
// another kind was written by a different role, and one whose meta record is
// of a retired type was written in another layout: both are refused before
// anything in it is read. A CRC-valid batch or checkpoint record that does
// not parse, or a batch of another kind, is refused too.
func recoverWAL(dir string, kind core.BatchKind) (*walRecovery, error) {
	metaBytes, err := os.ReadFile(filepath.Join(dir, walMetaName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("transport: wal recover meta: %w", err)
	}
	rec := &walRecovery{marks: make(map[int64]int64), cuts: make(map[int64]walCut)}
	typ, body, rerr := readRecord(bufio.NewReader(strings.NewReader(string(metaBytes))))
	if rerr == nil && typ != walRecMeta {
		return nil, fmt.Errorf("transport: wal dir %s was written in a retired layout (meta record type %d, this build reads type %d); drain it with the build that wrote it, or remove it", dir, typ, walRecMeta)
	}
	meta := wireReader{b: body}
	rec.stream = meta.int()
	held := core.BatchKind(meta.int())
	if rerr != nil || meta.done() != nil {
		return nil, fmt.Errorf("transport: wal meta corrupt")
	}
	if held != kind {
		return nil, fmt.Errorf("transport: wal dir %s holds %v, this stage ingests %v", dir, held, kind)
	}

	items := make(map[int64]core.Batch) // seq -> that item as a batch of one
	resolved := make(map[int64]bool)
	addCut := func(id int64, c walCut) {
		if c.resolved {
			resolved[id] = true
		}
		rec.cuts[id] = walCut{min: c.min, max: c.max}
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
			b.Stamp(int64(base))
			for i := 0; i < b.Len(); i++ {
				items[b.Seq(i)] = b.Slice(i, i+1)
			}
			seg.maxSeq = max(seg.maxSeq, int64(base)+int64(b.Len()))
			if stream != 0 {
				rec.marks[stream] = max(rec.marks[stream], pos)
			}
		case walRecCheckpoint:
			rec.horizon = max(rec.horizon, r.int())
			rec.epochMax = max(rec.epochMax, r.int())
			for n := r.count(); n > 0; n-- {
				addCut(r.int(), walCut{min: r.int(), max: r.int(), resolved: r.int() != 0})
			}
			for n := r.count(); n > 0; n-- {
				stream, pos := r.int(), r.int()
				rec.marks[stream] = max(rec.marks[stream], pos)
			}
			if err := r.done(); err != nil {
				return fmt.Errorf("checkpoint record: %w", err)
			}
		case walRecCut:
			if id, c := r.int(), (walCut{min: r.int(), max: r.int()}); r.done() == nil {
				addCut(id, c)
			}
		case walRecAck, walRecDrop:
			if id := r.int(); r.done() == nil {
				resolved[id] = true
				rec.epochMax = max(rec.epochMax, id)
			}
		}
		return nil
	}
	paths, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log"))
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

	// Drop every item at or below the horizon or inside a resolved cut;
	// regroup the items of unresolved cuts under their original ids; the
	// rest is pending.
	var openIDs []int64
	for id, c := range rec.cuts {
		switch {
		case c.max <= rec.horizon:
			delete(rec.cuts, id)
		case resolved[id]:
			rec.cuts[id] = walCut{min: c.min, max: c.max, resolved: true}
		default:
			openIDs = append(openIDs, id)
		}
	}
	sort.Slice(openIDs, func(i, j int) bool { return openIDs[i] < openIDs[j] })
	epochItems := make(map[int64][]int64)
	var pendingSeqs []int64
	for seq := range items {
		if seq <= rec.horizon {
			continue
		}
		in, id := false, int64(0)
		for cid, c := range rec.cuts {
			if seq >= c.min && seq <= c.max {
				in, id = true, cid
				break
			}
		}
		switch {
		case !in:
			pendingSeqs = append(pendingSeqs, seq)
		case !rec.cuts[id].resolved:
			epochItems[id] = append(epochItems[id], seq)
		}
	}
	gather := func(seqs []int64) core.Batch {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		var out core.Batch
		for _, sq := range seqs {
			out, _ = out.Append(items[sq]) // every record's kind was checked
		}
		return out
	}
	rec.pending = gather(pendingSeqs)
	for _, id := range openIDs {
		if batch := gather(epochItems[id]); batch.Len() > 0 {
			rec.epochs = append(rec.epochs, &epoch{id: id, batch: batch})
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

// walStartGen scans a directory for the highest existing segment generation
// so fresh segments never collide with recovered ones.
func walStartGen(dir string) int64 {
	paths, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log"))
	var gen int64
	for _, p := range paths {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), walSegmentPrefix+"-"), ".log")
		if g, err := strconv.ParseInt(name, 10, 64); err == nil {
			gen = max(gen, g)
		}
	}
	return gen
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
