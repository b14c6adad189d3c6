package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/metrics"
)

// The write-ahead log makes a stage engine's accepted-but-unflushed items
// survive a process crash. It is two segment families in one directory
// beside the wal.meta record. The ingest log (fwd-*.log) holds one record
// per accepted batch, whoever sent it: the batch's (stream, pos) dedup stamp
// and every item with its global sequence stamp, so the mark and the data it
// guards cannot be separated by a crash. The epoch log (epochs-*.log) holds the rest: when the
// scheduler cuts an epoch, its id and sequence range (cuts take every
// pending item, and stamping completes under the shard lock, so an epoch is
// always a contiguous range); when the flusher's push is acked downstream —
// or permanently fails — an ack/drop record; and a replica of each nonzero
// dedup mark. Ingest segments whose every item belongs to a resolved epoch
// are deleted.
//
// Durability points:
//
//   - batch records: fsynced before the batch is acknowledged;
//   - cut records: fsynced before the epoch may be pushed — every item the
//     cut covers was fsynced before it was acknowledged, so a pushed epoch's
//     membership is always recoverable and a retried push after restart
//     reuses the same epoch id for downstream dedup;
//   - ack/drop and mark-replica records: not fsynced. Losing an ack re-pushes
//     a delivered epoch, which downstream (stream, epoch) dedup absorbs; the
//     authoritative copy of a mark is its batch record.
//
// Recovery (recoverWAL) reads every file back, drops items of resolved
// epochs, regroups items of cut-but-unresolved epochs under their original
// ids, and returns the rest as pending — then the engine rewrites the
// surviving state into fresh segments (compaction) and deletes the old
// files. Recovery is idempotent: items dedup by sequence number, cuts by
// epoch id, so a crash mid-migration is absorbed by the next recovery.

// WAL record types. Type 2 is retired, never reused.
const (
	walRecMeta  byte = 1 // stream id + admitted batch kind
	walRecCut   byte = 3 // epoch id + [minSeq, maxSeq]
	walRecAck   byte = 4 // epoch id resolved: delivered downstream
	walRecDrop  byte = 5 // epoch id resolved: permanently failed / dropped
	walRecBatch byte = 6 // one ingested batch: (stream, pos) mark + items
	walRecMark  byte = 7 // mark replica in the epoch log (survives truncation)
)

// walMigrateSlice bounds the items migrateWAL writes per batch record, so a
// recovered backlog is rewritten as records far below readRecord's cap.
const walMigrateSlice = 4096

// DefaultWALSegmentBytes rotates a segment once it exceeds this size; sealed
// segments become deletable as their epochs resolve.
const DefaultWALSegmentBytes = 4 << 20

const walMetaName = "wal.meta"

// walIngestPrefix names the ingest log's segments (fwd-<gen>.log).
const walIngestPrefix = "fwd"

// walRange is an epoch's contiguous sequence range, inclusive.
type walRange struct{ min, max int64 }

// walSegment is one append-only record file.
type walSegment struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	size   int64
	maxSeq int64
	dirty  bool // has records not yet fsynced
	buf    []byte
	fsync  *metrics.Histogram // fsync latency; nil disables (see attachMetrics)
}

// walSealed is a rotated (immutable) segment awaiting resolution.
type walSealed struct {
	path   string
	maxSeq int64
}

// wal is the engine's write-ahead log over one directory. It is shared by
// the engine's ingest path (batch appends under the engine's shard locks),
// its scheduler (cut records), and its flusher (resolve records); each
// segment has its own lock and the epoch log has the wal lock, so the paths
// only contend where they genuinely share a file.
type wal struct {
	dir      string
	segBytes int64

	gen    int64 // monotonic file-generation counter (naming only)
	ingest *walSegment

	mu         sync.Mutex // epoch log, sealed registry, resolution state
	epochLog   *walSegment
	sealed     []walSealed
	unresolved map[int64]walRange
	stableSeq  int64 // every seq <= stableSeq belongs to a resolved epoch
	logErr     error // first write failure, surfaced on close

	appendRecords *metrics.Counter // items logged; nil disables
}

// appendRecord frames one record (type, uvarint length, body, crc32 over
// type+body) into dst.
func appendRecord(dst []byte, typ byte, body []byte) []byte {
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(body)
	return binary.LittleEndian.AppendUint32(dst, crc.Sum32())
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

// openWAL opens (or creates) the log directory for appending. stream and
// the batch kind the items are encoded as are persisted on first creation
// (batch records carry no kind of their own; recoverWAL checks the
// directory's against the engine's); on an existing directory the caller
// passes the recovered stream. New segment generations continue after
// startGen so fresh files never collide with files a recovery still has to
// delete.
func openWAL(dir string, segBytes int64, stream int64, kind core.BatchKind, startGen int64) (*wal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("transport: wal dir: %w", err)
	}
	w := &wal{
		dir:        dir,
		segBytes:   segBytes,
		gen:        startGen,
		unresolved: make(map[int64]walRange),
	}
	metaPath := filepath.Join(dir, walMetaName)
	if _, err := os.Stat(metaPath); os.IsNotExist(err) {
		body := appendWireInts(nil, stream, int64(kind))
		if err := os.WriteFile(metaPath, appendRecord(nil, walRecMeta, body), 0o644); err != nil {
			return nil, fmt.Errorf("transport: wal meta: %w", err)
		}
		if f, err := os.Open(metaPath); err == nil {
			f.Sync()
			f.Close()
		}
	}
	var err error
	if w.ingest, err = w.newSegment(walIngestPrefix); err != nil {
		w.closeFiles()
		return nil, err
	}
	if w.epochLog, err = w.newSegment("epochs"); err != nil {
		w.closeFiles()
		return nil, err
	}
	return w, nil
}

// newSegment creates the next generation of a prefix's segment file.
func (w *wal) newSegment(prefix string) (*walSegment, error) {
	w.mu.Lock()
	w.gen++
	gen := w.gen
	w.mu.Unlock()
	path := filepath.Join(w.dir, fmt.Sprintf("%s-%012d.log", prefix, gen))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("transport: wal segment: %w", err)
	}
	return &walSegment{f: f, path: path}, nil
}

// write appends framed bytes to a locked segment.
func (s *walSegment) write(b []byte) error {
	if _, err := s.f.Write(b); err != nil {
		return err
	}
	s.size += int64(len(b))
	s.dirty = true
	return nil
}

// syncLocked fsyncs a locked dirty segment.
func (s *walSegment) syncLocked() error {
	if !s.dirty {
		return nil
	}
	var start time.Time
	if s.fsync != nil {
		start = time.Now()
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	if s.fsync != nil {
		s.fsync.Observe(time.Since(start).Seconds())
	}
	s.dirty = false
	return nil
}

// rotateLocked seals a segment that outgrew segBytes: the current file joins
// the sealed registry (deletable once its items resolve) and a fresh
// generation takes over. Called with s.mu held.
func (w *wal) rotateLocked(s *walSegment, prefix string) error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	next, err := w.newSegment(prefix)
	if err != nil {
		return err
	}
	s.f.Close()
	w.mu.Lock()
	w.sealed = append(w.sealed, walSealed{path: s.path, maxSeq: s.maxSeq})
	w.mu.Unlock()
	s.f, s.path, s.size, s.maxSeq = next.f, next.path, 0, 0
	s.dirty = false
	return nil
}

// appendBatch logs one ingested, sequence-stamped batch as one atomic,
// fsynced record carrying its (stream, pos) dedup stamp and every item. The
// engine acknowledges the batch only after this returns, so a crash can never
// persist the mark without the items (a retry swallowed, items lost) or the
// items without the mark (a retry double-ingesting). A nonzero stamp also
// gets a best-effort mark replica in the epoch log, which outlives the
// ingest segment's truncation. Must be called under the engine's ingest-shard
// lock (it is what makes "batch in the log" and "batch visible to the epoch
// cut" atomic).
func (w *wal) appendBatch(stream, pos int64, b core.Batch) error {
	s := w.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	n := b.Len()
	body := s.buf[:0]
	body = binary.AppendVarint(body, stream)
	body = binary.AppendVarint(body, pos)
	body = binary.AppendUvarint(body, uint64(n))
	var item []byte
	for i := 0; i < n; i++ {
		sq := b.Seq(i)
		body = binary.AppendUvarint(body, uint64(sq))
		item = b.AppendItem(item[:0], i)
		body = binary.AppendUvarint(body, uint64(len(item)))
		body = append(body, item...)
		if sq > s.maxSeq {
			s.maxSeq = sq
		}
	}
	s.buf = body
	if err := s.write(appendRecord(nil, walRecBatch, body)); err != nil {
		return fmt.Errorf("transport: wal append: %w", err)
	}
	if err := s.syncLocked(); err != nil {
		return fmt.Errorf("transport: wal append sync: %w", err)
	}
	w.appendRecords.Add(float64(n))
	if stream != 0 || pos != 0 {
		w.logMark(stream, pos)
	}
	if s.size >= w.segBytes {
		return w.rotateLocked(s, walIngestPrefix)
	}
	return nil
}

// appendEpochLocked writes one record to the epoch log. Caller holds w.mu.
func (w *wal) appendEpochLocked(typ byte, body []byte, sync bool) error {
	w.epochLog.mu.Lock()
	defer w.epochLog.mu.Unlock()
	if err := w.epochLog.write(appendRecord(w.epochLog.buf[:0], typ, body)); err != nil {
		w.logErr = err
		return err
	}
	if sync {
		if err := w.epochLog.syncLocked(); err != nil {
			w.logErr = err
			return err
		}
	}
	return nil
}

// logCut records a cut epoch's id and sequence range as an fsynced record —
// the barrier that makes a pushed epoch replayable under the same id after a
// crash. The epoch's items are already durable: appendBatch fsyncs every
// batch before it becomes visible to a cut.
func (w *wal) logCut(id, minSeq, maxSeq int64) error {
	body := binary.AppendVarint(nil, id)
	body = binary.AppendUvarint(body, uint64(minSeq))
	body = binary.AppendUvarint(body, uint64(maxSeq))
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendEpochLocked(walRecCut, body, true); err != nil {
		return fmt.Errorf("transport: wal cut: %w", err)
	}
	w.unresolved[id] = walRange{min: minSeq, max: maxSeq}
	return nil
}

// logMark replicates a dedup mark into the epoch log (unsynced; the
// authoritative copy is the batch record).
func (w *wal) logMark(stream, pos int64) {
	body := binary.AppendVarint(nil, stream)
	body = binary.AppendVarint(body, pos)
	w.mu.Lock()
	w.appendEpochLocked(walRecMark, body, false)
	w.mu.Unlock()
}

// resolve marks an epoch delivered (ack) or permanently failed (drop),
// advances the stable sequence horizon, and deletes sealed segments whose
// every item is now resolved. Epochs resolve in id order (the flusher is
// FIFO), so the horizon only moves forward.
func (w *wal) resolve(id int64, delivered bool) {
	typ := walRecAck
	if !delivered {
		typ = walRecDrop
	}
	w.mu.Lock()
	w.appendEpochLocked(typ, binary.AppendVarint(nil, id), false)
	if rng, ok := w.unresolved[id]; ok {
		delete(w.unresolved, id)
		if rng.max > w.stableSeq {
			w.stableSeq = rng.max
		}
	}
	var stale []string
	kept := w.sealed[:0]
	for _, sg := range w.sealed {
		if sg.maxSeq <= w.stableSeq {
			stale = append(stale, sg.path)
		} else {
			kept = append(kept, sg)
		}
	}
	w.sealed = kept
	w.mu.Unlock()
	for _, path := range stale {
		os.Remove(path)
	}
}

// unresolvedCount reports how many cut epochs still await resolution.
func (w *wal) unresolvedCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.unresolved)
}

// syncAll fsyncs the ingest segment and the epoch log if dirty.
func (w *wal) syncAll() error {
	var first error
	for _, s := range []*walSegment{w.ingest, w.epochLog} {
		s.mu.Lock()
		err := s.syncLocked()
		s.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// closeFiles closes every open segment without syncing (the crash path).
func (w *wal) closeFiles() {
	for _, s := range []*walSegment{w.ingest, w.epochLog} {
		if s == nil {
			continue
		}
		s.mu.Lock()
		if s.f != nil {
			s.f.Close()
			s.f = nil
		}
		s.mu.Unlock()
	}
}

// close shuts the log down. wipe (set when the engine drained cleanly with
// nothing pending or unresolved) deletes every log file: the directory then
// holds no state to recover and the next start is fresh.
func (w *wal) close(wipe bool) error {
	err := w.syncAll()
	if w.logErr != nil && err == nil {
		err = w.logErr
	}
	w.closeFiles()
	if wipe && err == nil {
		paths, _ := filepath.Glob(filepath.Join(w.dir, "*.log"))
		for _, p := range paths {
			os.Remove(p)
		}
		os.Remove(filepath.Join(w.dir, walMetaName))
	}
	return err
}

// walRecovery is everything a restarted engine rebuilds from the log.
type walRecovery struct {
	stream   int64
	seqMax   int64
	epochMax int64
	pending  core.Batch // accepted, never cut; sorted by seq
	// epochs were cut but never resolved, sorted by id: their items must be
	// re-processed and re-pushed under the same id so downstream
	// (stream, epoch) dedup absorbs the replay.
	epochs []*epoch
	marks  [][2]int64 // dedup marks to restore
	files  []string   // every log file read (deleted post-migration)
}

// recoverWAL reads a log directory back into engine state. It returns
// (nil, nil) when the directory holds no recoverable state. Items decode as
// kind, the batch kind the recovering engine admits; a directory whose meta
// record names another kind was written by a different role and is refused
// before anything in it is read, let alone rewritten.
func recoverWAL(dir string, kind core.BatchKind) (*walRecovery, error) {
	metaPath := filepath.Join(dir, walMetaName)
	metaBytes, err := os.ReadFile(metaPath)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("transport: wal recover meta: %w", err)
	}
	rec := &walRecovery{}
	r := bufio.NewReader(strings.NewReader(string(metaBytes)))
	typ, body, rerr := readRecord(r)
	meta := wireReader{b: body}
	rec.stream = meta.int()
	held := core.BatchKind(meta.int())
	if rerr != nil || typ != walRecMeta || meta.done() != nil {
		return nil, fmt.Errorf("transport: wal meta corrupt")
	}
	if held != kind {
		return nil, fmt.Errorf("transport: wal dir %s holds %v, this stage ingests %v", dir, held, kind)
	}

	items := make(map[int64][]byte) // seq -> payload (first writer wins)
	cuts := make(map[int64]walRange)
	resolved := make(map[int64]bool)
	markSet := make(map[[2]int64]bool)

	readFile := func(path string, handle func(typ byte, body []byte)) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		br := bufio.NewReader(f)
		for {
			typ, body, err := readRecord(br)
			if err != nil {
				return nil // clean EOF or torn tail: stop reading this file
			}
			handle(typ, body)
		}
	}
	addItem := func(seq int64, payload []byte) {
		if _, ok := items[seq]; !ok {
			items[seq] = append([]byte(nil), payload...)
		}
		if seq > rec.seqMax {
			rec.seqMax = seq
		}
	}

	glob := func(pattern string) []string {
		paths, _ := filepath.Glob(filepath.Join(dir, pattern))
		sort.Strings(paths) // generation order (zero-padded)
		return paths
	}
	for _, path := range glob(walIngestPrefix + "-*.log") {
		rec.files = append(rec.files, path)
		if err := readFile(path, func(typ byte, body []byte) {
			if typ != walRecBatch {
				return
			}
			stream, k := binary.Varint(body)
			if k <= 0 {
				return
			}
			body = body[k:]
			pos, k := binary.Varint(body)
			if k <= 0 {
				return
			}
			body = body[k:]
			n, k := binary.Uvarint(body)
			if k <= 0 {
				return
			}
			body = body[k:]
			for i := uint64(0); i < n; i++ {
				seq, k := binary.Uvarint(body)
				if k <= 0 {
					return
				}
				body = body[k:]
				ln, k := binary.Uvarint(body)
				if k <= 0 || ln > uint64(len(body)-k) {
					return
				}
				addItem(int64(seq), body[k:k+int(ln)])
				body = body[k+int(ln):]
			}
			if stream != 0 || pos != 0 {
				markSet[[2]int64{stream, pos}] = true
			}
		}); err != nil {
			return nil, fmt.Errorf("transport: wal recover %s: %w", path, err)
		}
	}
	for _, path := range glob("epochs-*.log") {
		rec.files = append(rec.files, path)
		if err := readFile(path, func(typ byte, body []byte) {
			switch typ {
			case walRecCut:
				id, k := binary.Varint(body)
				if k <= 0 {
					return
				}
				body = body[k:]
				min, k := binary.Uvarint(body)
				if k <= 0 {
					return
				}
				max, k2 := binary.Uvarint(body[k:])
				if k2 <= 0 {
					return
				}
				if _, ok := cuts[id]; !ok {
					cuts[id] = walRange{min: int64(min), max: int64(max)}
				}
				if id > rec.epochMax {
					rec.epochMax = id
				}
				if int64(max) > rec.seqMax {
					rec.seqMax = int64(max)
				}
			case walRecAck, walRecDrop:
				id, k := binary.Varint(body)
				if k <= 0 {
					return
				}
				resolved[id] = true
				if id > rec.epochMax {
					rec.epochMax = id
				}
			case walRecMark:
				stream, k := binary.Varint(body)
				if k <= 0 {
					return
				}
				epoch, k2 := binary.Varint(body[k:])
				if k2 <= 0 {
					return
				}
				markSet[[2]int64{stream, epoch}] = true
			}
		}); err != nil {
			return nil, fmt.Errorf("transport: wal recover %s: %w", path, err)
		}
	}

	// Drop every item of a resolved epoch; regroup the items of unresolved
	// cut epochs under their original ids; the rest is pending.
	var stable int64
	var openIDs []int64
	for id, rng := range cuts {
		if resolved[id] {
			if rng.max > stable {
				stable = rng.max
			}
		} else {
			openIDs = append(openIDs, id)
		}
	}
	sort.Slice(openIDs, func(i, j int) bool { return openIDs[i] < openIDs[j] })

	inOpen := func(seq int64) int64 {
		for _, id := range openIDs {
			rng := cuts[id]
			if seq >= rng.min && seq <= rng.max {
				return id
			}
		}
		return 0
	}
	epochItems := make(map[int64][]int64)
	var pendingSeqs []int64
	for seq := range items {
		if seq <= stable {
			continue
		}
		if id := inOpen(seq); id != 0 {
			epochItems[id] = append(epochItems[id], seq)
		} else {
			pendingSeqs = append(pendingSeqs, seq)
		}
	}
	sort.Slice(pendingSeqs, func(i, j int) bool { return pendingSeqs[i] < pendingSeqs[j] })

	decode := func(seqs []int64) (core.Batch, error) {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		var out core.Batch
		for _, sq := range seqs {
			item, err := core.DecodeItem(kind, items[sq], sq)
			if err == nil {
				out, err = out.Append(item)
			}
			if err != nil {
				return core.Batch{}, fmt.Errorf("transport: wal decode seq %d: %w", sq, err)
			}
		}
		return out, nil
	}
	if rec.pending, err = decode(pendingSeqs); err != nil {
		return nil, err
	}
	for _, id := range openIDs {
		batch, err := decode(epochItems[id])
		if err != nil {
			return nil, err
		}
		if batch.Len() == 0 {
			continue
		}
		rec.epochs = append(rec.epochs, &epoch{id: id, batch: batch})
	}
	for mark := range markSet {
		rec.marks = append(rec.marks, mark)
	}
	sort.Slice(rec.marks, func(i, j int) bool {
		if rec.marks[i][0] != rec.marks[j][0] {
			return rec.marks[i][0] < rec.marks[j][0]
		}
		return rec.marks[i][1] < rec.marks[j][1]
	})
	return rec, nil
}

// walStartGen scans a directory for the highest existing file generation so
// fresh segments never collide with files recovery is about to delete.
func walStartGen(dir string) int64 {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	var max int64
	for _, p := range paths {
		base := strings.TrimSuffix(filepath.Base(p), ".log")
		if i := strings.LastIndexByte(base, '-'); i >= 0 {
			if g, err := strconv.ParseInt(base[i+1:], 10, 64); err == nil && g > max {
				max = g
			}
		}
	}
	return max
}

// migrateWAL rewrites recovered state into the fresh log (compaction): the
// pending items and each unresolved epoch's items as unstamped batch records
// of at most walMigrateSlice items, every unresolved epoch's cut record, and
// the dedup marks — all fsynced — then deletes the old files. A crash
// mid-migration leaves both generations on disk; the next recovery's seq/id
// dedup reads them as one.
func migrateWAL(w *wal, rec *walRecovery) error {
	appendSlices := func(b core.Batch) error {
		for lo := 0; lo < b.Len(); lo += walMigrateSlice {
			if err := w.appendBatch(0, 0, b.Slice(lo, min(lo+walMigrateSlice, b.Len()))); err != nil {
				return err
			}
		}
		return nil
	}
	if err := appendSlices(rec.pending); err != nil {
		return err
	}
	for _, ep := range rec.epochs {
		if err := appendSlices(ep.batch); err != nil {
			return err
		}
		min, max := seqRange(ep.batch)
		if err := w.logCut(ep.id, min, max); err != nil {
			return err
		}
	}
	for _, mark := range rec.marks {
		w.logMark(mark[0], mark[1])
	}
	if err := w.syncAll(); err != nil {
		return err
	}
	for _, path := range rec.files {
		os.Remove(path)
	}
	return nil
}
