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
// survive a process crash. Every accepted item is appended (with its global
// sequence stamp) to one of the per-ingest-shard segment files before the
// submission is acknowledged; when the scheduler cuts an epoch it records the
// epoch's id and sequence range (cuts take every pending item, and stamping
// completes under the shard lock, so an epoch is always a contiguous range);
// and when the flusher's push is acked downstream — or permanently fails —
// the epoch is resolved with an ack/drop record. Segments whose every item
// belongs to a resolved epoch are deleted. Forward ingests (at-least-once
// pushes from an upstream hop) are logged as a single fsynced record that
// carries both the items and the (stream, epoch) dedup mark, so the mark and
// the data it guards cannot be separated by a crash.
//
// Durability points:
//
//   - item records: fsynced every EpochConfig.WALSync records (default every
//     append call), the throughput/durability trade-off knob;
//   - cut records: every dirty segment is fsynced, then the cut record is
//     appended and fsynced, before the epoch may be pushed — so a pushed
//     epoch's membership is always recoverable and a retried push after
//     restart reuses the same epoch id for downstream dedup;
//   - forward records: fsynced before the upstream push is acknowledged;
//   - ack/drop records: not fsynced. Losing one re-pushes a delivered epoch,
//     which downstream (stream, epoch) dedup absorbs.
//
// Recovery (recoverWAL) reads every file back, drops items of resolved
// epochs, regroups items of cut-but-unresolved epochs under their original
// ids, and returns the rest as pending — then the engine rewrites the
// surviving state into fresh segments (compaction) and deletes the old
// files. Recovery is idempotent: items dedup by sequence number, cuts by
// epoch id, so a crash mid-migration is absorbed by the next recovery.

// WAL record types.
const (
	walRecMeta byte = 1 // stream id + admitted batch kind
	walRecItem byte = 2 // seq + item payload
	walRecCut  byte = 3 // epoch id + [minSeq, maxSeq]
	walRecAck  byte = 4 // epoch id resolved: delivered downstream
	walRecDrop byte = 5 // epoch id resolved: permanently failed / dropped
	walRecFwd  byte = 6 // forward ingest: (stream, epoch) mark + items
	walRecMark byte = 7 // mark replica in the epoch log (survives truncation)
)

// DefaultWALSegmentBytes rotates a segment once it exceeds this size; sealed
// segments become deletable as their epochs resolve.
const DefaultWALSegmentBytes = 4 << 20

const walMetaName = "wal.meta"

// walRange is an epoch's contiguous sequence range, inclusive.
type walRange struct{ min, max int64 }

// walSegment is one append-only record file.
type walSegment struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	size     int64
	maxSeq   int64
	unsynced int  // records appended since the last fsync
	dirty    bool // has records not yet fsynced
	buf      []byte
	fsync    *metrics.Histogram // fsync latency; nil disables (see attachMetrics)
}

// walSealed is a rotated (immutable) segment awaiting resolution.
type walSealed struct {
	path   string
	maxSeq int64
}

// wal is the engine's write-ahead log over one directory. It is shared by
// the engine's ingest path (per-shard appends under the engine's shard
// locks), its scheduler (cut records), and its flusher (resolve records);
// each segment has its own lock and the epoch log has the wal lock, so the
// paths only contend where they genuinely share a file.
type wal struct {
	dir       string
	syncEvery int // fsync a segment every N records; <= 0: every append
	segBytes  int64
	stream    int64

	gen    int64 // monotonic file-generation counter (naming only)
	shards []*walSegment
	fwd    *walSegment

	mu         sync.Mutex // epoch log, sealed registry, resolution state
	epochLog   *walSegment
	sealed     []walSealed
	unresolved map[int64]walRange
	stableSeq  int64 // every seq <= stableSeq belongs to a resolved epoch
	logErr     error // first write failure, surfaced on close

	appendRecords *metrics.Counter // item+forward records logged; nil disables
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

// readRecord reads one framed record, reusing buf. io.EOF means a clean end
// of file; any other error (short read, CRC mismatch, absurd length) means
// the rest of the file is unreadable — a torn tail from a crash — and the
// reader stops there.
func readRecord(r *bufio.Reader, buf []byte) (byte, []byte, []byte, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return 0, nil, buf, io.EOF
	}
	n, err := binary.ReadUvarint(r)
	if err != nil || n > 1<<30 {
		return 0, nil, buf, io.ErrUnexpectedEOF
	}
	if cap(buf) < int(n)+4 {
		buf = make([]byte, int(n)+4)
	}
	buf = buf[:int(n)+4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, io.ErrUnexpectedEOF
	}
	body := buf[:n]
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(body)
	if crc.Sum32() != binary.LittleEndian.Uint32(buf[n:]) {
		return 0, nil, buf, io.ErrUnexpectedEOF
	}
	return typ, body, buf, nil
}

// openWAL opens (or creates) the log directory for appending. stream and
// the batch kind the items are encoded as are persisted on first creation
// (item records carry no kind of their own; recoverWAL checks the directory's
// against the engine's); on an existing directory the caller passes the
// recovered stream. New segment generations continue after startGen so fresh
// files never collide with files a recovery still has to delete.
func openWAL(dir string, shards int, syncEvery int, segBytes int64, stream int64, kind core.BatchKind, startGen int64) (*wal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("transport: wal dir: %w", err)
	}
	w := &wal{
		dir:        dir,
		syncEvery:  syncEvery,
		segBytes:   segBytes,
		stream:     stream,
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
	w.shards = make([]*walSegment, shards)
	for i := range w.shards {
		if w.shards[i], err = w.newSegment(fmt.Sprintf("shard-%04d", i)); err != nil {
			w.closeFiles()
			return nil, err
		}
	}
	if w.fwd, err = w.newSegment("fwd"); err != nil {
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
func (s *walSegment) write(b []byte, records int) error {
	if _, err := s.f.Write(b); err != nil {
		return err
	}
	s.size += int64(len(b))
	s.unsynced += records
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
	s.unsynced = 0
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
	s.unsynced, s.dirty = 0, false
	return nil
}

// appendItems logs a stamped batch into shard idx's segment: one item record
// each, fsynced per the WALSync cadence. Must be called under the engine's
// matching ingest-shard lock (it is what makes "item in the log" and "item
// visible to the epoch cut" atomic).
func (w *wal) appendItems(idx int, b core.Batch) error {
	s := w.shards[idx%len(w.shards)]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.buf[:0]
	var body []byte
	for i, n := 0, b.Len(); i < n; i++ {
		sq := b.Seq(i)
		body = b.AppendItem(binary.AppendUvarint(body[:0], uint64(sq)), i)
		s.buf = appendRecord(s.buf, walRecItem, body)
		if sq > s.maxSeq {
			s.maxSeq = sq
		}
	}
	if err := s.write(s.buf, b.Len()); err != nil {
		return fmt.Errorf("transport: wal append: %w", err)
	}
	w.appendRecords.Add(float64(b.Len()))
	if w.syncEvery <= 0 || s.unsynced >= w.syncEvery {
		if err := s.syncLocked(); err != nil {
			return fmt.Errorf("transport: wal sync: %w", err)
		}
	}
	if s.size >= w.segBytes {
		return w.rotateLocked(s, fmt.Sprintf("shard-%04d", idx%len(w.shards)))
	}
	return nil
}

// appendForward logs a forward ingest as one atomic, fsynced record carrying
// the (stream, epoch) dedup mark and every item — acknowledged to the
// upstream pusher only after this returns, so a crash can never persist the
// mark without the items (a retry swallowed, items lost) or the items
// without the mark (a retry double-ingesting). A best-effort mark replica
// goes into the epoch log, which outlives the forward segment's truncation.
func (w *wal) appendForward(stream, epoch int64, b core.Batch) error {
	s := w.fwd
	s.mu.Lock()
	defer s.mu.Unlock()
	n := b.Len()
	body := s.buf[:0]
	body = binary.AppendVarint(body, stream)
	body = binary.AppendVarint(body, epoch)
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
	if err := s.write(appendRecord(nil, walRecFwd, body), 1); err != nil {
		return fmt.Errorf("transport: wal forward: %w", err)
	}
	if err := s.syncLocked(); err != nil {
		return fmt.Errorf("transport: wal forward sync: %w", err)
	}
	w.appendRecords.Add(float64(n))
	w.logMark(stream, epoch)
	if s.size >= w.segBytes {
		return w.rotateLocked(s, "fwd")
	}
	return nil
}

// appendEpochLocked writes one record to the epoch log. Caller holds w.mu.
func (w *wal) appendEpochLocked(typ byte, body []byte, sync bool) error {
	w.epochLog.mu.Lock()
	defer w.epochLog.mu.Unlock()
	if err := w.epochLog.write(appendRecord(w.epochLog.buf[:0], typ, body), 1); err != nil {
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

// logCut records a cut epoch's id and sequence range, fsyncing first every
// dirty item segment (the epoch's items must be durable before its
// membership is) and then the cut record itself — the barrier that makes a
// pushed epoch replayable under the same id after a crash.
func (w *wal) logCut(id, minSeq, maxSeq int64) error {
	for _, s := range append(append([]*walSegment{}, w.shards...), w.fwd) {
		s.mu.Lock()
		err := s.syncLocked()
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("transport: wal cut sync: %w", err)
		}
	}
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

// logMark replicates a forward dedup mark into the epoch log (unsynced;
// the authoritative copy is the forward record).
func (w *wal) logMark(stream, epoch int64) {
	body := binary.AppendVarint(nil, stream)
	body = binary.AppendVarint(body, epoch)
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

// syncAll fsyncs every dirty segment and the epoch log.
func (w *wal) syncAll() error {
	var first error
	for _, s := range append(append([]*walSegment{}, w.shards...), w.fwd, w.epochLog) {
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
	for _, s := range append(append([]*walSegment{}, w.shards...), w.fwd, w.epochLog) {
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
	marks  [][2]int64 // forward dedup marks to restore
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
	typ, body, _, rerr := readRecord(r, nil)
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
		var buf []byte
		for {
			typ, body, nbuf, err := readRecord(br, buf)
			buf = nbuf
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
	for _, path := range glob("shard-*.log") {
		rec.files = append(rec.files, path)
		if err := readFile(path, func(typ byte, body []byte) {
			if typ != walRecItem {
				return
			}
			seq, k := binary.Uvarint(body)
			if k <= 0 {
				return
			}
			addItem(int64(seq), body[k:])
		}); err != nil {
			return nil, fmt.Errorf("transport: wal recover %s: %w", path, err)
		}
	}
	for _, path := range glob("fwd-*.log") {
		rec.files = append(rec.files, path)
		if err := readFile(path, func(typ byte, body []byte) {
			if typ != walRecFwd {
				return
			}
			stream, k := binary.Varint(body)
			if k <= 0 {
				return
			}
			body = body[k:]
			epoch, k := binary.Varint(body)
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
			markSet[[2]int64{stream, epoch}] = true
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
// pending items and each unresolved epoch's items as item records, every
// unresolved epoch's cut record, and the forward marks — all fsynced — then
// deletes the old files. A crash mid-migration leaves both generations on
// disk; the next recovery's seq/id dedup reads them as one.
func migrateWAL(w *wal, rec *walRecovery) error {
	if err := w.appendItems(0, rec.pending); err != nil {
		return err
	}
	for _, ep := range rec.epochs {
		if err := w.appendItems(0, ep.batch); err != nil {
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
