package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"prochlo/internal/core"
)

// walKinds are the two item layouts an engine admits. Every WAL and restart
// test runs over both, through the one record writer and the one decoder.
var walKinds = []core.BatchKind{core.KindEnvelopes, core.KindBlinded}

// forEachKind runs test once per admitted kind.
func forEachKind(t *testing.T, test func(t *testing.T, kind core.BatchKind)) {
	for _, kind := range walKinds {
		t.Run(strings.ReplaceAll(kind.String(), " ", "-"), func(t *testing.T) { test(t, kind) })
	}
}

// closeFiles closes the log's active segment without syncing it: the
// in-process crash of the WAL unit tests, which leaves the directory as a
// kill -9 would.
func (w *wal) closeFiles() {
	w.mu.Lock()
	w.closeLocked()
	w.mu.Unlock()
}

// walItem builds a distinguishable one-item batch; every field of the
// kind's layout is populated.
func walItem(kind core.BatchKind, value string) core.Batch {
	if kind == core.KindBlinded {
		return core.Batch{Blinded: []core.BlindedEnvelope{{
			CrowdC1: []byte("c1:" + value), CrowdC2: []byte("c2:" + value), Blob: []byte(value),
			Partition: 3,
		}}}
	}
	return core.Batch{Envelopes: []core.Envelope{{Blob: []byte(value)}}}
}

// walChunk builds the chunk an engine keeps for one ingest call: one walItem
// per value, numbered from min.
func walChunk(kind core.BatchKind, min int64, values ...string) chunk {
	c := chunk{min: min, max: min + int64(len(values)) - 1}
	for _, v := range values {
		c.items, _ = c.items.Append(walItem(kind, v))
	}
	return c
}

// walDescribe renders a recovered chunk as "[min, max] blob blob …"; for a
// blinded chunk the crowd points and partition must have survived too.
func walDescribe(t *testing.T, c chunk) string {
	t.Helper()
	out := []string{fmt.Sprintf("[%d, %d]", c.min, c.max)}
	for _, e := range c.items.Envelopes {
		out = append(out, string(e.Blob))
	}
	for _, e := range c.items.Blinded {
		if string(e.CrowdC1) != "c1:"+string(e.Blob) || string(e.CrowdC2) != "c2:"+string(e.Blob) || e.Partition != 3 {
			t.Errorf("blinded fields lost: %+v", e)
		}
		out = append(out, string(e.Blob))
	}
	return strings.Join(out, " ")
}

func walOpen(t *testing.T, dir string, segBytes int64, stream int64, kind core.BatchKind) *wal {
	t.Helper()
	w, err := openWAL(dir, segBytes, stream, kind, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// walReopen recovers a directory and reopens its log over what it read, as
// a restarting engine does.
func walReopen(t *testing.T, dir string, segBytes int64, kind core.BatchKind) (*wal, *walRecovery) {
	t.Helper()
	rec := walRecover(t, dir, kind)
	w, err := openWAL(dir, segBytes, rec.stream, kind, rec)
	if err != nil {
		t.Fatal(err)
	}
	return w, rec
}

// walClient is the stream id walAppend stamps batches with, as a
// transport.Client stamps its submissions.
const walClient = 31

// walAppend logs c as the client's submission number pos.
func walAppend(t *testing.T, w *wal, pos int64, c chunk) {
	t.Helper()
	if err := w.appendBatch(walClient, pos, c); err != nil {
		t.Fatal(err)
	}
}

func walRecover(t *testing.T, dir string, kind core.BatchKind) *walRecovery {
	t.Helper()
	rec, err := recoverWAL(dir, kind)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestWALRecoverRoundTrip logs client batches, a cut, a hop's pushed epoch,
// and a resolution, then recovers the directory and checks every piece of
// state comes back: the stream id the checkpoint names, the resolved epoch's items gone, the
// unresolved epoch regrouped under its id, the rest pending in seq order, and
// each stream's last position restored as its dedup mark.
func TestWALRecoverRoundTrip(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 42, kind)

		// Epoch 1 (seqs 1-2): cut and resolved — must not come back.
		walAppend(t, w, 1, walChunk(kind, 1, "resolved-a", "resolved-b"))
		if err := w.logCut(1, 1, 2); err != nil {
			t.Fatal(err)
		}
		w.logAck(1, 1, 2)

		// Epoch 2 (seqs 3-5, over two records written out of seq order):
		// cut, never resolved.
		walAppend(t, w, 2, walChunk(kind, 4, "open-b", "open-c"))
		walAppend(t, w, 3, walChunk(kind, 3, "open-a"))
		if err := w.logCut(2, 3, 5); err != nil {
			t.Fatal(err)
		}

		// Pending (seqs 6-7): accepted, never cut. Seq 7 arrives as the
		// upstream hop's epoch 7.
		walAppend(t, w, 4, walChunk(kind, 6, "pend-a"))
		if err := w.appendBatch(99, 7, walChunk(kind, 7, "pend-b")); err != nil {
			t.Fatal(err)
		}
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}

		rec := walRecover(t, dir, kind)
		if rec == nil {
			t.Fatal("recoverWAL returned nil for a populated directory")
		}
		if rec.stream != 42 {
			t.Errorf("recovered stream = %d, want 42", rec.stream)
		}
		if rec.seqMax != 7 || rec.epochMax != 2 {
			t.Errorf("seqMax=%d epochMax=%d, want 7 and 2", rec.seqMax, rec.epochMax)
		}
		if len(rec.epochs) != 1 || rec.epochs[0].id != 2 {
			t.Fatalf("recovered epochs = %+v, want one with id 2", rec.epochs)
		}
		if k := rec.epochs[0].items.Kind(); k != kind {
			t.Errorf("recovered epoch is a batch of %v, want %v", k, kind)
		}
		if got := walDescribe(t, rec.epochs[0].chunk); got != "[3, 5] open-a open-b open-c" {
			t.Errorf("epoch 2 = %q, want open-a open-b open-c in seq order", got)
		}
		if got := walDescribe(t, rec.pending); got != "[6, 7] pend-a pend-b" {
			t.Errorf("pending = %q, want [6, 7] pend-a pend-b", got)
		}
		want := map[int64]int64{walClient: 4, 99: 7}
		if !reflect.DeepEqual(rec.marks, want) {
			t.Errorf("marks = %v, want %v", rec.marks, want)
		}
	})
}

// TestWALTornTailIgnored crash-truncates a segment mid-record and checks
// recovery keeps every record before the tear and drops the torn one. The
// segment's zeros lie past the log's end, so the file is cut inside the last
// record, not at the end of the file.
func TestWALTornTailIgnored(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 7, kind)
		walAppend(t, w, 1, walChunk(kind, 1, "whole"))
		walAppend(t, w, 2, walChunk(kind, 2, "torn-away"))
		segPath, end := w.path, w.size
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}

		// Tear the last record: cut the file three bytes before its end.
		if err := os.Truncate(segPath, end-3); err != nil {
			t.Fatal(err)
		}

		rec := walRecover(t, dir, kind)
		if got := walDescribe(t, rec.pending); got != "[1, 1] whole" {
			t.Fatalf("pending after torn tail = %q, want just the whole record", got)
		}
	})
}

// TestWALTornRecordBeforeZeros: a record whose write reached the disk only
// in part leaves its tail as the segment's zeros. Recovery drops that record
// and keeps every one before it, and the log reopened over the segment
// logs and recovers past it.
func TestWALTornRecordBeforeZeros(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 7, kind)
		walAppend(t, w, 1, walChunk(kind, 1, "whole-a"))
		walAppend(t, w, 2, walChunk(kind, 2, "whole-b"))
		start := w.size
		walAppend(t, w, 3, walChunk(kind, 3, "torn-away-"+strings.Repeat("x", 200)))
		segPath, end := w.path, w.size
		w.closeFiles() // crash

		f, err := os.OpenFile(segPath, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		mid := (start + end) / 2
		if _, err := f.WriteAt(make([]byte, end-mid), mid); err != nil {
			t.Fatal(err)
		}
		f.Close()

		w2, rec := walReopen(t, dir, DefaultWALSegmentBytes, kind)
		if got := walDescribe(t, rec.pending); got != "[1, 2] whole-a whole-b" {
			t.Fatalf("pending after a torn record = %q, want the two whole records", got)
		}
		walAppend(t, w2, 3, walChunk(kind, 3, "after"))
		w2.closeFiles() // crash again
		if got := walDescribe(t, walRecover(t, dir, kind).pending); got != "[1, 3] whole-a whole-b after" {
			t.Errorf("pending after the reopen = %q, want the two whole records and the one logged after them", got)
		}
	})
}

// TestWALZeroSegmentRecoversEmpty: a crash after a new segment took its
// zeros but before its checkpoint was written leaves a segment of zeros
// only. It recovers as empty — the state the other segments hold comes back
// unchanged — and the reopened log deletes it.
func TestWALZeroSegmentRecoversEmpty(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 7, kind)
		walAppend(t, w, 1, walChunk(kind, 1, "cut"))
		walAppend(t, w, 2, walChunk(kind, 2, "pending"))
		if err := w.logCut(1, 1, 1); err != nil {
			t.Fatal(err)
		}
		w.closeFiles() // crash
		want := walRecover(t, dir, kind)

		zero := filepath.Join(dir, walSegmentPrefix+"-000000000002.log") // after the one segment
		if err := os.WriteFile(zero, make([]byte, DefaultWALSegmentBytes), 0o644); err != nil {
			t.Fatal(err)
		}
		w2, rec := walReopen(t, dir, DefaultWALSegmentBytes, kind)
		defer w2.close(false)
		rec.sealed, want.sealed = nil, nil
		if !reflect.DeepEqual(rec, want) {
			t.Errorf("recovered with a zero segment %+v, without it %+v", rec, want)
		}
		if _, err := os.Stat(zero); !os.IsNotExist(err) {
			t.Errorf("the zero segment survived the reopen: %v", err)
		}
	})
}

// TestWALRecordsPastSegmentSpace: a record longer than the space its segment
// has left opens the next segment, and one longer than a whole segment
// extends the file it starts in; both, and the records around them, come
// back byte for byte after a crash.
func TestWALRecordsPastSegmentSpace(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		const segBytes = 1024
		dir := t.TempDir()
		w := walOpen(t, dir, segBytes, 7, kind)
		per := 1 // a blinded item logs its value three times
		if kind == core.KindBlinded {
			per = 3
		}
		values := []string{
			"a-" + strings.Repeat("a", 400/per),  // fits the first segment
			"b-" + strings.Repeat("b", 700/per),  // longer than the space left: opens the second
			"c-" + strings.Repeat("c", 3000/per), // longer than a segment: extends the second
			"d-short",                            // the second is full: opens the third
		}
		for i, v := range values {
			walAppend(t, w, int64(i+1), walChunk(kind, int64(i+1), v))
		}
		w.closeFiles() // crash

		segs, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log"))
		var sizes []int64
		for _, p := range segs {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, fi.Size())
		}
		if len(sizes) != 3 || sizes[0] != segBytes || sizes[1] <= 3000 || sizes[2] != segBytes {
			t.Errorf("segment sizes %v, want %d, over 3000 and %d", sizes, segBytes, segBytes)
		}
		if got, want := walDescribe(t, walRecover(t, dir, kind).pending), "[1, 4] "+strings.Join(values, " "); got != want {
			t.Errorf("pending after the crash:\n got %q\nwant %q", got, want)
		}
	})
}

// TestWALResolveReclaimsSegments rotates segments with a tiny size limit and
// checks resolved epochs' sealed segments are deleted while unresolved ones
// survive.
func TestWALResolveReclaimsSegments(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, 64, 7, kind) // rotate after ~one record
		for seq := int64(1); seq <= 4; seq++ {
			walAppend(t, w, seq, walChunk(kind, seq, "segment-filler-payload-to-force-rotation"))
		}
		if err := w.logCut(1, 1, 4); err != nil {
			t.Fatal(err)
		}
		sealedBefore, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log"))
		if len(sealedBefore) < 2 {
			t.Fatalf("expected rotation to produce multiple segments, got %v", sealedBefore)
		}
		w.logAck(1, 1, 4)
		left, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log"))
		// Only the active segment may survive.
		if len(left) != 1 {
			t.Errorf("segments after resolve = %v, want only the active one", left)
		}
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWALMarkOutlivesTruncation: a resolved epoch's segments are deleted,
// and with them the batch records holding its dedup marks, so each stream's
// mark must survive in the checkpoints of the segments that follow — after a
// crash that skipped the final sync, and again after the log is reopened
// over what recovery read, the old segments are deleted under a later
// horizon, and the process crashes again. Stream 55's only batch is in a
// deleted segment.
func TestWALMarkOutlivesTruncation(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, 64, 7, kind) // a batch record fills a segment
		payload := strings.Repeat("segment-filler-payload-to-force-rotation", 3)
		for seq := int64(1); seq <= 3; seq++ {
			walAppend(t, w, seq, walChunk(kind, seq, payload))
		}
		if err := w.appendBatch(55, 9, walChunk(kind, 4, payload)); err != nil {
			t.Fatal(err)
		}
		if err := w.logCut(1, 1, 4); err != nil {
			t.Fatal(err)
		}
		walAppend(t, w, 5, walChunk(kind, 5, payload))
		if err := w.appendBatch(99, 7, walChunk(kind, 6, payload)); err != nil {
			t.Fatal(err)
		}
		if err := w.logAck(1, 1, 4); err != nil {
			t.Fatal(err)
		}
		walAppend(t, w, 6, walChunk(kind, 7, payload))
		if segs, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log")); len(segs) != 3 {
			t.Fatalf("segments after the resolve = %v, want the three holding the unresolved batches, the last of them active", segs)
		}
		w.closeFiles() // crash: no final sync

		want := map[int64]int64{walClient: 6, 55: 9, 99: 7}
		w2, rec := walReopen(t, dir, 64, kind)
		if !reflect.DeepEqual(rec.marks, want) {
			t.Fatalf("marks after truncation and a crash = %v, want %v", rec.marks, want)
		}
		// Resolve the rest: every recovered segment falls under the horizon.
		if err := w2.logCut(2, 5, 7); err != nil {
			t.Fatal(err)
		}
		if err := w2.logAck(2, 5, 7); err != nil {
			t.Fatal(err)
		}
		if segs, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log")); len(segs) != 1 {
			t.Fatalf("segments once everything resolved = %v, want only the active one", segs)
		}
		w2.closeFiles() // crash again
		rec2 := walRecover(t, dir, kind)
		if !reflect.DeepEqual(rec2.marks, want) {
			t.Fatalf("marks after the reopen, a truncation and a crash = %v, want %v", rec2.marks, want)
		}
		if rec2.pending.items.Len() != 0 || len(rec2.epochs) != 0 || rec2.seqMax != 7 || rec2.epochMax != 2 {
			t.Errorf("after everything resolved: %d pending, epochs %+v, seqMax %d, epochMax %d; want nothing, 7 and 2",
				rec2.pending.items.Len(), rec2.epochs, rec2.seqMax, rec2.epochMax)
		}
	})
}

// TestWALCleanCloseWipes: a wiping close leaves nothing to recover.
func TestWALCleanCloseWipes(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 7, kind)
		walAppend(t, w, 1, walChunk(kind, 1, "gone"))
		if err := w.logCut(1, 1, 1); err != nil {
			t.Fatal(err)
		}
		w.logAck(1, 1, 1)
		if err := w.close(true); err != nil {
			t.Fatal(err)
		}
		if rec := walRecover(t, dir, kind); rec != nil {
			t.Fatalf("recovery after wiping close = %+v, want nil", rec)
		}
	})
}

// TestWALCrashMidWipe: a wipe deletes the segments oldest first, so a crash
// in the middle leaves the newest ones, each opening with the checkpoint of
// everything before it. A drained log whose last ack landed in a second
// segment still holds the first if the process died between the ack's sync
// and its prune's unlink (put back here from a copy). Recovery over both, and
// over the second alone — the wipe's first unlink done, then the crash —
// finds nothing pending or in flight and keeps the stream, the highs and the
// stream's mark.
func TestWALCrashMidWipe(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, 64, 7, kind) // the batch record fills the first segment
		walAppend(t, w, 1, walChunk(kind, 1, strings.Repeat("segment-filler-payload-to-force-rotation", 3)))
		if err := w.logCut(1, 1, 1); err != nil { // opens the second segment
			t.Fatal(err)
		}
		first := w.sealed[0].path
		kept, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.logAck(1, 1, 1); err != nil {
			t.Fatal(err)
		}
		w.closeFiles() // crash
		if err := os.WriteFile(first, kept, 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			rec := walRecover(t, dir, kind)
			if rec.pending.items.Len() != 0 || len(rec.epochs) != 0 {
				t.Errorf("%s: %d pending, epochs %+v; want nothing", when, rec.pending.items.Len(), rec.epochs)
			}
			if rec.stream != 7 || rec.seqMax != 1 || rec.epochMax != 1 || !reflect.DeepEqual(rec.marks, map[int64]int64{walClient: 1}) {
				t.Errorf("%s: stream %d, seqMax %d, epochMax %d, marks %v; want 7, 1, 1 and the client's mark",
					when, rec.stream, rec.seqMax, rec.epochMax, rec.marks)
			}
		}
		if segs, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log")); len(segs) != 2 {
			t.Fatalf("segments %v, want two", segs)
		}
		check("both segments")
		if err := os.Remove(first); err != nil { // the wipe's first unlink
			t.Fatal(err)
		}
		check("the second alone")
	})
}

// TestWALDropRecordResolvesItsRange: a drop record carries its epoch's range
// and resolves it with no cut record beside it. The below-floor epoch a final
// drain releases is never cut, and a failed epoch's cut may lie in a segment
// since deleted; either way its items must not come back.
func TestWALDropRecordResolvesItsRange(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		check := func(dir, when string) {
			t.Helper()
			rec := walRecover(t, dir, kind)
			if got := walDescribe(t, rec.pending); got != "[3, 3] pending" || len(rec.epochs) != 0 || rec.epochMax != 1 || rec.seqMax != 3 {
				t.Errorf("%s: pending %q, epochs %+v, epochMax %d, seqMax %d; want only [3, 3] pending, no epoch, 1 and 3",
					when, got, rec.epochs, rec.epochMax, rec.seqMax)
			}
		}
		logBatches := func(dir string) *wal {
			w := walOpen(t, dir, DefaultWALSegmentBytes, 7, kind)
			walAppend(t, w, 1, walChunk(kind, 1, "dropped-a", "dropped-b"))
			walAppend(t, w, 2, walChunk(kind, 3, "pending"))
			return w
		}

		never := t.TempDir()
		w := logBatches(never)
		if err := w.logDrop(1, 1, 2); err != nil {
			t.Fatal(err)
		}
		w.closeFiles() // crash
		check(never, "a drop never cut")

		// Segment 1 holds the batches; the segment that held the cut is
		// gone, and segment 2 opens with a checkpoint that states no cut.
		deleted := t.TempDir()
		logBatches(deleted).closeFiles() // crash
		seg := appendRecord(nil, walRecCheckpoint, appendWireInts(nil, 7, int64(kind), 0, 0, 0, 1, walClient, 2))
		seg = appendRecord(seg, walRecDrop, appendWireInts(nil, 1, 1, 2))
		if err := os.WriteFile(filepath.Join(deleted, walSegmentPrefix+"-000000000002.log"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		check(deleted, "a failed epoch whose cut's segment is gone")
	})
}

// TestWALMigrationIdempotent: recovery rewrites nothing — the recovered
// segments become the reopened log's sealed segments — so recovering,
// reopening and crashing, twice over, must recover to the same state each
// time.
func TestWALMigrationIdempotent(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 11, kind)
		walAppend(t, w, 1, walChunk(kind, 1, "epoch-item"))
		walAppend(t, w, 2, walChunk(kind, 2, "pending-item"))
		if err := w.logCut(1, 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}

		for round := 1; round <= 3; round++ {
			var rec *walRecovery
			if round < 3 {
				var w2 *wal
				w2, rec = walReopen(t, dir, DefaultWALSegmentBytes, kind)
				w2.closeFiles() // crash right after the reopen
			} else {
				rec = walRecover(t, dir, kind)
			}
			if rec.stream != 11 || rec.seqMax != 2 || rec.epochMax != 1 {
				t.Errorf("recovery %d: stream=%d seqMax=%d epochMax=%d, want 11/2/1",
					round, rec.stream, rec.seqMax, rec.epochMax)
			}
			if len(rec.epochs) != 1 || walDescribe(t, rec.epochs[0].chunk) != "[1, 1] epoch-item" {
				t.Errorf("recovery %d: epochs = %+v", round, rec.epochs)
			}
			if got := walDescribe(t, rec.pending); got != "[2, 2] pending-item" {
				t.Errorf("recovery %d: pending = %q", round, got)
			}
			if want := map[int64]int64{walClient: 2}; !reflect.DeepEqual(rec.marks, want) {
				t.Errorf("recovery %d: marks = %v, want %v", round, rec.marks, want)
			}
		}
	})
}

// TestWALRefusesOtherKind: a directory written by a blinded hop must not be
// recovered by an envelope stage (and vice versa). The checkpoint that opens
// the segment names the kind, so recovery refuses the directory at its first
// record, naming both kinds, and rewrites nothing in it.
func TestWALRefusesOtherKind(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		other := core.KindEnvelopes
		if kind == core.KindEnvelopes {
			other = core.KindBlinded
		}
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 5, kind)
		walAppend(t, w, 1, walChunk(kind, 1, "not-yours"))
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}
		_, err := recoverWAL(dir, other)
		if err == nil {
			t.Fatalf("a directory of %v recovered as %v", kind, other)
		}
		for _, k := range []core.BatchKind{kind, other} {
			if !strings.Contains(err.Error(), k.String()) {
				t.Errorf("error %q does not name %v", err, k)
			}
		}
		if rec := walRecover(t, dir, kind); walDescribe(t, rec.pending) != "[1, 1] not-yours" {
			t.Errorf("the refused directory no longer recovers as its own kind: %+v", rec)
		}
	})
}

// TestWALBatchRecordIsTheSubmitBody pins the log's batch record byte for
// byte: type 9, then the batch's sequence base, then the Submit request body
// exactly as a client frames it — the (stream, pos) stamp and the batch in
// the wire codec. The segment opens with the checkpoint of an empty log
// (type 13, naming the stream and kind) and the cut record (type 3) follows
// the batch in the same file; a wire-fed daemon's directory holds that one
// segment and nothing else. The segment has its full size from the start:
// every byte past the log's end is zero.
func TestWALBatchRecordIsTheSubmitBody(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		fwd := walChunk(kind, 4, "forwarded", "too")

		// The Submit body, spelled out: stream 99 and pos 7 as zigzag
		// varints, the kind, the count, then each item's fields.
		submit := []byte{0xc6, 0x01, 0x0e, byte(kind), 2}
		for _, v := range []string{"forwarded", "too"} {
			if kind == core.KindBlinded {
				submit = appendWireBytes(submit, []byte("c1:"+v))
				submit = appendWireBytes(submit, []byte("c2:"+v))
			}
			submit = appendWireBytes(submit, []byte(v))
			if kind == core.KindBlinded {
				submit = append(submit, 0x06) // partition 3
			}
		}
		_, _, framed, err := parseRequest(openFrame(t, batchRequest(1, methodSubmit, 99, 7, fwd.items)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(framed, submit) {
			t.Fatalf("a client's Submit body is %x, want %x", framed, submit)
		}
		// Stream 5, the kind, H 0, epoch max 0, no cuts, no marks.
		want := appendRecord(nil, 13, []byte{0x0a, 2 * byte(kind), 0, 0, 0, 0})
		want = appendRecord(want, 9, append([]byte{3}, submit...)) // base 3: items 4 and 5
		want = appendRecord(want, 3, []byte{0x02, 0x02, 0x06})     // epoch 1, seqs [1, 3]

		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 5, kind)
		if err := w.appendBatch(99, 7, fwd); err != nil {
			t.Fatal(err)
		}
		if err := w.logCut(1, 1, 3); err != nil {
			t.Fatal(err)
		}
		end := w.size
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 {
			t.Errorf("wal dir holds %v, want one segment", files)
		}
		paths, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log"))
		if len(paths) != 1 {
			t.Fatalf("segments = %v, want one", paths)
		}
		got, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got)) != DefaultWALSegmentBytes || end != int64(len(want)) {
			t.Fatalf("segment of %d bytes with a %d-byte log, want %d and %d", len(got), end, DefaultWALSegmentBytes, len(want))
		}
		if !bytes.Equal(got[:end], want) {
			t.Errorf("segment:\n got %x\nwant %x", got[:end], want)
		}
		if i := bytes.IndexFunc(got[end:], func(r rune) bool { return r != 0 }); i >= 0 {
			t.Errorf("byte %d past the log's end is not zero", i)
		}
	})
}

// TestWALMigrationKeepsSeqGaps: an ingest whose append was refused burned its
// sequence range, so the engine's pending items and a cut epoch can have
// gaps. Recovery rewrites nothing, so the numbers — gap included — survive
// recovery, a reopen of the log and a second recovery.
func TestWALMigrationKeepsSeqGaps(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 11, kind)
		walAppend(t, w, 1, walChunk(kind, 1, "a", "b"))
		// Seqs 3-4 burned by a refused append; epoch 1 spans the gap.
		walAppend(t, w, 3, walChunk(kind, 5, "e"))
		if err := w.logCut(1, 1, 5); err != nil {
			t.Fatal(err)
		}
		// Seq 6 burned; seqs 7-8 pending.
		walAppend(t, w, 5, walChunk(kind, 7, "g", "h"))
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}

		check := func(rec *walRecovery, when string) {
			t.Helper()
			if len(rec.epochs) != 1 || rec.epochs[0].id != 1 || walDescribe(t, rec.epochs[0].chunk) != "[1, 5] a b e" {
				t.Errorf("%s: epochs = %+v, want epoch 1 [1, 5] holding a b e", when, rec.epochs)
			}
			if got := walDescribe(t, rec.pending); got != "[7, 8] g h" {
				t.Errorf("%s: pending = %q, want [7, 8] g h", when, got)
			}
			if rec.seqMax != 8 {
				t.Errorf("%s: seqMax = %d, want 8", when, rec.seqMax)
			}
		}
		w2, rec := walReopen(t, dir, DefaultWALSegmentBytes, kind)
		check(rec, "first recovery")
		if err := w2.close(false); err != nil {
			t.Fatal(err)
		}
		check(walRecover(t, dir, kind), "recovery after the reopen")
	})
}

// TestWALRefusesStraddlingBatch: a cut takes whole chunks, so every batch
// record an engine logs lies inside one cut or in none. A segment built by
// hand whose record overlaps a cut without lying inside it — across the
// cut's end, across its start, or across the horizon a checkpoint states —
// does not recover, and the error names the record's range and the cut.
// Nor does a record of a type this build does not write, or a CRC-valid
// cut, ack or drop record that does not parse: skipping a drop would bring
// its epoch's items back as pending.
func TestWALRefusesStraddlingBatch(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		// batch frames a record of values numbered from min, submitted as
		// the client's position min.
		batch := func(seg []byte, min int64, values ...string) []byte {
			c := walChunk(kind, min, values...)
			body := binary.AppendUvarint(nil, uint64(c.min-1))
			return appendRecord(seg, walRecBatch, appendBatchCall(body, walClient, min, c.items))
		}
		cut := func(seg []byte, id, min, max int64) []byte {
			return appendRecord(seg, walRecCut, appendWireInts(nil, id, min, max))
		}
		horizon := appendRecord(nil, walRecCheckpoint, appendWireInts(nil, 5, int64(kind), 1, 1, 0, 0)) // H 1, epoch max 1
		for _, tc := range []struct {
			name, want string
			seg        []byte
		}{
			{"across a cut's end", "batch record [1, 2] overlaps cut 1 [1, 1]",
				cut(batch(nil, 1, "a", "b"), 1, 1, 1)},
			{"across a cut's start", "batch record [2, 3] overlaps cut 4 [3, 5]",
				cut(batch(batch(nil, 1, "a"), 2, "b", "c"), 4, 3, 5)},
			{"across the horizon", "batch record [1, 2] straddles the horizon 1",
				batch(horizon, 1, "a", "b")},
			{"the retired drop-cut type", "record type 12 is not one this build writes",
				appendRecord(batch(nil, 1, "a"), 12, appendWireInts(nil, 1, 1, 1))},
			{"an unknown type", "record type 200 is not one", appendRecord(nil, 200, nil)},
			{"a drop of the old shape", "record type 5", appendRecord(batch(nil, 1, "a"), walRecDrop, appendWireInts(nil, 1))},
			{"a cut with a trailing field", "record type 3", appendRecord(nil, walRecCut, appendWireInts(nil, 1, 1, 1, 0))},
			{"an ack cut short", "record type 4", appendRecord(nil, walRecAck, appendWireInts(nil, 1, 1))},
		} {
			rec, err := recoverWAL(walDirWith(t, tc.seg), kind)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: recovery = %+v, %v; want an error naming %q", tc.name, rec, err, tc.want)
			}
		}
	})
}

// TestWALRefusesParentLayout: the layout before this one kept the stream and
// kind in a wal.meta file (record type 10) beside segments that opened with
// a type-11 checkpoint of the state alone. This build writes neither type, so
// such a directory is refused at its segment's first record, naming the
// type, and no file in it is read as data or changed.
func TestWALRefusesParentLayout(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		files := map[string][]byte{
			"wal.meta": appendRecord(nil, 10, appendWireInts(nil, 5, int64(kind))),
			walSegmentPrefix + "-000000000001.log": appendRecord(
				appendRecord(nil, 11, []byte{0, 0, 0, 0}), // H 0, epoch max 0, no cuts, no marks
				walRecBatch, append([]byte{0}, appendBatchCall(nil, walClient, 1, walItem(kind, "old"))...)),
		}
		dir := t.TempDir()
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := recoverWAL(dir, kind)
		if err == nil {
			t.Fatalf("a directory in the wal.meta layout recovered: %+v", rec)
		}
		if want := "record type 11 is not one this build writes"; !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
		entries, _ := os.ReadDir(dir)
		if len(entries) != len(files) {
			t.Errorf("the refusal left %d files, want the %d it found", len(entries), len(files))
		}
		for name, b := range files {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, b) {
				t.Errorf("%s changed by the refusal", name)
			}
		}
	})
}

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// walAppendAllocs bounds the allocations of logging one 5-item batch in
// steady state (EXPERIMENTS.md has the measured counts).
const walAppendAllocs = 0

// TestWALAppendBatchAllocs gates what the log costs a client's call beyond
// its write and fsync: appending a 5-item batch — the record, its
// items and the stream's mark — reuses the log's buffers and allocates
// nothing once they have grown.
func TestWALAppendBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		w := walOpen(t, t.TempDir(), DefaultWALSegmentBytes, 7, kind)
		defer w.close(false)
		blob := strings.Repeat("r", 300) // about one sealed report
		b := walChunk(kind, 1, blob, blob, blob, blob, blob)
		var pos int64
		var err error
		allocs := testing.AllocsPerRun(50, func() {
			pos++
			if e := w.appendBatch(walClient, pos, b); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%.0f allocs per appendBatch (bound %d)", allocs, walAppendAllocs)
		if allocs > walAppendAllocs {
			t.Errorf("%.0f allocs per appendBatch, bound %d", allocs, walAppendAllocs)
		}
	})
}

// walDirWith writes a directory recoverWAL reads: seg as its one segment.
func walDirWith(t testing.TB, seg []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walSegmentPrefix+"-000000000001.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// walSegmentBytes returns the log a wal writes for two batches of kind — a
// client's submission and an upstream hop's epoch push — behind its opening
// checkpoint: the segment's bytes up to the log's end, without the zeros
// past it, at full capacity so an append copies them.
func walSegmentBytes(t testing.TB, kind core.BatchKind) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := openWAL(dir, DefaultWALSegmentBytes, 5, kind, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendBatch(walClient, 1, walChunk(kind, 1, "fuzz-a")); err != nil {
		t.Fatal(err)
	}
	if err := w.appendBatch(99, 1, walChunk(kind, 2, "fuzz-b", "fuzz-c")); err != nil {
		t.Fatal(err)
	}
	path, end := w.path, w.size
	if err := w.close(false); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return seg[:end:end]
}

// walOversizedClaim is a torn tail whose length field claims 1 GiB and whose
// file ends ten bytes later.
func walOversizedClaim() []byte {
	return append(binary.AppendUvarint([]byte{walRecBatch}, 1<<30), "ten bytes."...)
}

// TestWALRecordLengthBeyondFile: recovery reads a length from a file a crash
// may have torn, so a record claiming 1 GiB with ten bytes behind it must
// stop the reader after what is there — keeping the records before it —
// having allocated about one read chunk, not the claim.
func TestWALRecordLengthBeyondFile(t *testing.T) {
	kind := core.KindEnvelopes
	dir := walDirWith(t, append(walSegmentBytes(t, kind), walOversizedClaim()...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err := recoverWAL(dir, kind)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Fatalf("recovering past a 1 GiB length claim allocated %d bytes, want under 2 MiB", grew)
	}
	if got := walDescribe(t, rec.pending); got != "[1, 3] fuzz-a fuzz-b fuzz-c" {
		t.Errorf("pending before the torn claim = %q, want the three whole items", got)
	}
}

// walValidPrefix frames seg record by record — type, uvarint length, body,
// CRC-32 over type and body — independently of readRecord, and returns the
// prefix up to the first record that does not check out.
func walValidPrefix(seg []byte) []byte {
	off := 0
	for off < len(seg) {
		n, k := binary.Uvarint(seg[off+1:])
		start := off + 1 + k
		if k <= 0 || n > uint64(len(seg)-start) || uint64(len(seg)-start)-n < 4 {
			break
		}
		end := start + int(n)
		crc := crc32.NewIEEE()
		crc.Write(seg[off : off+1])
		crc.Write(seg[start:end])
		if crc.Sum32() != binary.LittleEndian.Uint32(seg[end:]) {
			break
		}
		off = end + 4
	}
	return seg[:off]
}

// FuzzWALRecovery writes arbitrary bytes as the one segment behind a valid
// meta record: recoverWAL must never panic, must recover exactly what the
// CRC-valid prefix of the segment holds (nothing past the first bad record
// counts), and every item it returns must come from that prefix.
func FuzzWALRecovery(f *testing.F) {
	for _, blinded := range []bool{false, true} {
		kind := core.KindEnvelopes
		if blinded {
			kind = core.KindBlinded
		}
		seg := walSegmentBytes(f, kind)
		f.Add(blinded, seg)
		f.Add(blinded, seg[:len(seg)-3])
		f.Add(blinded, append(seg, walOversizedClaim()...))
		f.Add(blinded, append(seg[:len(seg)-3], make([]byte, 64)...)) // a torn record, then the segment's zeros
		// Epoch 1 cut, epoch 2 dropped by its own record.
		f.Add(blinded, appendRecord(appendRecord(seg, walRecCut, appendWireInts(nil, 1, 1, 1)), walRecDrop, appendWireInts(nil, 2, 2, 3)))
		// A checkpoint stating an unresolved cut and a mark, then the cut's batch.
		ckpt := appendRecord(nil, walRecCheckpoint, appendWireInts(nil, 5, int64(kind), 0, 1, 1, 1, 1, 0, 1, walClient, 1))
		f.Add(blinded, appendRecord(ckpt, walRecBatch, append([]byte{0}, appendBatchCall(nil, walClient, 1, walItem(kind, "fuzz-a"))...)))
	}
	for _, blinded := range []bool{false, true} {
		kind, other := core.KindEnvelopes, core.KindBlinded
		if blinded {
			kind, other = other, kind
		}
		// A gap: seq 2 was burned by a refused append.
		gap := appendRecord(nil, walRecBatch, append([]byte{0}, appendBatchCall(nil, walClient, 1, walItem(kind, "fuzz-a"))...))
		gap = appendRecord(gap, walRecBatch, append([]byte{2}, appendBatchCall(nil, walClient, 2, walItem(kind, "fuzz-c"))...))
		f.Add(blinded, gap)
		// A CRC-valid record holding the other kind.
		f.Add(blinded, appendRecord(nil, walRecBatch, append([]byte{0}, appendBatchCall(nil, walClient, 1, walItem(other, "fuzz-x"))...)))
	}
	f.Fuzz(func(t *testing.T, blinded bool, seg []byte) {
		kind := core.KindEnvelopes
		if blinded {
			kind = core.KindBlinded
		}
		rec, err := recoverWAL(walDirWith(t, seg), kind)
		if err != nil {
			return // a CRC-valid record that does not parse, or holds another kind
		}
		valid := walValidPrefix(seg)
		ref, err := recoverWAL(walDirWith(t, valid), kind)
		if err != nil {
			t.Fatalf("the valid prefix alone does not recover: %v", err)
		}
		if !reflect.DeepEqual(rec.pending, ref.pending) || !reflect.DeepEqual(rec.marks, ref.marks) || rec.seqMax != ref.seqMax {
			t.Fatalf("bytes past the first bad record changed recovery: %d items %v vs %d items %v",
				rec.pending.items.Len(), rec.marks, ref.pending.items.Len(), ref.marks)
		}
		blobs := make([][]byte, 0, rec.pending.items.Len())
		for _, e := range rec.pending.items.Envelopes {
			blobs = append(blobs, e.Blob)
		}
		for _, e := range rec.pending.items.Blinded {
			blobs = append(blobs, e.Blob)
		}
		for i, b := range blobs {
			if !bytes.Contains(valid, b) {
				t.Fatalf("recovered item %d (%x) is in no CRC-valid record", i, b)
			}
		}
	})
}

// TestWALDropAheadKeepsInFlightEpoch: a force drain drops its below-floor
// cut while an earlier epoch is still in flight, so epoch 2 resolves before
// epoch 1. Every sequence number up to the highest resolved cut is not
// resolved: epoch 1 must come back whole, whether or not its segments were
// rotated.
func TestWALDropAheadKeepsInFlightEpoch(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		for _, segBytes := range []int64{DefaultWALSegmentBytes, 64} {
			dir := t.TempDir()
			w := walOpen(t, dir, segBytes, 7, kind)
			for seq := int64(1); seq <= 5; seq++ {
				walAppend(t, w, seq, walChunk(kind, seq, fmt.Sprintf("item-%d", seq)))
			}
			if err := w.logCut(1, 1, 3); err != nil {
				t.Fatal(err)
			}
			if err := w.logDrop(2, 4, 5); err != nil { // a final drain's below-floor tail
				t.Fatal(err)
			}
			w.closeFiles() // crash with epoch 1 mid-push

			rec := walRecover(t, dir, kind)
			if len(rec.epochs) != 1 || rec.epochs[0].id != 1 || walDescribe(t, rec.epochs[0].chunk) != "[1, 3] item-1 item-2 item-3" {
				t.Errorf("%d-byte segments: recovered epochs %+v, want epoch 1 with its 3 items", segBytes, rec.epochs)
			}
			if rec.pending.items.Len() != 0 || rec.epochMax != 2 {
				t.Errorf("%d-byte segments: %d pending, epoch max %d; want none and 2", segBytes, rec.pending.items.Len(), rec.epochMax)
			}
		}
	})
}

// TestWALStateBoundedByStreams: 10⁴ one-batch epochs from two streams,
// each cut and acked, keep the directory under three segments' bytes — the
// log holds the unresolved epochs and one mark per stream, not one record
// per submission — and after a crash a retry of each stream's last stamp is
// absorbed by the dedup the recovered marks restore.
func TestWALStateBoundedByStreams(t *testing.T) {
	const segBytes = 64 << 10
	dir := t.TempDir()
	kind := core.KindEnvelopes
	w := walOpen(t, dir, segBytes, 7, kind)
	streams := [2]int64{101, 202}
	pos := map[int64]int64{}
	dirBytes := func() int64 {
		var n int64
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
		return n
	}
	var peak int64
	for id := int64(1); id <= 10000; id++ {
		stream := streams[id%2]
		pos[stream]++
		if err := w.appendBatch(stream, pos[stream], walChunk(kind, id, "r")); err != nil {
			t.Fatal(err)
		}
		if err := w.logCut(id, id, id); err != nil {
			t.Fatal(err)
		}
		if err := w.logAck(id, id, id); err != nil {
			t.Fatal(err)
		}
		if id%100 == 0 {
			peak = max(peak, dirBytes())
		}
	}
	t.Logf("peak directory size %d bytes over 10000 epochs (bound %d)", peak, 3*segBytes)
	if peak >= 3*segBytes {
		t.Errorf("directory reached %d bytes, want under three %d-byte segments", peak, segBytes)
	}
	w.closeFiles() // crash

	rec := walRecover(t, dir, kind)
	if want := map[int64]int64{101: 5000, 202: 5000}; !reflect.DeepEqual(rec.marks, want) {
		t.Fatalf("recovered marks %v, want %v", rec.marks, want)
	}
	if rec.pending.items.Len() != 0 || len(rec.epochs) != 0 || rec.epochMax != 10000 || rec.seqMax != 10000 {
		t.Errorf("recovered %d pending, %d epochs, epoch max %d, seq max %d; want nothing and 10000/10000",
			rec.pending.items.Len(), len(rec.epochs), rec.epochMax, rec.seqMax)
	}
	var d forwardDedup
	d.restore(rec.marks)
	for _, stream := range streams {
		if err := d.ingest(stream, pos[stream], func() error {
			t.Errorf("stream %d: the retry of its last stamp was ingested again", stream)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ingested := false
		d.ingest(stream, pos[stream]+1, func() error { ingested = true; return nil })
		if !ingested {
			t.Errorf("stream %d: its next position was absorbed as a replay", stream)
		}
	}
}
