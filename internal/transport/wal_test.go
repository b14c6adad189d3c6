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

// walItem builds a distinguishable one-item batch with a fixed sequence
// stamp; every field of the kind's layout is populated.
func walItem(kind core.BatchKind, seq int, value string) core.Batch {
	if kind == core.KindBlinded {
		return core.Batch{Blinded: []core.BlindedEnvelope{{
			CrowdC1: []byte("c1:" + value), CrowdC2: []byte("c2:" + value), Blob: []byte(value),
			Partition: 3, SeqNo: seq,
		}}}
	}
	return core.Batch{Envelopes: []core.Envelope{{Blob: []byte(value), SeqNo: seq}}}
}

// walBatch concatenates items into one batch.
func walBatch(t *testing.T, items ...core.Batch) core.Batch {
	t.Helper()
	var out core.Batch
	for _, it := range items {
		var err error
		if out, err = out.Append(it); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// walDescribe renders a recovered batch as "blob/seq" per item; for a
// blinded batch the crowd points and partition must have survived too.
func walDescribe(t *testing.T, b core.Batch) string {
	t.Helper()
	var out []string
	for _, e := range b.Envelopes {
		out = append(out, fmt.Sprintf("%s/%d", e.Blob, e.SeqNo))
	}
	for _, e := range b.Blinded {
		if string(e.CrowdC1) != "c1:"+string(e.Blob) || string(e.CrowdC2) != "c2:"+string(e.Blob) || e.Partition != 3 {
			t.Errorf("blinded fields lost: %+v", e)
		}
		out = append(out, fmt.Sprintf("%s/%d", e.Blob, e.SeqNo))
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

// walAppend logs b as the client's submission number seq.
func walAppend(t *testing.T, w *wal, seq int64, b core.Batch) {
	t.Helper()
	if err := w.appendBatch(walClient, seq, b); err != nil {
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
// state comes back: the stream id, the resolved epoch's items gone, the
// unresolved epoch regrouped under its id, the rest pending in seq order, and
// each stream's last position restored as its dedup mark.
func TestWALRecoverRoundTrip(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 42, kind)

		// Epoch 1 (seqs 1-2): cut and resolved — must not come back.
		walAppend(t, w, 1, walBatch(t, walItem(kind, 1, "resolved-a"), walItem(kind, 2, "resolved-b")))
		if err := w.logCut(1, 1, 2); err != nil {
			t.Fatal(err)
		}
		w.resolve(1, true)

		// Epoch 2 (seqs 3-5, over two records written out of seq order):
		// cut, never resolved.
		walAppend(t, w, 2, walBatch(t, walItem(kind, 4, "open-b"), walItem(kind, 5, "open-c")))
		walAppend(t, w, 3, walItem(kind, 3, "open-a"))
		if err := w.logCut(2, 3, 5); err != nil {
			t.Fatal(err)
		}

		// Pending (seqs 6-7): accepted, never cut. Seq 7 arrives as the
		// upstream hop's epoch 7.
		walAppend(t, w, 4, walItem(kind, 6, "pend-a"))
		if err := w.appendBatch(99, 7, walItem(kind, 7, "pend-b")); err != nil {
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
		if k := rec.epochs[0].batch.Kind(); k != kind {
			t.Errorf("recovered epoch is a batch of %v, want %v", k, kind)
		}
		if got := walDescribe(t, rec.epochs[0].batch); got != "open-a/3 open-b/4 open-c/5" {
			t.Errorf("epoch 2 items = %q, want open-a open-b open-c in seq order", got)
		}
		if got := walDescribe(t, rec.pending); got != "pend-a/6 pend-b/7" {
			t.Errorf("pending = %q, want pend-a/6 pend-b/7", got)
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
		walAppend(t, w, 1, walItem(kind, 1, "whole"))
		walAppend(t, w, 2, walItem(kind, 2, "torn-away"))
		segPath, end := w.path, w.size
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}

		// Tear the last record: cut the file three bytes before its end.
		if err := os.Truncate(segPath, end-3); err != nil {
			t.Fatal(err)
		}

		rec := walRecover(t, dir, kind)
		if got := walDescribe(t, rec.pending); got != "whole/1" {
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
		walAppend(t, w, 1, walItem(kind, 1, "whole-a"))
		walAppend(t, w, 2, walItem(kind, 2, "whole-b"))
		start := w.size
		walAppend(t, w, 3, walItem(kind, 3, "torn-away-"+strings.Repeat("x", 200)))
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
		if got := walDescribe(t, rec.pending); got != "whole-a/1 whole-b/2" {
			t.Fatalf("pending after a torn record = %q, want the two whole records", got)
		}
		walAppend(t, w2, 3, walItem(kind, 3, "after"))
		w2.closeFiles() // crash again
		if got := walDescribe(t, walRecover(t, dir, kind).pending); got != "whole-a/1 whole-b/2 after/3" {
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
		walAppend(t, w, 1, walBatch(t, walItem(kind, 1, "cut"), walItem(kind, 2, "pending")))
		if err := w.logCut(1, 1, 1); err != nil {
			t.Fatal(err)
		}
		w.closeFiles() // crash
		want := walRecover(t, dir, kind)

		zero := filepath.Join(dir, fmt.Sprintf("%s-%012d.log", walSegmentPrefix, walStartGen(dir)+1))
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
		var wantItems []string
		for i, v := range values {
			walAppend(t, w, int64(i+1), walItem(kind, i+1, v))
			wantItems = append(wantItems, fmt.Sprintf("%s/%d", v, i+1))
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
		if got, want := walDescribe(t, walRecover(t, dir, kind).pending), strings.Join(wantItems, " "); got != want {
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
		for seq := 1; seq <= 4; seq++ {
			walAppend(t, w, int64(seq), walItem(kind, seq, "segment-filler-payload-to-force-rotation"))
		}
		if err := w.logCut(1, 1, 4); err != nil {
			t.Fatal(err)
		}
		sealedBefore, _ := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"-*.log"))
		if len(sealedBefore) < 2 {
			t.Fatalf("expected rotation to produce multiple segments, got %v", sealedBefore)
		}
		w.resolve(1, true)
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
		for seq := 1; seq <= 3; seq++ {
			walAppend(t, w, int64(seq), walItem(kind, seq, payload))
		}
		if err := w.appendBatch(55, 9, walItem(kind, 4, payload)); err != nil {
			t.Fatal(err)
		}
		if err := w.logCut(1, 1, 4); err != nil {
			t.Fatal(err)
		}
		walAppend(t, w, 5, walItem(kind, 5, payload))
		if err := w.appendBatch(99, 7, walItem(kind, 6, payload)); err != nil {
			t.Fatal(err)
		}
		if err := w.resolve(1, true); err != nil {
			t.Fatal(err)
		}
		walAppend(t, w, 6, walItem(kind, 7, payload))
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
		if err := w2.resolve(2, true); err != nil {
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
		if rec2.pending.Len() != 0 || len(rec2.epochs) != 0 || rec2.seqMax != 7 || rec2.epochMax != 2 {
			t.Errorf("after everything resolved: %d pending, epochs %+v, seqMax %d, epochMax %d; want nothing, 7 and 2",
				rec2.pending.Len(), rec2.epochs, rec2.seqMax, rec2.epochMax)
		}
	})
}

// TestWALCleanCloseWipes: a wiping close leaves nothing to recover.
func TestWALCleanCloseWipes(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 7, kind)
		walAppend(t, w, 1, walItem(kind, 1, "gone"))
		if err := w.logCut(1, 1, 1); err != nil {
			t.Fatal(err)
		}
		w.resolve(1, true)
		if err := w.close(true); err != nil {
			t.Fatal(err)
		}
		if rec := walRecover(t, dir, kind); rec != nil {
			t.Fatalf("recovery after wiping close = %+v, want nil", rec)
		}
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
		walAppend(t, w, 1, walBatch(t, walItem(kind, 1, "epoch-item"), walItem(kind, 2, "pending-item")))
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
			if len(rec.epochs) != 1 || walDescribe(t, rec.epochs[0].batch) != "epoch-item/1" {
				t.Errorf("recovery %d: epochs = %+v", round, rec.epochs)
			}
			if got := walDescribe(t, rec.pending); got != "pending-item/2" {
				t.Errorf("recovery %d: pending = %q", round, got)
			}
			if want := map[int64]int64{walClient: 1}; !reflect.DeepEqual(rec.marks, want) {
				t.Errorf("recovery %d: marks = %v, want %v", round, rec.marks, want)
			}
		}
	})
}

// TestWALRefusesOtherKind: batch records carry no kind, so without the meta
// record's a directory written by a blinded hop would decode, without an
// error, as garbage envelopes (and vice versa). Recovery must refuse the
// directory, naming both kinds, before reading or rewriting anything in it.
func TestWALRefusesOtherKind(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		other := core.KindEnvelopes
		if kind == core.KindEnvelopes {
			other = core.KindBlinded
		}
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 5, kind)
		walAppend(t, w, 1, walItem(kind, 1, "not-yours"))
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
		if rec := walRecover(t, dir, kind); walDescribe(t, rec.pending) != "not-yours/1" {
			t.Errorf("the refused directory no longer recovers as its own kind: %+v", rec)
		}
	})
}

// TestWALBatchRecordIsTheSubmitBody pins the log's batch record byte for
// byte: type 9, then the batch's sequence base, then the Submit request body
// exactly as a client frames it — the (stream, pos) stamp and the batch in
// the wire codec. The segment opens with the checkpoint of an empty log
// (type 11) and the cut record (type 3) follows the batch in the same file;
// a wire-fed daemon's directory holds wal.meta and one segment. The segment
// has its full size from the start: every byte past the log's end is zero.
func TestWALBatchRecordIsTheSubmitBody(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		fwd := walBatch(t, walItem(kind, 4, "forwarded"), walItem(kind, 5, "too"))

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
		_, _, framed, err := parseRequest(openFrame(t, batchRequest(1, methodSubmit, 99, 7, fwd)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(framed, submit) {
			t.Fatalf("a client's Submit body is %x, want %x", framed, submit)
		}
		want := appendRecord(nil, 11, []byte{0, 0, 0, 0})          // H 0, epoch max 0, no cuts, no marks
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
		if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 2 {
			t.Errorf("wal dir holds %v, want wal.meta and one segment", files)
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

// TestWALRefusesGappedBatch: a batch record states one sequence base, so a
// batch whose numbers are not one contiguous range cannot be logged. The
// append is refused, with an error, and writes nothing.
func TestWALRefusesGappedBatch(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 5, kind)
		size := w.size
		err := w.appendBatch(walClient, 1, walBatch(t, walItem(kind, 3, "a"), walItem(kind, 5, "c")))
		if err == nil || !strings.Contains(err.Error(), "contiguous") {
			t.Fatalf("appendBatch of seqs {3, 5} = %v, want a refusal", err)
		}
		if w.size != size {
			t.Errorf("the refused batch wrote %d bytes", w.size-size)
		}
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}
		if rec := walRecover(t, dir, kind); rec.pending.Len() != 0 || len(rec.marks) != 0 {
			t.Errorf("recovered %d items and marks %v from a refused append", rec.pending.Len(), rec.marks)
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
		walAppend(t, w, 1, walBatch(t, walItem(kind, 1, "a"), walItem(kind, 2, "b")))
		// Seqs 3-4 burned by a refused append; epoch 1 spans the gap.
		walAppend(t, w, 3, walItem(kind, 5, "e"))
		if err := w.logCut(1, 1, 5); err != nil {
			t.Fatal(err)
		}
		// Seq 6 burned; seqs 7-8 pending.
		walAppend(t, w, 5, walBatch(t, walItem(kind, 7, "g"), walItem(kind, 8, "h")))
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}

		check := func(rec *walRecovery, when string) {
			t.Helper()
			if len(rec.epochs) != 1 || rec.epochs[0].id != 1 || walDescribe(t, rec.epochs[0].batch) != "a/1 b/2 e/5" {
				t.Errorf("%s: epochs = %+v, want epoch 1 holding a/1 b/2 e/5", when, rec.epochs)
			}
			if got := walDescribe(t, rec.pending); got != "g/7 h/8" {
				t.Errorf("%s: pending = %q, want g/7 h/8", when, got)
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

// TestWALRefusesRetiredLayout: a directory whose meta record has a retired
// type is refused at the meta check, with an error that says so, and no file
// in it is read as data or changed. Type 1 is the layout that logged each
// item in a codec of its own, behind type-6 batch records; type 8 the layout
// with a separate epoch log (epochs-*.log) beside the ingest segments
// (fwd-*.log).
func TestWALRefusesRetiredLayout(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		for _, layout := range []struct {
			meta  byte
			files map[string][]byte
		}{
			{1, map[string][]byte{"fwd-000000000001.log": appendRecord(nil, 6, []byte("a batch in the retired layout"))}},
			{8, map[string][]byte{
				"fwd-000000000001.log":    appendRecord(nil, 9, append([]byte{0}, appendBatchCall(nil, walClient, 1, walItem(kind, 1, "old"))...)),
				"epochs-000000000002.log": appendRecord(nil, 7, appendWireInts(nil, walClient, 1)),
			}},
		} {
			dir := t.TempDir()
			layout.files[walMetaName] = appendRecord(nil, layout.meta, appendWireInts(nil, 5, int64(kind)))
			for name, b := range layout.files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			rec, err := recoverWAL(dir, kind)
			if err == nil {
				t.Fatalf("a type-%d-layout directory recovered: %+v", layout.meta, rec)
			}
			if want := fmt.Sprintf("retired layout (meta record type %d", layout.meta); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
			entries, _ := os.ReadDir(dir)
			if len(entries) != len(layout.files) {
				t.Errorf("type-%d layout: the refusal left %d files, want the %d it found", layout.meta, len(entries), len(layout.files))
			}
			for name, b := range layout.files {
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, b) {
					t.Errorf("type-%d layout: %s changed by the refusal", layout.meta, name)
				}
			}
		}
	})
}

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// walAppendAllocs bounds the allocations of logging one stamped 5-item
// batch in steady state (EXPERIMENTS.md has the measured counts).
const walAppendAllocs = 0

// TestWALAppendBatchAllocs gates what the log costs a client's call beyond
// its write and fsync: appending a stamped 5-item batch — the record, its
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
		var items []core.Batch
		for i := 1; i <= 5; i++ {
			items = append(items, walItem(kind, i, blob))
		}
		b := walBatch(t, items...)
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

// walDirWith writes a directory recoverWAL reads: a valid meta record for
// kind beside seg as the one segment.
func walDirWith(t testing.TB, kind core.BatchKind, seg []byte) string {
	t.Helper()
	dir := t.TempDir()
	meta := appendRecord(nil, walRecMeta, appendWireInts(nil, 5, int64(kind)))
	if err := os.WriteFile(filepath.Join(dir, walMetaName), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walSegmentPrefix+"-000000000001.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// walSegmentBytes returns the log a wal writes for two batches of kind — a
// client's stamped submission and an unstamped one — behind its opening
// checkpoint: the segment's bytes up to the log's end, without the zeros
// past it.
func walSegmentBytes(t testing.TB, kind core.BatchKind) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := openWAL(dir, DefaultWALSegmentBytes, 5, kind, nil)
	if err != nil {
		t.Fatal(err)
	}
	two, _ := walItem(kind, 2, "fuzz-b").Append(walItem(kind, 3, "fuzz-c"))
	if err := w.appendBatch(walClient, 1, walItem(kind, 1, "fuzz-a")); err != nil {
		t.Fatal(err)
	}
	if err := w.appendBatch(0, 0, two); err != nil {
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
	return seg[:end]
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
	dir := walDirWith(t, kind, append(walSegmentBytes(t, kind), walOversizedClaim()...))
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
	if got := walDescribe(t, rec.pending); got != "fuzz-a/1 fuzz-b/2 fuzz-c/3" {
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
	}
	for _, blinded := range []bool{false, true} {
		kind, other := core.KindEnvelopes, core.KindBlinded
		if blinded {
			kind, other = other, kind
		}
		// A gap: seq 2 was burned by a refused append.
		gap := appendRecord(nil, walRecBatch, append([]byte{0}, appendBatchCall(nil, walClient, 1, walItem(kind, 1, "fuzz-a"))...))
		gap = appendRecord(gap, walRecBatch, append([]byte{2}, appendBatchCall(nil, walClient, 2, walItem(kind, 3, "fuzz-c"))...))
		f.Add(blinded, gap)
		// A CRC-valid record holding the other kind.
		f.Add(blinded, appendRecord(nil, walRecBatch, append([]byte{0}, appendBatchCall(nil, walClient, 1, walItem(other, 1, "fuzz-x"))...)))
	}
	f.Fuzz(func(t *testing.T, blinded bool, seg []byte) {
		kind := core.KindEnvelopes
		if blinded {
			kind = core.KindBlinded
		}
		rec, err := recoverWAL(walDirWith(t, kind, seg), kind)
		if err != nil {
			return // a CRC-valid record that does not parse, or holds another kind
		}
		valid := walValidPrefix(seg)
		ref, err := recoverWAL(walDirWith(t, kind, valid), kind)
		if err != nil {
			t.Fatalf("the valid prefix alone does not recover: %v", err)
		}
		if !reflect.DeepEqual(rec.pending, ref.pending) || !reflect.DeepEqual(rec.marks, ref.marks) || rec.seqMax != ref.seqMax {
			t.Fatalf("bytes past the first bad record changed recovery: %d items %v vs %d items %v",
				rec.pending.Len(), rec.marks, ref.pending.Len(), ref.marks)
		}
		blobs := make([][]byte, 0, rec.pending.Len())
		for _, e := range rec.pending.Envelopes {
			blobs = append(blobs, e.Blob)
		}
		for _, e := range rec.pending.Blinded {
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
			for seq := 1; seq <= 5; seq++ {
				walAppend(t, w, int64(seq), walItem(kind, seq, fmt.Sprintf("item-%d", seq)))
			}
			if err := w.logCut(1, 1, 3); err != nil {
				t.Fatal(err)
			}
			if err := w.logCut(2, 4, 5); err != nil {
				t.Fatal(err)
			}
			if err := w.resolve(2, false); err != nil {
				t.Fatal(err)
			}
			w.closeFiles() // crash with epoch 1 mid-push

			rec := walRecover(t, dir, kind)
			if len(rec.epochs) != 1 || rec.epochs[0].id != 1 || walDescribe(t, rec.epochs[0].batch) != "item-1/1 item-2/2 item-3/3" {
				t.Errorf("%d-byte segments: recovered epochs %+v, want epoch 1 with its 3 items", segBytes, rec.epochs)
			}
			if rec.pending.Len() != 0 || rec.epochMax != 2 {
				t.Errorf("%d-byte segments: %d pending, epoch max %d; want none and 2", segBytes, rec.pending.Len(), rec.epochMax)
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
		if err := w.appendBatch(stream, pos[stream], walItem(kind, int(id), "r")); err != nil {
			t.Fatal(err)
		}
		if err := w.logCut(id, id, id); err != nil {
			t.Fatal(err)
		}
		if err := w.resolve(id, true); err != nil {
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
	if rec.pending.Len() != 0 || len(rec.epochs) != 0 || rec.epochMax != 10000 || rec.seqMax != 10000 {
		t.Errorf("recovered %d pending, %d epochs, epoch max %d, seq max %d; want nothing and 10000/10000",
			rec.pending.Len(), len(rec.epochs), rec.epochMax, rec.seqMax)
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
