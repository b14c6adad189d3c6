package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
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
			Partition: 3, SourceIP: "10.0.0.1", SeqNo: seq,
		}}}
	}
	return core.Batch{Envelopes: []core.Envelope{{Blob: []byte(value), SourceIP: "10.0.0.1", SeqNo: seq}}}
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

// walDescribe renders a recovered batch as "blob/seq/ip" per item; for a
// blinded batch the crowd points and partition must have survived too.
func walDescribe(t *testing.T, b core.Batch) string {
	t.Helper()
	var out []string
	for _, e := range b.Envelopes {
		out = append(out, fmt.Sprintf("%s/%d/%s", e.Blob, e.SeqNo, e.SourceIP))
	}
	for _, e := range b.Blinded {
		if string(e.CrowdC1) != "c1:"+string(e.Blob) || string(e.CrowdC2) != "c2:"+string(e.Blob) || e.Partition != 3 {
			t.Errorf("blinded fields lost: %+v", e)
		}
		out = append(out, fmt.Sprintf("%s/%d/%s", e.Blob, e.SeqNo, e.SourceIP))
	}
	return strings.Join(out, " ")
}

func walOpen(t *testing.T, dir string, shards int, segBytes int64, stream int64, kind core.BatchKind) *wal {
	t.Helper()
	w, err := openWAL(dir, shards, 0, segBytes, stream, kind, walStartGen(dir))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func walAppend(t *testing.T, w *wal, idx int, b core.Batch) {
	t.Helper()
	if err := w.appendItems(idx, b); err != nil {
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

// TestWALRecoverRoundTrip logs items, a cut, a forward ingest, and a
// resolution, then recovers the directory and checks every piece of state
// comes back: the stream id, the resolved epoch's items gone, the unresolved
// epoch regrouped under its id, the rest pending in seq order, and the
// forward dedup mark restored.
func TestWALRecoverRoundTrip(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, 2, DefaultWALSegmentBytes, 42, kind)

		// Epoch 1 (seqs 1-2): cut and resolved — must not come back.
		walAppend(t, w, 0, walBatch(t, walItem(kind, 1, "resolved-a"), walItem(kind, 2, "resolved-b")))
		if err := w.logCut(1, 1, 2); err != nil {
			t.Fatal(err)
		}
		w.resolve(1, true)

		// Epoch 2 (seqs 3-5, spread over both shards): cut, never resolved.
		walAppend(t, w, 0, walBatch(t, walItem(kind, 3, "open-a"), walItem(kind, 5, "open-c")))
		walAppend(t, w, 1, walItem(kind, 4, "open-b"))
		if err := w.logCut(2, 3, 5); err != nil {
			t.Fatal(err)
		}

		// Pending (seqs 6-7): accepted, never cut. Seq 7 arrives via a
		// forward ingest carrying a dedup mark.
		walAppend(t, w, 1, walItem(kind, 6, "pend-a"))
		if err := w.appendForward(99, 7, walItem(kind, 7, "pend-b")); err != nil {
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
		if got := walDescribe(t, rec.epochs[0].batch); got != "open-a/3/10.0.0.1 open-b/4/10.0.0.1 open-c/5/10.0.0.1" {
			t.Errorf("epoch 2 items = %q, want open-a open-b open-c in seq order", got)
		}
		if got := walDescribe(t, rec.pending); got != "pend-a/6/10.0.0.1 pend-b/7/10.0.0.1" {
			t.Errorf("pending = %q, want pend-a/6 pend-b/7", got)
		}
		if len(rec.marks) != 1 || rec.marks[0] != [2]int64{99, 7} {
			t.Errorf("marks = %v, want [[99 7]]", rec.marks)
		}
	})
}

// TestWALTornTailIgnored crash-truncates a segment mid-record and checks
// recovery keeps every record before the tear and drops the torn one.
func TestWALTornTailIgnored(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, 1, DefaultWALSegmentBytes, 7, kind)
		walAppend(t, w, 0, walBatch(t, walItem(kind, 1, "whole"), walItem(kind, 2, "torn-away")))
		shardPath := w.shards[0].path
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}

		// Tear the last record: chop a few bytes off the file.
		fi, err := os.Stat(shardPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(shardPath, fi.Size()-3); err != nil {
			t.Fatal(err)
		}

		rec := walRecover(t, dir, kind)
		if got := walDescribe(t, rec.pending); got != "whole/1/10.0.0.1" {
			t.Fatalf("pending after torn tail = %q, want just the whole record", got)
		}
	})
}

// TestWALResolveReclaimsSegments rotates segments with a tiny size limit and
// checks resolved epochs' sealed segments are deleted while unresolved ones
// survive.
func TestWALResolveReclaimsSegments(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, 1, 64, 7, kind) // rotate after ~one record
		for seq := 1; seq <= 4; seq++ {
			walAppend(t, w, 0, walItem(kind, seq, "segment-filler-payload-to-force-rotation"))
		}
		if err := w.logCut(1, 1, 4); err != nil {
			t.Fatal(err)
		}
		sealedBefore, _ := filepath.Glob(filepath.Join(dir, "shard-*.log"))
		if len(sealedBefore) < 2 {
			t.Fatalf("expected rotation to produce multiple segments, got %v", sealedBefore)
		}
		w.resolve(1, true)
		left, _ := filepath.Glob(filepath.Join(dir, "shard-*.log"))
		// Only the active (empty) segment may survive.
		if len(left) != 1 {
			t.Errorf("segments after resolve = %v, want only the active one", left)
		}
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWALCleanCloseWipes: a wiping close leaves nothing to recover.
func TestWALCleanCloseWipes(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, 2, DefaultWALSegmentBytes, 7, kind)
		walAppend(t, w, 0, walItem(kind, 1, "gone"))
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

// TestWALMigrationIdempotent: recovering, rewriting via migrateWAL, and
// crashing before/after the old files are deleted must recover to the same
// state — the seq/id dedup absorbs the overlap.
func TestWALMigrationIdempotent(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, 1, DefaultWALSegmentBytes, 11, kind)
		walAppend(t, w, 0, walBatch(t, walItem(kind, 1, "epoch-item"), walItem(kind, 2, "pending-item")))
		if err := w.logCut(1, 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}

		rec := walRecover(t, dir, kind)
		w2 := walOpen(t, dir, 1, DefaultWALSegmentBytes, rec.stream, kind)
		if err := migrateWAL(w2, rec); err != nil {
			t.Fatal(err)
		}
		w2.closeFiles() // crash right after migration

		rec2 := walRecover(t, dir, kind)
		if rec2.stream != 11 || rec2.seqMax != 2 || rec2.epochMax != 1 {
			t.Errorf("post-migration recovery stream=%d seqMax=%d epochMax=%d, want 11/2/1",
				rec2.stream, rec2.seqMax, rec2.epochMax)
		}
		if len(rec2.epochs) != 1 || walDescribe(t, rec2.epochs[0].batch) != "epoch-item/1/10.0.0.1" {
			t.Errorf("post-migration epochs = %+v", rec2.epochs)
		}
		if got := walDescribe(t, rec2.pending); got != "pending-item/2/10.0.0.1" {
			t.Errorf("post-migration pending = %q", got)
		}
	})
}

// TestWALRefusesOtherKind: item records carry no kind, so without the meta
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
		w := walOpen(t, dir, 1, DefaultWALSegmentBytes, 5, kind)
		walAppend(t, w, 0, walItem(kind, 1, "not-yours"))
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
		if rec := walRecover(t, dir, kind); walDescribe(t, rec.pending) != "not-yours/1/10.0.0.1" {
			t.Errorf("the refused directory no longer recovers as its own kind: %+v", rec)
		}
	})
}

// TestWALRecordsMatchParentEncoding feeds the same submissions to the record
// writer and to the encoder it replaced — the per-item closures over typed
// slices, written out here as they stood — and compares the segment files
// byte for byte: item, forward, mark and cut records did not move, so a
// directory written before the engine lost its type parameter replays to the
// same epochs (the meta record, which gained the kind, is the one exception).
func TestWALRecordsMatchParentEncoding(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		items := walBatch(t, walItem(kind, 1, "a"), walItem(kind, 2, "bb"), walItem(kind, 3, ""))
		fwd := walBatch(t, walItem(kind, 4, "forwarded"), walItem(kind, 5, "too"))

		// The replaced encoder: seq and enc closures per typed item.
		var seqOf func(b core.Batch, i int) int64
		var enc func(b core.Batch, i int, dst []byte) []byte
		if kind == core.KindBlinded {
			seqOf = func(b core.Batch, i int) int64 { return int64(b.Blinded[i].SeqNo) }
			enc = func(b core.Batch, i int, dst []byte) []byte { return b.Blinded[i].AppendWire(dst) }
		} else {
			seqOf = func(b core.Batch, i int) int64 { return int64(b.Envelopes[i].SeqNo) }
			enc = func(b core.Batch, i int, dst []byte) []byte { return b.Envelopes[i].AppendWire(dst) }
		}
		var wantShard []byte
		for i := 0; i < items.Len(); i++ {
			body := binary.AppendUvarint(nil, uint64(seqOf(items, i)))
			wantShard = appendRecord(wantShard, walRecItem, enc(items, i, body))
		}
		body := binary.AppendVarint(nil, 99)
		body = binary.AppendVarint(body, 7)
		body = binary.AppendUvarint(body, uint64(fwd.Len()))
		for i := 0; i < fwd.Len(); i++ {
			body = binary.AppendUvarint(body, uint64(seqOf(fwd, i)))
			item := enc(fwd, i, nil)
			body = append(binary.AppendUvarint(body, uint64(len(item))), item...)
		}
		wantFwd := appendRecord(nil, walRecFwd, body)
		wantEpochs := appendRecord(nil, walRecMark, binary.AppendVarint(binary.AppendVarint(nil, 99), 7))
		cut := binary.AppendUvarint(binary.AppendUvarint(binary.AppendVarint(nil, 1), 1), 3)
		wantEpochs = appendRecord(wantEpochs, walRecCut, cut)

		dir := t.TempDir()
		w := walOpen(t, dir, 1, DefaultWALSegmentBytes, 5, kind)
		walAppend(t, w, 0, items)
		if err := w.appendForward(99, 7, fwd); err != nil {
			t.Fatal(err)
		}
		if err := w.logCut(1, 1, 3); err != nil {
			t.Fatal(err)
		}
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}
		for prefix, want := range map[string][]byte{"shard-0000": wantShard, "fwd": wantFwd, "epochs": wantEpochs} {
			paths, _ := filepath.Glob(filepath.Join(dir, prefix+"-*.log"))
			if len(paths) != 1 {
				t.Fatalf("%s segments = %v, want one", prefix, paths)
			}
			got, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s segment differs from the replaced encoder's:\n got %x\nwant %x", prefix, got, want)
			}
		}
	})
}
