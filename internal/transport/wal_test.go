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

func walOpen(t *testing.T, dir string, segBytes int64, stream int64, kind core.BatchKind) *wal {
	t.Helper()
	w, err := openWAL(dir, segBytes, stream, kind, walStartGen(dir))
	if err != nil {
		t.Fatal(err)
	}
	return w
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
// every dedup mark restored.
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

		// Epoch 2 (seqs 3-5, over two records): cut, never resolved.
		walAppend(t, w, 2, walBatch(t, walItem(kind, 3, "open-a"), walItem(kind, 5, "open-c")))
		walAppend(t, w, 3, walItem(kind, 4, "open-b"))
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
		if got := walDescribe(t, rec.epochs[0].batch); got != "open-a/3/10.0.0.1 open-b/4/10.0.0.1 open-c/5/10.0.0.1" {
			t.Errorf("epoch 2 items = %q, want open-a open-b open-c in seq order", got)
		}
		if got := walDescribe(t, rec.pending); got != "pend-a/6/10.0.0.1 pend-b/7/10.0.0.1" {
			t.Errorf("pending = %q, want pend-a/6 pend-b/7", got)
		}
		want := [][2]int64{{walClient, 1}, {walClient, 2}, {walClient, 3}, {walClient, 4}, {99, 7}}
		if !reflect.DeepEqual(rec.marks, want) {
			t.Errorf("marks = %v, want %v", rec.marks, want)
		}
	})
}

// TestWALTornTailIgnored crash-truncates a segment mid-record and checks
// recovery keeps every record before the tear and drops the torn one.
func TestWALTornTailIgnored(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 7, kind)
		walAppend(t, w, 1, walItem(kind, 1, "whole"))
		walAppend(t, w, 2, walItem(kind, 2, "torn-away"))
		segPath := w.ingest.path
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}

		// Tear the last record: chop a few bytes off the file.
		fi, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(segPath, fi.Size()-3); err != nil {
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
		w := walOpen(t, dir, 64, 7, kind) // rotate after ~one record
		for seq := 1; seq <= 4; seq++ {
			walAppend(t, w, int64(seq), walItem(kind, seq, "segment-filler-payload-to-force-rotation"))
		}
		if err := w.logCut(1, 1, 4); err != nil {
			t.Fatal(err)
		}
		sealedBefore, _ := filepath.Glob(filepath.Join(dir, walIngestPrefix+"-*.log"))
		if len(sealedBefore) < 2 {
			t.Fatalf("expected rotation to produce multiple segments, got %v", sealedBefore)
		}
		w.resolve(1, true)
		left, _ := filepath.Glob(filepath.Join(dir, walIngestPrefix+"-*.log"))
		// Only the active (empty) segment may survive.
		if len(left) != 1 {
			t.Errorf("segments after resolve = %v, want only the active one", left)
		}
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWALMarkOutlivesTruncation: a resolved epoch's ingest segments are
// deleted, and with them the batch records holding its dedup marks, so the
// marks must survive in the epoch log — and after a crash that skipped the
// final sync, and again after the recovery's rewrite. Marks of batches no
// cut has taken yet may still be queued in memory at the crash; their batch
// records are still on disk.
func TestWALMarkOutlivesTruncation(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		dir := t.TempDir()
		w := walOpen(t, dir, 64, 7, kind) // rotate after every record
		payload := strings.Repeat("segment-filler-payload-to-force-rotation", 3)
		for seq := 1; seq <= 4; seq++ {
			walAppend(t, w, int64(seq), walItem(kind, seq, payload))
		}
		if err := w.logCut(1, 1, 4); err != nil {
			t.Fatal(err)
		}
		walAppend(t, w, 5, walItem(kind, 5, payload))
		if err := w.appendBatch(99, 7, walItem(kind, 6, payload)); err != nil {
			t.Fatal(err)
		}
		w.resolve(1, true)
		walAppend(t, w, 6, walItem(kind, 7, payload))
		if segs, _ := filepath.Glob(filepath.Join(dir, walIngestPrefix+"-*.log")); len(segs) != 4 {
			t.Fatalf("ingest segments after the resolve = %v, want the three unresolved batches' and the active one", segs)
		}
		w.closeFiles() // crash: no syncAll

		want := [][2]int64{{walClient, 1}, {walClient, 2}, {walClient, 3}, {walClient, 4}, {walClient, 5}, {walClient, 6}, {99, 7}}
		rec := walRecover(t, dir, kind)
		if !reflect.DeepEqual(rec.marks, want) {
			t.Fatalf("marks after truncation and a crash = %v, want %v", rec.marks, want)
		}
		w2 := walOpen(t, dir, 64, rec.stream, kind)
		if err := migrateWAL(w2, rec); err != nil {
			t.Fatal(err)
		}
		w2.closeFiles() // crash right after the rewrite
		if rec2 := walRecover(t, dir, kind); !reflect.DeepEqual(rec2.marks, want) {
			t.Fatalf("marks after migration and a crash = %v, want %v", rec2.marks, want)
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

// TestWALMigrationIdempotent: recovering, rewriting via migrateWAL, and
// crashing before/after the old files are deleted must recover to the same
// state — the seq/id dedup absorbs the overlap.
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

		rec := walRecover(t, dir, kind)
		w2 := walOpen(t, dir, DefaultWALSegmentBytes, rec.stream, kind)
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
		if want := [][2]int64{{walClient, 1}}; !reflect.DeepEqual(rec2.marks, want) {
			t.Errorf("post-migration marks = %v, want %v", rec2.marks, want)
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
		if rec := walRecover(t, dir, kind); walDescribe(t, rec.pending) != "not-yours/1/10.0.0.1" {
			t.Errorf("the refused directory no longer recovers as its own kind: %+v", rec)
		}
	})
}

// TestWALRecordsMatchParentEncoding feeds the same pushed batch to the record
// writer and to the encoder it replaced — the per-item closures over typed
// slices, written out here as they stood — and compares the segment files
// byte for byte. The batch record (the forward record every wire submission
// has taken since PR 7), the mark replica and the cut record did not move, so
// a wire-fed daemon writes the same directory it always did: one ingest
// segment and the epoch log.
func TestWALRecordsMatchParentEncoding(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
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
		body := binary.AppendVarint(nil, 99)
		body = binary.AppendVarint(body, 7)
		body = binary.AppendUvarint(body, uint64(fwd.Len()))
		for i := 0; i < fwd.Len(); i++ {
			body = binary.AppendUvarint(body, uint64(seqOf(fwd, i)))
			item := enc(fwd, i, nil)
			body = append(binary.AppendUvarint(body, uint64(len(item))), item...)
		}
		wantFwd := appendRecord(nil, 6, body) // the parent's forward record type, spelled out
		wantEpochs := appendRecord(nil, walRecMark, binary.AppendVarint(binary.AppendVarint(nil, 99), 7))
		cut := binary.AppendUvarint(binary.AppendUvarint(binary.AppendVarint(nil, 1), 1), 3)
		wantEpochs = appendRecord(wantEpochs, walRecCut, cut)

		dir := t.TempDir()
		w := walOpen(t, dir, DefaultWALSegmentBytes, 5, kind)
		if err := w.appendBatch(99, 7, fwd); err != nil {
			t.Fatal(err)
		}
		if err := w.logCut(1, 1, 3); err != nil {
			t.Fatal(err)
		}
		if err := w.close(false); err != nil {
			t.Fatal(err)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 3 {
			t.Errorf("wal dir holds %v, want wal.meta, one ingest segment and the epoch log", files)
		}
		for prefix, want := range map[string][]byte{"fwd": wantFwd, "epochs": wantEpochs} {
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

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// walAppendAllocs bounds the allocations of logging one stamped 5-item
// batch in steady state (EXPERIMENTS.md has the measured counts).
const walAppendAllocs = 0

// TestWALAppendBatchAllocs gates what the log costs a client's call beyond
// its write and fsync: appending a stamped 5-item batch — the record, its
// items and the queued mark replica — reuses the log's buffers and
// allocates nothing once they have grown.
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
// kind beside seg as the one ingest segment.
func walDirWith(t testing.TB, kind core.BatchKind, seg []byte) string {
	t.Helper()
	dir := t.TempDir()
	meta := appendRecord(nil, walRecMeta, appendWireInts(nil, 5, int64(kind)))
	if err := os.WriteFile(filepath.Join(dir, walMetaName), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walIngestPrefix+"-000000000001.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// walSegmentBytes returns the ingest segment a wal writes for two batches of
// kind: a client's stamped submission and an unstamped migration slice.
func walSegmentBytes(t testing.TB, kind core.BatchKind) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := openWAL(dir, DefaultWALSegmentBytes, 5, kind, 0)
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
	path := w.ingest.path
	if err := w.close(false); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return seg
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
	if got := walDescribe(t, rec.pending); got != "fuzz-a/1/10.0.0.1 fuzz-b/2/10.0.0.1 fuzz-c/3/10.0.0.1" {
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

// FuzzWALRecovery writes arbitrary bytes as the ingest segment behind a valid
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
	}
	f.Fuzz(func(t *testing.T, blinded bool, seg []byte) {
		kind := core.KindEnvelopes
		if blinded {
			kind = core.KindBlinded
		}
		rec, err := recoverWAL(walDirWith(t, kind, seg), kind)
		if err != nil {
			return // a CRC-valid record whose items do not decode as kind
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
