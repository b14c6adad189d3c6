package core

import (
	"bytes"
	"testing"
)

// sampleBatches covers every kind, including the empty-but-typed edge cases
// the kind tag must preserve.
func sampleBatches() []Batch {
	return []Batch{
		{},
		{Envelopes: []Envelope{}},
		{Envelopes: []Envelope{
			{Blob: []byte("blob-a")},
			{Blob: nil},
			{Blob: []byte{0x00, 0xff}},
		}},
		{Blinded: []BlindedEnvelope{}},
		{Blinded: []BlindedEnvelope{
			{CrowdC1: []byte("c1"), CrowdC2: []byte("c2"), Blob: []byte("payload"),
				Partition: 3},
			{CrowdC1: nil, CrowdC2: []byte{}, Blob: nil, Partition: -1},
		}},
		{Payloads: [][]byte{}},
		{Payloads: [][]byte{[]byte("one"), nil, {}, []byte("four")}},
	}
}

// bytesEquivalent treats nil and empty as the same field value — the copy
// and alias decoders legitimately differ on that representation, but no
// consumer distinguishes them.
func bytesEquivalent(a, b []byte) bool { return bytes.Equal(a, b) }

func envelopesEquivalent(a, b []Envelope) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytesEquivalent(a[i].Blob, b[i].Blob) {
			return false
		}
	}
	return true
}

func blindedEquivalent(a, b []BlindedEnvelope) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytesEquivalent(a[i].CrowdC1, b[i].CrowdC1) || !bytesEquivalent(a[i].CrowdC2, b[i].CrowdC2) ||
			!bytesEquivalent(a[i].Blob, b[i].Blob) || a[i].Partition != b[i].Partition {
			return false
		}
	}
	return true
}

func payloadsEquivalent(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytesEquivalent(a[i], b[i]) {
			return false
		}
	}
	return true
}

// batchesEquivalent compares item values; kind is compared by
// length-aware equivalence so a nil and a zero-length slice of the same
// kind agree.
func batchesEquivalent(a, b Batch) bool {
	return envelopesEquivalent(a.Envelopes, b.Envelopes) &&
		blindedEquivalent(a.Blinded, b.Blinded) &&
		payloadsEquivalent(a.Payloads, b.Payloads)
}

func TestBatchWireRoundTrip(t *testing.T) {
	for _, b := range sampleBatches() {
		enc := AppendBatch(nil, b)
		got, rest, err := DecodeBatchAlias(enc)
		if err != nil {
			t.Fatalf("kind %v: decode: %v", b.Kind(), err)
		}
		if len(rest) != 0 {
			t.Fatalf("kind %v: %d trailing bytes", b.Kind(), len(rest))
		}
		if got.Kind() != b.Kind() {
			t.Fatalf("kind round trip: got %v, want %v", got.Kind(), b.Kind())
		}
		if got.Len() != b.Len() {
			t.Fatalf("kind %v: len = %d, want %d", b.Kind(), got.Len(), b.Len())
		}
		if !batchesEquivalent(b, got) {
			t.Fatalf("kind %v: round trip changed the batch:\n got %+v\nwant %+v", b.Kind(), got, b)
		}
	}
}

// TestBatchWireAppendsInPlace checks that two batches can share one arena:
// the second decode starts where the first ended.
func TestBatchWireAppendsInPlace(t *testing.T) {
	all := sampleBatches()
	var enc []byte
	for _, b := range all {
		enc = AppendBatch(enc, b)
	}
	rest := enc
	for i, want := range all {
		var got Batch
		var err error
		got, rest, err = DecodeBatchAlias(rest)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !batchesEquivalent(want, got) {
			t.Fatalf("batch %d changed in a concatenated arena", i)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after decoding every batch", len(rest))
	}
}

// TestBatchWireRejectsTruncation: every strict prefix of a valid encoding
// must fail to decode — a torn frame can never yield a partial batch.
func TestBatchWireRejectsTruncation(t *testing.T) {
	for _, b := range sampleBatches() {
		if b.Len() == 0 {
			continue // the one-byte kind tags have no tearable interior
		}
		enc := AppendBatch(nil, b)
		for cut := 1; cut < len(enc); cut++ {
			if _, _, err := DecodeBatchAlias(enc[:cut]); err == nil {
				t.Fatalf("kind %v: decoding a %d/%d-byte prefix succeeded", b.Kind(), cut, len(enc))
			}
		}
	}
}

func TestBatchWireRejectsHostileCount(t *testing.T) {
	// Kind tag + a count claiming 2^40 envelopes, then nothing: the decoder
	// must reject before allocating.
	enc := []byte{byte(KindEnvelopes), 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, _, err := DecodeBatchAlias(enc); err == nil {
		t.Fatal("hostile count decoded")
	}
	if _, _, err := DecodeBatchAlias([]byte{0x77}); err == nil {
		t.Fatal("unknown kind decoded")
	}
	if _, _, err := DecodeBatchAlias(nil); err == nil {
		t.Fatal("empty buffer decoded")
	}
}

// checkBatchOps holds the kind-switching operations to the codec: cutting a
// batch at any point and appending the halves re-encodes to the same bytes,
// and a second kind is refused.
func checkBatchOps(t *testing.T, b Batch, enc []byte) {
	t.Helper()
	n := b.Len()
	for k := 0; k <= n; k++ {
		joined, err := b.Slice(0, k).Append(b.Slice(k, n))
		if err != nil {
			t.Fatalf("append of a batch's own halves: %v", err)
		}
		if got := AppendBatch(nil, joined); !bytes.Equal(got, enc) {
			t.Fatalf("Append(Slice(0,%d), Slice(%d,%d)) re-encodes to %x, want %x", k, k, n, got, enc)
		}
	}
	if b.Kind() == KindEmpty {
		return
	}
	other := Batch{Payloads: [][]byte{nil}}
	if b.Kind() == KindPayloads {
		other = Batch{Envelopes: []Envelope{{}}}
	}
	if _, err := b.Append(other); err == nil {
		t.Fatalf("a batch of %v took %v", b.Kind(), other.Kind())
	}
}

// FuzzBatchWireRoundTrip feeds arbitrary bytes to the decoder: it must
// never panic, and anything it accepts must re-encode and re-decode to an
// equivalent batch, with every truncation of
// the re-encoding rejected, and must satisfy the Slice/Append identities of
// checkBatchOps.
func FuzzBatchWireRoundTrip(f *testing.F) {
	for _, b := range sampleBatches() {
		f.Add(AppendBatch(nil, b))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindEnvelopes), 0x02, 0x01, 0x41})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, _, err := DecodeBatchAlias(data)
		if err != nil {
			return
		}
		enc := AppendBatch(nil, b)
		got, rest, err := DecodeBatchAlias(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest))
		}
		if !batchesEquivalent(b, got) {
			t.Fatalf("round trip changed the batch:\nfirst  %+v\nsecond %+v", b, got)
		}
		if b.Len() > 0 {
			for cut := 1; cut < len(enc); cut++ {
				if _, _, err := DecodeBatchAlias(enc[:cut]); err == nil {
					t.Fatalf("torn prefix %d/%d decoded", cut, len(enc))
				}
			}
		}
		checkBatchOps(t, b, enc)
	})
}
