package core

import (
	"encoding/binary"
	"fmt"
	"time"
	"unsafe"
)

// Compact binary (re-)serialization of the wire item types for durability
// logs. A crash-safe stage service must persist every accepted item before
// acknowledging it, so this encoding is built for the append path: length-
// prefixed fields into a caller-owned buffer, no reflection, no per-item
// type metadata. The sequence number is deliberately not part of the encoding — the log record
// that wraps an item carries its global sequence stamp, and decoding
// restores it from there — so re-encoding an item is stable across restarts.

// appendBytes appends a uvarint length prefix and the bytes.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// consumeBytes decodes one length-prefixed field, returning the field and
// the remaining buffer. The field aliases b; callers that retain it past the
// buffer's lifetime must copy.
func consumeBytes(b []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, fmt.Errorf("core: corrupt length prefix")
	}
	return b[k : k+int(n) : k+int(n)], b[k+int(n):], nil
}

// aliasString views b as a string without copying. Legal only under the
// alias-decode contract (the buffer is handed over with the items and never
// written again); the copy decoders must keep using string(b).
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendTime appends an arrival timestamp: 0 for the zero time, else the
// Unix nanosecond reading (a genuine 1970-epoch instant is indistinguishable
// from unset, which is harmless for arrival metadata the stage strips).
func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return binary.AppendVarint(dst, 0)
	}
	return binary.AppendVarint(dst, t.UnixNano())
}

// consumeTime decodes an appendTime timestamp.
func consumeTime(b []byte) (time.Time, []byte, error) {
	ns, k := binary.Varint(b)
	if k <= 0 {
		return time.Time{}, nil, fmt.Errorf("core: corrupt timestamp")
	}
	if ns == 0 {
		return time.Time{}, b[k:], nil
	}
	return time.Unix(0, ns), b[k:], nil
}

// AppendWire appends the envelope's durable form (blob + arrival metadata,
// excluding SeqNo; see the package comment above).
func (e *Envelope) AppendWire(dst []byte) []byte {
	dst = appendBytes(dst, e.Blob)
	dst = appendBytes(dst, []byte(e.SourceIP))
	return appendTime(dst, e.ArrivalTime)
}

// consumeWire decodes one envelope from the front of b, returning the rest.
// With alias set the byte fields alias b instead of being copied out — legal
// only when the buffer outlives the envelope (e.g. a freshly allocated
// network frame handed over wholesale).
func (e *Envelope) consumeWire(b []byte, alias bool) ([]byte, error) {
	blob, b, err := consumeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("envelope blob: %w", err)
	}
	ip, b, err := consumeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("envelope source ip: %w", err)
	}
	at, b, err := consumeTime(b)
	if err != nil {
		return nil, fmt.Errorf("envelope arrival time: %w", err)
	}
	if alias {
		e.Blob = blob
		e.SourceIP = aliasString(ip)
	} else {
		e.Blob = append([]byte(nil), blob...)
		e.SourceIP = string(ip)
	}
	e.ArrivalTime = at
	return b, nil
}

// AppendWire appends the blinded envelope's durable form (El Gamal crowd-ID
// points, blob, owning partition, arrival metadata, excluding SeqNo).
func (e *BlindedEnvelope) AppendWire(dst []byte) []byte {
	dst = appendBytes(dst, e.CrowdC1)
	dst = appendBytes(dst, e.CrowdC2)
	dst = appendBytes(dst, e.Blob)
	dst = binary.AppendVarint(dst, int64(e.Partition))
	dst = appendBytes(dst, []byte(e.SourceIP))
	return appendTime(dst, e.ArrivalTime)
}

// consumeWire decodes one blinded envelope from the front of b, returning
// the rest; see Envelope.consumeWire for the alias contract.
func (e *BlindedEnvelope) consumeWire(b []byte, alias bool) ([]byte, error) {
	c1, b, err := consumeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("blinded crowd c1: %w", err)
	}
	c2, b, err := consumeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("blinded crowd c2: %w", err)
	}
	blob, b, err := consumeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("blinded blob: %w", err)
	}
	part, k := binary.Varint(b)
	if k <= 0 {
		return nil, fmt.Errorf("blinded partition: corrupt varint")
	}
	b = b[k:]
	ip, b, err := consumeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("blinded source ip: %w", err)
	}
	at, b, err := consumeTime(b)
	if err != nil {
		return nil, fmt.Errorf("blinded arrival time: %w", err)
	}
	if alias {
		e.CrowdC1, e.CrowdC2, e.Blob = c1, c2, blob
		e.SourceIP = aliasString(ip)
	} else {
		e.CrowdC1 = append([]byte(nil), c1...)
		e.CrowdC2 = append([]byte(nil), c2...)
		e.Blob = append([]byte(nil), blob...)
		e.SourceIP = string(ip)
	}
	e.Partition = int32(part)
	e.ArrivalTime = at
	return b, nil
}

// AppendItem appends envelope i's durable form: what a log record wraps
// beside the item's sequence stamp. Payloads are never logged and have none.
// (AppendBatch strings the same forms together with its own per-kind loops; a
// switch per item costs the hop-to-hop codec a fifth of its speed.)
func (b Batch) AppendItem(dst []byte, i int) []byte {
	if b.Kind() == KindBlinded {
		return b.Blinded[i].AppendWire(dst)
	}
	return b.Envelopes[i].AppendWire(dst)
}

// DecodeItem decodes one AppendItem encoding of the given kind into a batch
// of one, copying every field out of buf and restoring the sequence stamp
// the log record carried. Bytes left over mean the record was written for
// another layout and are refused.
func DecodeItem(kind BatchKind, buf []byte, seq int64) (Batch, error) {
	var (
		b    Batch
		rest []byte
		err  error
	)
	switch kind {
	case KindEnvelopes:
		b.Envelopes = []Envelope{{SeqNo: int(seq)}}
		rest, err = b.Envelopes[0].consumeWire(buf, false)
	case KindBlinded:
		b.Blinded = []BlindedEnvelope{{SeqNo: int(seq)}}
		rest, err = b.Blinded[0].consumeWire(buf, false)
	default:
		return b, fmt.Errorf("core: no item layout for a batch of %v", kind)
	}
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	if err != nil {
		return Batch{}, fmt.Errorf("core: %v item: %w", kind, err)
	}
	return b, nil
}
