package core

import (
	"encoding/binary"
	"fmt"
)

// Binary wire form of a whole Batch, the one encoding of an item: a kind tag,
// a uvarint item count, and the items back to back as uvarint-length-prefixed
// fields (an envelope's blob; a blinded envelope's two crowd points, blob and
// varint partition; a payload's bytes). No reflection and no per-item type
// metadata, so a hop-to-hop push is a single marshal. The WAL logs a batch
// as this encoding behind the sequence base its engine gave the batch.

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

// AppendWire appends the envelope's wire form: its blob.
func (e *Envelope) AppendWire(dst []byte) []byte {
	return appendBytes(dst, e.Blob)
}

// consumeWire decodes one envelope from the front of b, returning the rest.
// The blob aliases b (see DecodeBatchAlias).
func (e *Envelope) consumeWire(b []byte) ([]byte, error) {
	blob, b, err := consumeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("envelope blob: %w", err)
	}
	e.Blob = blob
	return b, nil
}

// AppendWire appends the blinded envelope's wire form: the El Gamal crowd-ID
// points, the blob and the owning partition.
func (e *BlindedEnvelope) AppendWire(dst []byte) []byte {
	dst = appendBytes(dst, e.CrowdC1)
	dst = appendBytes(dst, e.CrowdC2)
	dst = appendBytes(dst, e.Blob)
	return binary.AppendVarint(dst, int64(e.Partition))
}

// consumeWire decodes one blinded envelope from the front of b, returning
// the rest; its byte fields alias b.
func (e *BlindedEnvelope) consumeWire(b []byte) ([]byte, error) {
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
	e.CrowdC1, e.CrowdC2, e.Blob = c1, c2, blob
	e.Partition = int32(part)
	return b[k:], nil
}

// AppendBatch appends b's binary wire encoding to dst and returns the
// extended buffer. An empty batch of a concrete kind (e.g. zero envelopes)
// keeps its kind tag, so Kind round-trips.
func AppendBatch(dst []byte, b Batch) []byte {
	kind := b.Kind()
	dst = append(dst, byte(kind))
	switch kind {
	case KindEnvelopes:
		dst = binary.AppendUvarint(dst, uint64(len(b.Envelopes)))
		for i := range b.Envelopes {
			dst = b.Envelopes[i].AppendWire(dst)
		}
	case KindBlinded:
		dst = binary.AppendUvarint(dst, uint64(len(b.Blinded)))
		for i := range b.Blinded {
			dst = b.Blinded[i].AppendWire(dst)
		}
	case KindPayloads:
		dst = binary.AppendUvarint(dst, uint64(len(b.Payloads)))
		for _, p := range b.Payloads {
			dst = appendBytes(dst, p)
		}
	}
	return dst
}

// batchCount reads a batch's item count and bounds it before any
// allocation, so a corrupt or hostile count cannot drive a huge make(). The per-item
// encodings are at least one byte, so a count beyond the buffer length is
// corrupt regardless.
func batchCount(buf []byte) (int, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || n > uint64(len(buf)-k) {
		return 0, nil, fmt.Errorf("core: corrupt batch count")
	}
	return int(n), buf[k:], nil
}

// DecodeBatchAlias decodes an AppendBatch encoding from the front of buf,
// returning the batch and the remaining bytes. Decoded byte fields alias buf:
// the buffer was freshly allocated for this decode and is handed over with
// the batch (the network receive path, WAL recovery), so the caller must not
// reuse or mutate buf while the batch lives.
func DecodeBatchAlias(buf []byte) (Batch, []byte, error) {
	if len(buf) == 0 {
		return Batch{}, nil, fmt.Errorf("core: empty batch encoding")
	}
	kind, buf := BatchKind(buf[0]), buf[1:]
	var b Batch
	switch kind {
	case KindEmpty:
		return b, buf, nil
	case KindEnvelopes:
		n, rest, err := batchCount(buf)
		if err != nil {
			return b, nil, err
		}
		b.Envelopes = make([]Envelope, n)
		for i := range b.Envelopes {
			if rest, err = b.Envelopes[i].consumeWire(rest); err != nil {
				return b, nil, fmt.Errorf("core: batch envelope %d: %w", i, err)
			}
		}
		return b, rest, nil
	case KindBlinded:
		n, rest, err := batchCount(buf)
		if err != nil {
			return b, nil, err
		}
		b.Blinded = make([]BlindedEnvelope, n)
		for i := range b.Blinded {
			if rest, err = b.Blinded[i].consumeWire(rest); err != nil {
				return b, nil, fmt.Errorf("core: batch blinded envelope %d: %w", i, err)
			}
		}
		return b, rest, nil
	case KindPayloads:
		n, rest, err := batchCount(buf)
		if err != nil {
			return b, nil, err
		}
		b.Payloads = make([][]byte, n)
		for i := range b.Payloads {
			var p []byte
			if p, rest, err = consumeBytes(rest); err != nil {
				return b, nil, fmt.Errorf("core: batch payload %d: %w", i, err)
			}
			b.Payloads[i] = p
		}
		return b, rest, nil
	}
	return b, nil, fmt.Errorf("core: unknown batch kind 0x%02x", byte(kind))
}
