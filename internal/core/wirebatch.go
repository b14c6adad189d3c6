package core

import (
	"encoding/binary"
	"fmt"
)

// Binary wire form of a whole Batch, built on the per-item walwire codec: a
// kind tag, a uvarint item count, and the items back to back (envelopes and
// blinded envelopes in their durable AppendWire layout, payloads as plain
// length-prefixed blobs). Like the per-item codec it carries no per-stream
// type metadata, so a hop-to-hop push is a single reflection-free marshal.
// SeqNo is deliberately not encoded: the receiving stage stamps fresh
// arrival metadata on ingest.

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

// DecodeBatch decodes an AppendBatch encoding from the front of buf,
// returning the batch and the remaining bytes. Every field is copied out of
// buf, so the buffer may be reused afterwards.
func DecodeBatch(buf []byte) (Batch, []byte, error) {
	return decodeBatch(buf, false)
}

// DecodeBatchAlias is DecodeBatch without the copies: decoded byte fields
// alias buf. Use it when the buffer was freshly allocated for this decode
// and is handed over with the batch (the network receive path); the caller
// must not reuse or mutate buf while the batch lives.
func DecodeBatchAlias(buf []byte) (Batch, []byte, error) {
	return decodeBatch(buf, true)
}

// maxBatchItems bounds the decoded item count before any allocation, so a
// corrupt or hostile count cannot drive a huge make(). The per-item
// encodings are at least one byte, so a count beyond the buffer length is
// corrupt regardless.
func batchCount(buf []byte) (int, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || n > uint64(len(buf)-k) {
		return 0, nil, fmt.Errorf("core: corrupt batch count")
	}
	return int(n), buf[k:], nil
}

func decodeBatch(buf []byte, alias bool) (Batch, []byte, error) {
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
			if rest, err = b.Envelopes[i].consumeWire(rest, alias); err != nil {
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
			if rest, err = b.Blinded[i].consumeWire(rest, alias); err != nil {
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
			if alias {
				b.Payloads[i] = p
			} else {
				b.Payloads[i] = append([]byte(nil), p...)
			}
		}
		return b, rest, nil
	}
	return b, nil, fmt.Errorf("core: unknown batch kind 0x%02x", byte(kind))
}
