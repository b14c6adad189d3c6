// Package core defines the wire types shared by the ESA pipeline stages:
// the client report, the nested-encrypted envelope a client submits to a
// shuffler, and the blinded-crowd-ID envelope of the split-shuffler protocol
// (§4.3). A party's connection address and the time an item arrived never
// enter an item: the one piece of arrival metadata an item carries is the
// sequence number its stage stamps on ingest, and the shuffle clears it
// (§3.3). Stage logic lives in packages encoder, shuffler, and analyzer; the
// public pipeline API is the repository root package.
package core

import (
	"crypto/sha256"
	"encoding/binary"
)

// CrowdIDSize is the fixed width of crowd identifiers on the wire — the
// paper's "8-byte integer crowd ID". Fixed width keeps all envelopes the
// same size, which oblivious shuffling requires.
const CrowdIDSize = 8

// CrowdID is the wire form of a crowd identifier.
type CrowdID [CrowdIDSize]byte

// HashCrowdID maps an arbitrary crowd label (application name, word hash,
// ⟨page, feature⟩ pair, ...) to its wire form.
func HashCrowdID(label string) CrowdID {
	h := sha256.Sum256([]byte("prochlo-crowd:" + label))
	var id CrowdID
	copy(id[:], h[:CrowdIDSize])
	return id
}

// PartitionOf maps a crowd ID to the partition that owns it in an M-wide
// downstream tier: partition = HashCrowdID mod M. Every holder of the same
// crowd label computes the same owner, so thresholding at the owning
// partition still sees the whole crowd even when upstream replicas split
// the traffic.
func PartitionOf(id CrowdID, m int) int32 {
	if m <= 1 {
		return 0
	}
	return int32(binary.BigEndian.Uint64(id[:]) % uint64(m))
}

// Report is a plaintext client report before encoding: the crowd it should
// be counted in and the data destined for the analyzer.
type Report struct {
	CrowdID CrowdID
	Data    []byte
}

// Envelope is what a client submits to a single shuffler: the nested
// ciphertext Seal(shuffler, crowdID || Seal(analyzer, data)). SeqNo is the
// arrival order the receiving stage stamps (Batch.Stamp); the shuffle strips
// it (§3.3). The sender's address and the arrival time are not recorded.
type Envelope struct {
	Blob  []byte
	SeqNo int
}

// BlindedEnvelope is the split-shuffler wire format (§4.3): the crowd ID
// travels as an El Gamal encryption of its hash point under Shuffler 2's
// key, so that Shuffler 1 can blind it without seeing it and Shuffler 2 can
// count it without un-blinding it.
type BlindedEnvelope struct {
	CrowdC1 []byte // group element, wire encoding (elgamal.Point.Bytes)
	CrowdC2 []byte // group element, wire encoding (elgamal.Point.Bytes)
	Blob    []byte // Seal(shuffler2, Seal(analyzer, data))

	// Partition is the owning hop-2 partition, PartitionOf(crowdID, M),
	// stamped by the client because only the client still knows the crowd
	// ID in the clear — downstream the ID travels El Gamal-encrypted and
	// blinded, so no hop can recompute the owner. It is routing data, not
	// implicit metadata: StripMetadata leaves it, and it deliberately
	// leaks log2(M) bits of the crowd ID to hop 1 in exchange for
	// crowd-consistent fan-in.
	Partition int32

	// SeqNo is the arrival order, as on Envelope.
	SeqNo int
}

// StripMetadata clears an envelope's arrival order, the one piece of
// implicit metadata an item carries, in place.
func (e *Envelope) StripMetadata() { e.SeqNo = 0 }

// StripMetadata clears a blinded envelope's arrival order in place.
func (e *BlindedEnvelope) StripMetadata() { e.SeqNo = 0 }
