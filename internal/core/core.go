// Package core defines the wire types shared by the ESA pipeline stages:
// the client report, the nested-encrypted envelope a client submits to a
// shuffler, and the blinded-crowd-ID envelope of the split-shuffler protocol
// (§4.3). No item carries arrival metadata: a party's connection address,
// the time an item arrived and its arrival order never enter an item (§3.3);
// a stage's epoch engine keeps the order beside its items. Stage logic lives in packages encoder, shuffler, and analyzer; the
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
// ciphertext Seal(shuffler, crowdID || Seal(analyzer, data)).
type Envelope struct {
	Blob []byte
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
	// implicit metadata, and it deliberately
	// leaks log2(M) bits of the crowd ID to hop 1 in exchange for
	// crowd-consistent fan-in.
	Partition int32
}
