package core

import "fmt"

// BatchKind discriminates the payload of a wire Batch.
type BatchKind uint8

const (
	// KindEmpty is a batch carrying nothing (the zero value).
	KindEmpty BatchKind = iota
	// KindEnvelopes is a batch of single-shuffler nested-encrypted
	// envelopes — what clients submit to a plain or SGX shuffler.
	KindEnvelopes
	// KindBlinded is a batch of split-shuffler envelopes with El
	// Gamal-encrypted crowd IDs (§4.3) — what clients submit to Shuffler 1
	// and what Shuffler 1 forwards to Shuffler 2.
	KindBlinded
	// KindPayloads is a batch of peeled inner ciphertexts — what the last
	// shuffler hop forwards to the analyzer.
	KindPayloads
)

// String names the kind for error messages.
func (k BatchKind) String() string {
	switch k {
	case KindEmpty:
		return "empty"
	case KindEnvelopes:
		return "envelopes"
	case KindBlinded:
		return "blinded envelopes"
	case KindPayloads:
		return "peeled payloads"
	}
	return "unknown"
}

// Batch is the shared wire encoding for report batches at every hop of an
// ESA stage chain: client envelopes entering a shuffler, blinded envelopes
// traveling between the split shufflers, and peeled inner ciphertexts bound
// for the analyzer. Exactly one of the slices is non-nil, so one Forward
// frame moves an epoch between any two stage daemons regardless of which
// hop pair they are; wirebatch.go is its codec.
type Batch struct {
	Envelopes []Envelope
	Blinded   []BlindedEnvelope
	Payloads  [][]byte
}

// Kind reports which payload the batch carries. A batch populated with more
// than one slice reports the first in Envelopes, Blinded, Payloads order
// (constructors never build such a batch).
func (b Batch) Kind() BatchKind {
	switch {
	case b.Envelopes != nil:
		return KindEnvelopes
	case b.Blinded != nil:
		return KindBlinded
	case b.Payloads != nil:
		return KindPayloads
	}
	return KindEmpty
}

// Len is the number of items the batch carries.
func (b Batch) Len() int {
	return len(b.Envelopes) + len(b.Blinded) + len(b.Payloads)
}

// Slice returns items [lo, hi) as a batch of the same kind. The result
// shares b's storage but not its spare capacity, so appending to a slice
// never writes over its neighbour.
func (b Batch) Slice(lo, hi int) Batch {
	switch b.Kind() {
	case KindEnvelopes:
		return Batch{Envelopes: b.Envelopes[lo:hi:hi]}
	case KindBlinded:
		return Batch{Blinded: b.Blinded[lo:hi:hi]}
	case KindPayloads:
		return Batch{Payloads: b.Payloads[lo:hi:hi]}
	}
	return Batch{}
}

// Append returns b extended by other's items (as append does: the result
// may reuse b's storage, never other's spare capacity). An empty batch takes
// the other's kind; two concrete kinds must agree — a batch never mixes item
// layouts.
func (b Batch) Append(other Batch) (Batch, error) {
	bk, ok := b.Kind(), other.Kind()
	switch {
	case ok == KindEmpty:
		return b, nil
	case bk == KindEmpty:
		return other.Slice(0, other.Len()), nil
	case bk != ok:
		return b, fmt.Errorf("core: cannot append %v to a batch of %v", ok, bk)
	}
	switch bk {
	case KindEnvelopes:
		b.Envelopes = append(b.Envelopes, other.Envelopes...)
	case KindBlinded:
		b.Blinded = append(b.Blinded, other.Blinded...)
	case KindPayloads:
		b.Payloads = append(b.Payloads, other.Payloads...)
	}
	return b, nil
}
