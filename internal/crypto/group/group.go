// Package group puts the prime-order group under the crowd-ID El Gamal
// layer and the hybrid envelope layer behind a small Group/Element/Scalar
// interface. One group is deployed: ristretto255 (edwards25519's prime-order
// subgroup), hand-written here from the field up, is what Default returns and
// what every pipeline, daemon and client runs. NIST P-256 — the paper's
// curve — is the reference backend: stdlib arithmetic (crypto/elliptic),
// used by tests, which run the ristretto255 stack against it through the
// same interface.
//
// Three kernels compute the ristretto255 arithmetic, and this is the whole
// dispatch rule. The field multiply and square are chosen at build time: on
// amd64 they are MULQ assembly (fe25519_amd64.s, kernel "amd64"); on every
// other GOARCH, and on amd64 under -tags purego, the portable Go bodies in
// fe25519.go (kernel "generic"). On top of the amd64 build, the batch
// multiplications are chosen once at package init: when CPUID and XCR0
// report AVX-512 IFMA (and AVX512DQ, for one instruction of the comb's
// gather), MulBatch and MulDHBatch run the lane ladder and a CombBatch the
// lane comb of ed25519x8_amd64.go, eight multiplications per instruction
// (kernel "avx512ifma"); otherwise the scalar wNAF ladder and the scalar
// comb. The solo Mul, MulDH, BaseMul and Table.Mul always run the scalar
// kernels, as does a CombBatch's last group when it holds one
// multiplication (an eight-lane pass costs about one and a half solo combs
// however few lanes are live). No flag, environment variable or option
// takes part. The three produce identical bytes — every encoding,
// pseudonym and shared secret — so a fleet may mix them; RegisterMetrics
// says which one a process runs.
// Everything outside those kernels — point formulas, wNAF and comb ladders,
// encodings — is one body of Go.
//
// The lane comb is for callers that encode many reports at once: a
// Pipeline, a RemotePipeline and the load generator built on it, a future
// gateway that seals for its devices. It reads the same comb tables as the
// scalar comb (whose entries are therefore stored carried, below the lanes'
// 2^52 input bound; see edCombTable), so it costs no memory. A device that
// encodes one report per call never reaches it and needs nothing from it.
//
// The API is batch-oriented: the extended-Edwards kernels never invert per
// operation, Normalize converts an epoch-sized slice to affine with one
// shared field inversion (Montgomery trick), MulBatch and MulDHBatch recode a
// scalar that is fixed across a slice once, and Precompute (and BaseTable,
// for the generator) builds signed-digit comb tables for points that are
// fixed across a batch — the recipient key in the encoder, the analyzer key
// — turning each fixed-point multiplication into ~43 table additions with no
// doublings, and a CombBatch into one such sweep per eight multiplications,
// whichever tables they read. The reference backend meets the same contracts
// the plain way: it is always affine, so Normalize has nothing to do, and
// its batches and tables are loops over ScalarMult.
//
// Wire encodings are uniform across backends: Encode emits a 1-byte
// identity sentinel {0} or a 65-byte tagged uncompressed point (0x04 for
// P-256, SEC1-compatible; 0x05 for ristretto255), chosen so parsing never
// pays a square root on the hot path. Compress emits the short canonical
// form (33 bytes SEC1 compressed for P-256, 32 bytes sign-bit-packed
// Edwards y for ristretto255) used for pseudonym map keys and persisted
// public keys. Decode accepts every form and infers which it is from the
// length and tag.
//
// All ristretto255 kernels are variable-time. This repository reproduces a
// research system; the scalars being multiplied (blinding exponents,
// ephemeral secrets) are per-epoch or per-report values processed in bulk on
// trusted infrastructure, and the big.Int arithmetic this package replaces
// was variable-time too.
package group

import (
	"errors"
	"io"
	"math/big"
	"sync"

	"prochlo/internal/metrics"
	"prochlo/internal/parallel"
)

// Scalar is an opaque scalar: 32 bytes, big-endian, reduced into the
// group's scalar-field range.
type Scalar []byte

// ScalarSize is the byte length of scalars for every backend.
const ScalarSize = 32

// WireSize is the byte length of a non-identity wire (uncompressed) point
// encoding for every backend, including the 1-byte tag.
const WireSize = 65

const (
	tagP256      = 0x04 // SEC1 uncompressed
	tagRistretto = 0x05
)

// Element is a group element. The zero value is the identity of either
// backend. Elements are created by a Group and must only be combined with
// elements of the same Group.
type Element struct {
	ed  *edPoint
	ref *p256Point
}

// Table is a precomputed fixed-point multiplication table.
type Table interface {
	// Mul returns k*P for the fixed point P. The result may be in
	// projective form; batch callers put their multiplications in a
	// CombBatch instead.
	Mul(k Scalar) Element
}

// CombBatch is a batch of fixed-base multiplications over any mix of one
// group's tables (BaseTable, Precompute): slot i holds k*P + Q for its
// table's point P, its scalar k and an addend Q, the identity when unset. A
// batch encoder puts every fixed-base multiplication of one call in one
// CombBatch — each seal's k*G and k*K, each El Gamal encryption's r*G and
// r*Y + M — so that they share the lane comb's passes whichever tables
// they read, and all of the products one field inversion.
//
// Set fills slots; Run computes the products of a range of set slots, and
// distinct ranges may run concurrently; RunRecords does both for a batch
// of records on a pool of workers; Normalize, after every Run, brings all
// products to affine form; Out reads one.
type CombBatch struct {
	g     Group
	slots []combSlot
	out   []Element
}

// combSlot is one multiplication of a CombBatch.
type combSlot struct {
	t Table
	k Scalar
	q Element
}

// NewCombBatch returns a batch of n unset slots on g.
func NewCombBatch(g Group, n int) *CombBatch {
	return &CombBatch{g: g, slots: make([]combSlot, n), out: make([]Element, n)}
}

// Set puts k*P + q in slot i, for the fixed point P of t; q may be the zero
// Element.
func (b *CombBatch) Set(i int, t Table, k Scalar, q Element) { b.slots[i] = combSlot{t, k, q} }

// Run computes the products of slots [lo, hi). They are projective until
// Normalize.
func (b *CombBatch) Run(lo, hi int) { b.g.mulTables(b.out[lo:hi], b.slots[lo:hi]) }

// RunRecords fills and runs the batch as records of per slots each, on a
// pool of workers (0 selects GOMAXPROCS): queue(i) sets record i's slots,
// per*i to per*i+per-1, and each worker's range of records runs as one
// batch once every record in it is queued. It returns the lowest record
// whose queue failed, with its error (a failed record's range is not run),
// or -1 and nil.
func (b *CombBatch) RunRecords(workers, per int, queue func(i int) error) (int, error) {
	errs := make([]error, len(b.slots)/per)
	parallel.Ranges(parallel.Workers(workers), len(errs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if errs[i] = queue(i); errs[i] != nil {
				return
			}
		}
		b.Run(per*lo, per*hi)
	})
	return parallel.FirstError(errs)
}

// Normalize converts every product to affine form with one shared field
// inversion.
func (b *CombBatch) Normalize() { b.g.Normalize(b.out) }

// Out returns the product of slot i.
func (b *CombBatch) Out(i int) Element { return b.out[i] }

// Group is a prime-order group with batch-oriented kernels.
type Group interface {
	// Name identifies the backend ("p256" or "ristretto255") in errors,
	// logs and subtest names.
	Name() string
	// Order returns the group order (a fresh copy may not be assumed;
	// callers must not mutate it).
	Order() *big.Int
	// RandomScalar samples a uniform non-zero scalar by rejection
	// sampling (p256) or wide reduction (ristretto255); both consume a
	// deterministic number of rng bytes per attempt.
	RandomScalar(rng io.Reader) (Scalar, error)
	// Identity returns the neutral element.
	Identity() Element
	// Generator returns the standard base point.
	Generator() Element
	// BaseMul returns k*G via the precomputed base table.
	BaseMul(k Scalar) Element
	// BaseTable returns the generator's table, built once per process:
	// BaseTable().Mul(k) is BaseMul(k), and MulBatch is its batch form.
	BaseTable() Table
	// Mul returns k*P for a variable point.
	Mul(p Element, k Scalar) Element
	// MulBatch sets dst[i] = k*ps[i] for a scalar fixed across the batch,
	// recoding the scalar once per slice. dst and ps may alias. Results
	// are projective; call Normalize before encoding.
	MulBatch(dst, ps []Element, k Scalar)
	// Precompute builds a comb table for a point fixed across batches.
	Precompute(p Element) Table
	// Add returns p + q.
	Add(p, q Element) Element
	// Sub returns p - q.
	Sub(p, q Element) Element
	// Neg returns -p.
	Neg(p Element) Element
	// Equal reports p == q (projective-aware).
	Equal(p, q Element) bool
	// IsIdentity reports whether p is the neutral element.
	IsIdentity(p Element) bool
	// HashToElement maps data to a group element (try-and-increment for
	// p256, ristretto Elligator for ristretto255).
	HashToElement(data []byte) Element
	// Normalize converts a slice of elements to affine form with one
	// shared field inversion.
	Normalize(ps []Element)
	// Encode returns the wire encoding: {0} for identity, else 65 bytes.
	Encode(p Element) []byte
	// Compress returns the short canonical encoding used as a map key:
	// {0} for identity, 33 bytes (p256) or 32 bytes (ristretto255).
	Compress(p Element) []byte
	// Decode parses any encoding this group produces (wire or
	// compressed) and validates group membership.
	Decode(b []byte) (Element, error)
	// PrepareDH turns a private scalar into the form MulDH expects
	// (folds in 8^-1 on ristretto255 so cofactor clearing cancels).
	PrepareDH(k Scalar) Scalar
	// MulDH computes the Diffie-Hellman product of an untrusted decoded
	// point and a prepared scalar, clearing the cofactor on backends
	// that have one.
	MulDH(p Element, k Scalar) Element
	// MulDHBatch sets dst[i] = MulDH(ps[i], k) for a prepared scalar fixed
	// across the batch, recoding it once per slice. dst and ps may alias.
	// Results are projective; call Normalize before SharedBytes so the
	// whole slice shares one field inversion.
	MulDHBatch(dst, ps []Element, k Scalar)
	// SharedBytes derives the 32-byte KDF input from a DH result: the
	// affine x coordinate for p256 (crypto/ecdh-compatible), the
	// compressed encoding for ristretto255.
	SharedBytes(p Element) []byte

	// mulTables sets dst[i] to slot i's product: CombBatch.Run.
	mulTables(dst []Element, slots []combSlot)
}

var (
	// P256 is the NIST P-256 reference backend (see group_p256.go),
	// byte-compatible with crypto/elliptic encodings and crypto/ecdh
	// shared secrets.
	P256 Group = p256Group{}
	// Ristretto255 is the edwards25519 prime-order-subgroup backend.
	Ristretto255 Group = edGroup{}
)

// Default returns the deployed group. It is a constant of the build, not a
// setting: nothing selects another backend at run time.
func Default() Group { return Ristretto255 }

// kernel names the arithmetic this process runs under the deployed group:
// "avx512ifma", "amd64" or "generic" (see the package comment).
func kernel() string {
	if laneLadder != nil {
		return "avx512ifma"
	}
	return feKernel
}

// RegisterMetrics exports which kernel this process selected as the info
// gauge prochlo_group_kernel_info{kernel="..."} 1. CPU per report differs
// about twofold between hosts with and without AVX-512 IFMA, which an
// operator comparing replicas needs to know. No-op when reg is nil.
func RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("prochlo_group_kernel_info",
		"The ristretto255 arithmetic kernel this process selected at start-up (constant 1; the kernel label carries the value).",
		metrics.Labels{"kernel": kernel()}, func() float64 { return 1 })
}

// Infer guesses the backend from an encoded element. The 1-byte identity
// sentinel is backend-agnostic and resolves to the default group.
func Infer(b []byte) (Group, error) {
	switch {
	case len(b) == 1 && b[0] == 0:
		return Default(), nil
	case len(b) == 33 && (b[0] == 0x02 || b[0] == 0x03):
		return P256, nil
	case len(b) == WireSize && b[0] == tagP256:
		return P256, nil
	case len(b) == 32:
		return Ristretto255, nil
	case len(b) == WireSize && b[0] == tagRistretto:
		return Ristretto255, nil
	}
	return nil, errors.New("group: unrecognized element encoding")
}

// fillScalar validates and fixes the width of a scalar.
func fillScalar(k Scalar) (*[32]byte, error) {
	var out [32]byte
	if len(k) > 32 {
		return nil, errors.New("group: scalar too long")
	}
	copy(out[32-len(k):], k)
	return &out, nil
}

// mustScalar panics on malformed scalars; used on paths where the scalar
// came from this package (RandomScalar, PrepareDH) or a validated key.
func mustScalar(k Scalar) *[32]byte {
	s, err := fillScalar(k)
	if err != nil {
		panic(err)
	}
	return s
}

// ScalarFromBig converts a big.Int (already reduced mod the group order)
// to a Scalar.
func ScalarFromBig(v *big.Int) Scalar {
	out := make(Scalar, 32)
	v.FillBytes(out)
	return out
}

// ScalarToBig converts a Scalar to a big.Int.
func ScalarToBig(k Scalar) *big.Int { return new(big.Int).SetBytes(k) }

// identityEncoding is the shared 1-byte identity sentinel.
var identityEncoding = []byte{0}

// edBaseTable lazily builds the ristretto base-point comb table (width 8:
// 32 positions, one-time cost amortized over the process lifetime).
var edBaseTable = sync.OnceValue(func() *edTable {
	b := edBase
	return &edTable{comb: buildEdComb(&b, 8)}
})
