// Package group is the prime-order group under the crowd-ID El Gamal layer
// and the hybrid envelope layer: ristretto255 (edwards25519's prime-order
// subgroup), hand-written here from the field up. It is the one group this
// build deploys — every pipeline, daemon and client runs it — so Group is a
// concrete zero-size type and Default returns it. The paper's curve was NIST
// P-256; this build does not carry it.
//
// Three kernels compute the ristretto255 arithmetic, and this is the whole
// dispatch rule. The field multiply and square are chosen at build time: on
// amd64 they are MULQ assembly (fe25519_amd64.s, kernel "amd64"); on every
// other GOARCH, and on amd64 under -tags purego, the portable Go bodies in
// fe25519.go (kernel "generic"). On top of the amd64 build, the batch
// multiplications are chosen once at package init: when CPUID and XCR0
// report AVX-512 IFMA (and AVX512DQ, for one instruction of the comb's
// gather), MulEncode and MulBatch run the lane ladder and a CombBatch the
// lane comb of ed25519x8_amd64.go, eight multiplications per instruction,
// and the batch paths decode and normalize in lanes too (batch_amd64.go;
// kernel "avx512ifma"); otherwise the scalar wNAF ladder, the scalar comb
// and the scalar normalization. The solo Mul, MulDH, BaseMul and Table.Mul
// always run the scalar kernels, as does a CombBatch's last group when it
// holds one multiplication (an eight-lane pass costs about one and a half
// solo combs however few lanes are live). No flag, environment variable or option
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
// 2^52 input bound; see Table), so it costs no memory. A device that
// encodes one report per call never reaches it and needs nothing from it.
//
// The API is batch-oriented, and its batch paths start and end in bytes
// (batch.go): MulEncode takes a chunk of encodings, multiplies every point
// by a scalar recoded once — clearing cofactors, or subtracting the
// products from minuends, where asked — and writes the canonical
// encodings of the results, and a CombBatch runs a call's fixed-base
// multiplications and writes theirs; in between, on the lane kernels, the
// points stay in eight-lane groups from the decode to the encode. The
// extended-Edwards kernels never invert per operation: a chunk's products
// share one field inversion (Montgomery's trick, across its lane groups and
// then their eight lane totals), as a slice does in Normalize. Precompute
// (and BaseTable, for the generator) builds signed-digit comb tables for
// points that are fixed across a batch — the recipient key in the encoder,
// the analyzer key — turning each fixed-point multiplication into ~43
// table additions with no doublings, and a CombBatch into one such sweep
// per eight multiplications, whichever tables they read. MulBatch and
// Normalize keep the element form, for callers that hold elements.
//
// Encode appends a 1-byte identity sentinel {0} or a 65-byte tagged
// uncompressed point (0x05 || x || y), chosen so parsing never pays a square
// root on the hot path. Compress appends the short canonical form (32
// bytes, sign-bit-packed Edwards y) used for pseudonym keys and as the key
// derivation's input; the batch paths write the same two forms. Both append
// to the caller's buffer — an envelope arena, a stack array — so encoding
// allocates nothing of its own. Decode accepts both and nothing else.
//
// All ristretto255 kernels are variable-time. This repository reproduces a
// research system; the scalars being multiplied (blinding exponents,
// ephemeral secrets) are per-epoch or per-report values processed in bulk on
// trusted infrastructure, and the big.Int arithmetic this package replaces
// was variable-time too.
package group

import (
	"math/big"
	"sync"

	"prochlo/internal/metrics"
	"prochlo/internal/parallel"
)

// Scalar is a scalar: 32 bytes, big-endian, reduced into the group's
// scalar-field range.
type Scalar [ScalarSize]byte

// ScalarSize is the byte length of a scalar.
const ScalarSize = 32

// WireSize is the byte length of a non-identity wire (uncompressed) point
// encoding, including the 1-byte tag.
const WireSize = 65

// tagRistretto is the first byte of a wire encoding.
const tagRistretto = 0x05

// Element is a group element. The zero value is the identity.
type Element struct {
	ed *edPoint
}

// CombBatch is a batch of fixed-base multiplications over any mix of
// tables (BaseTable, Precompute): slot i holds k*P + Q for its table's point
// P, its scalar k and an addend Q, the identity when unset. A batch encoder
// puts every fixed-base multiplication of one call in one CombBatch — each
// seal's k*G and k*K, each El Gamal encryption's r*G and r*Y + M — so that
// they share the lane comb's passes whichever tables they read.
//
// Set fills slots; Run computes the products of a range of set slots and
// encodes each in its slot's form, and distinct ranges may run
// concurrently; RunRecords does both for a batch of records on a pool of
// workers; Bytes, after the Run, reads a slot's encoding. A Run normalizes
// its products a chunk at a time with one field inversion each, in the
// scratch of the batch paths (batch.go), and takes its multiplications in
// pass order through pooled scratch (combScratch), so a Run allocates
// nothing; the batch owns one record per slot and the encodings.
type CombBatch struct {
	ms   []edCombMul // slot i's multiplication
	enc  []byte      // slot i's encoding at WireSize*i
	lens []uint8     // and its length
}

// NewCombBatch returns a batch of n unset slots.
func NewCombBatch(n int) *CombBatch {
	return &CombBatch{ms: make([]edCombMul, n), enc: make([]byte, WireSize*n), lens: make([]uint8, n)}
}

// Set puts k*P + q in slot i, for the fixed point P of t, encoded in form
// (WireSize or CompressedSize); q may be the zero Element.
func (b *CombBatch) Set(i int, t *Table, k Scalar, q Element, form int) {
	if form != WireSize && form != CompressedSize {
		panic("group: CombBatch form is neither WireSize nor CompressedSize")
	}
	b.ms[i] = edCombMul{t: t, k: k, slot: int32(i), form: uint8(form)}
	if q != (Element{}) {
		b.ms[i].q = q.edwards()
	}
}

// Run computes and encodes the products of slots [lo, hi): in pass order
// (combOrder), a chunk at a time, each chunk's multiplications copied into
// the scratch the kernels read.
func (b *CombBatch) Run(lo, hi int) {
	s := combScratches.Get().(*combScratch)
	ms := b.ms[lo:hi]
	if cap(s.order) < len(ms) {
		s.order = make([]int32, len(ms))
	}
	order := s.order[:len(ms)]
	combOrder(ms, order)
	for c := 0; c < len(order); c += batchChunk {
		chunk := s.chunk[:min(batchChunk, len(order)-c)]
		for j := range chunk {
			chunk[j] = ms[order[c+j]]
		}
		out := sink{dst: b.enc, lens: b.lens, ms: chunk}
		if laneComb != nil {
			laneComb(chunk, out)
		} else {
			combEncodeScalar(chunk, out)
		}
	}
	combScratches.Put(s)
}

// RunRecords fills and runs the batch as records of per slots each, on a
// pool of workers (0 selects GOMAXPROCS): queue(i) sets record i's slots,
// per*i to per*i+per-1, and each worker's range of records runs as one
// batch once every record in it is queued. It returns the lowest record
// whose queue failed, with its error (a failed record's range is not run),
// or -1 and nil.
func (b *CombBatch) RunRecords(workers, per int, queue func(i int) error) (int, error) {
	errs := make([]error, len(b.ms)/per)
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

// Bytes returns the encoding of slot i's product once it has run: what
// Encode or Compress, by the slot's form, appends. It aliases the batch.
func (b *CombBatch) Bytes(i int) []byte { return b.enc[WireSize*i : WireSize*i+int(b.lens[i])] }

// Group is ristretto255 with batch-oriented kernels (group_ed.go). It holds
// no state: every Group value is the same group.
type Group struct{}

// Default returns the deployed group. It is a constant of the build, not a
// setting: nothing selects another group at run time.
func Default() Group { return Group{} }

// Kernel names the arithmetic this process runs under the deployed group:
// "avx512ifma", "amd64" or "generic" (see the package comment).
func Kernel() string {
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
		metrics.Labels{"kernel": Kernel()}, func() float64 { return 1 })
}

// ScalarFromBig converts a big.Int (already reduced mod the group order)
// to a Scalar.
func ScalarFromBig(v *big.Int) Scalar {
	var out Scalar
	v.FillBytes(out[:])
	return out
}

// ScalarToBig converts a Scalar to a big.Int.
func ScalarToBig(k Scalar) *big.Int { return new(big.Int).SetBytes(k[:]) }

// edBaseTable lazily builds the base-point comb table (width 8: 32
// positions, one-time cost amortized over the process lifetime).
var edBaseTable = sync.OnceValue(func() *Table {
	b := edBase
	return buildEdComb(&b, 8)
})
