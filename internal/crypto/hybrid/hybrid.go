// Package hybrid implements the nested (hybrid) public-key encryption used
// between ESA stages: an ephemeral Diffie-Hellman key agreement over a
// prime-order group, HKDF-SHA256 key derivation, and AES-128-GCM
// authenticated encryption. This mirrors Prochlo's wire cryptography (§5.1:
// "NIST P-256 asymmetric key pairs used to derive AES-128 GCM symmetric
// keys") over the group this build deploys, ristretto255, whose fixed-point
// kernels make sealing several times cheaper in pure Go.
//
// A client encrypts its report first to the analyzer's public key (the inner
// layer) and then, together with the crowd ID, to the shuffler's public key
// (the outer layer); see package encoder for the nesting.
//
// Seal is the client encoder's hot path and OpenBatch is every downstream
// stage's. Per-recipient state is precomputed once: the public key's wire
// encoding and a fixed-point comb table for the shared-secret multiplication
// (so a seal is two comb multiplications, no doublings), and the private
// key's DH-prepared scalar. Both directions amortize everything but the
// scalar multiplication and the AEAD over a batch: QueueSeal puts a seal's
// two multiplications in a group.CombBatch that a batch encoder shares
// across every seal and El Gamal encryption of a call, whose products come
// out as the ephemeral key's wire encoding and the shared point's 32-byte
// one, DeriveKeys derives every seal's key, and PendingSeal.Seal appends
// the ephemeral key's encoding, the nonce and the AEAD output straight
// into the caller's envelope buffer; OpenBatch — the one open kernel the
// thresholding shufflers and the analyzer share — works in 256-record
// chunks, handing the chunk's headers as bytes to group.Group.MulEncode,
// which recodes the private scalar once and writes the shared points'
// encodings after one inversion, and deriving the keys per chunk, with
// all plaintexts in one arena. Every batch path derives its keys sixteen
// at a time (keylanes.go): on amd64 CPUs with AVX512F one kernel call runs
// the eleven SHA-256 compressions of sixteen HKDF derivations, any mix of
// recipients; elsewhere, and for a group shorter than four, the scalar
// derivation runs key by key in a pooled scratch. Every AEAD — each envelope has its own
// key — goes through sealGCM and openGCM (gcm.go): on amd64 CPUs with
// AES-NI and PCLMULQDQ one kernel call does the whole AES-128-GCM of an
// envelope, key schedule included, with nothing on the heap, so a batched
// seal or open allocates nothing per envelope; elsewhere crypto/cipher does
// it, at two objects per envelope. OpenInto/SealInto are the solo forms
// (the SGX shuffler's in-enclave open, single-report Submit): they derive
// on the scalar path, and they are the reference the batch paths are
// tested against. All of them are safe for concurrent use.
package hybrid

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/big"
	"math/rand/v2"
	"slices"
	"sync"

	"prochlo/internal/crypto/group"
	"prochlo/internal/metrics"
	"prochlo/internal/parallel"
)

const (
	pubKeyLen = group.WireSize // tagged uncompressed point
	nonceLen  = 12
	tagLen    = 16
	keyLen    = 16 // AES-128
	sharedLen = 32 // the shared point's compressed encoding, the KDF input

	// Overhead is the ciphertext expansion of one Seal: ephemeral public
	// key, GCM nonce, and GCM tag.
	Overhead = pubKeyLen + nonceLen + tagLen
)

// ErrDecrypt is returned for any malformed or unauthentic ciphertext.
var ErrDecrypt = errors.New("hybrid: decryption failed")

// g is the group every key lives in.
var g = group.Default()

// PrivateKey is a recipient's decryption key. It is safe for concurrent use.
type PrivateKey struct {
	x        *big.Int
	prepared group.Scalar // DH-prepared scalar (cofactor inverse folded in)

	pubOnce sync.Once
	pub     *PublicKey
}

// PublicKey is a recipient's encryption key. It is safe for concurrent use.
type PublicKey struct {
	el  group.Element
	enc []byte // cached wire encoding, used in every key derivation

	tableOnce sync.Once
	table     *group.Table
}

// newPublicKey normalizes and caches the encoding once; both the seal and
// open hot paths feed the bytes into HKDF.
func newPublicKey(el group.Element) *PublicKey {
	els := []group.Element{el}
	g.Normalize(els)
	return &PublicKey{el: els[0], enc: g.Encode(nil, els[0])}
}

// GenerateKey creates a fresh key pair. Key generation consumes a
// deterministic number of rng bytes per attempt, so seeded harnesses produce
// reproducible keys.
func GenerateKey(rng io.Reader) (*PrivateKey, error) {
	k, err := g.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	return &PrivateKey{x: group.ScalarToBig(k), prepared: g.PrepareDH(k)}, nil
}

// GenerateKeyGroup is GenerateKey; benchmark/sut.go binds it.
func GenerateKeyGroup(_ group.Group, rng io.Reader) (*PrivateKey, error) { return GenerateKey(rng) }

// initPublic caches the public half; Open needs its bytes for every key
// derivation.
func (p *PrivateKey) initPublic() {
	p.pubOnce.Do(func() {
		p.pub = newPublicKey(g.BaseMul(group.ScalarFromBig(p.x)))
	})
}

// Public returns the public half of the key.
func (p *PrivateKey) Public() *PublicKey {
	p.initPublic()
	return p.pub
}

// publicBytes returns the cached wire encoding of the public key.
func (p *PrivateKey) publicBytes() []byte {
	p.initPublic()
	return p.pub.enc
}

// Bytes returns the wire encoding of the public key, suitable for embedding
// in client software or publishing in an attestation quote. The returned
// slice is fresh; callers may modify it.
func (p *PublicKey) Bytes() []byte {
	out := make([]byte, len(p.enc))
	copy(out, p.enc)
	return out
}

// dhTable returns the comb table of the recipient point used for the seal
// side's shared-secret multiplication, built once per key. The table is built
// over the DH image of the point (cofactor cleared and compensated), so seal
// and open derive the same secret even for a public key encoding that carries
// a small-subgroup component.
func (p *PublicKey) dhTable() *group.Table {
	p.tableOnce.Do(func() {
		dhEl := g.MulDH(p.el, g.PrepareDH(group.Scalar{group.ScalarSize - 1: 1}))
		p.table = g.Precompute(dhEl)
	})
	return p.table
}

// ParsePublicKey decodes a public key produced by (*PublicKey).Bytes. Any
// other bytes, a key on another group among them, are an error.
func ParsePublicKey(b []byte) (*PublicKey, error) {
	el, err := g.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	if g.IsIdentity(el) {
		return nil, errors.New("hybrid: identity public key")
	}
	return newPublicKey(el), nil
}

// Bytes returns the private scalar encoding (32 bytes big-endian), for
// persisting a long-lived daemon key across restarts. Handle with care: this
// is the secret.
func (p *PrivateKey) Bytes() []byte {
	k := group.ScalarFromBig(p.x)
	return k[:]
}

// ParsePrivateKey decodes a private key produced by (*PrivateKey).Bytes.
func ParsePrivateKey(b []byte) (*PrivateKey, error) {
	if len(b) != group.ScalarSize {
		return nil, errors.New("hybrid: invalid private key length")
	}
	x := new(big.Int).SetBytes(b)
	if x.Sign() <= 0 || x.Cmp(g.Order()) >= 0 {
		return nil, errors.New("hybrid: private scalar out of range")
	}
	return &PrivateKey{x: x, prepared: g.PrepareDH(group.Scalar(b))}, nil
}

// hkdfInfo is the domain-separation label of the key derivation.
var hkdfInfo = []byte("prochlo-hybrid-v1")

// hkdf derives length bytes from the shared secret and context using the
// extract-and-expand construction of RFC 5869 with SHA-256. It is the
// allocation-free scratch path's reference implementation; tests assert the
// two agree.
func hkdf(secret, salt, info []byte, length int) []byte {
	ext := hmac.New(sha256.New, salt)
	ext.Write(secret)
	prk := ext.Sum(nil)
	var out []byte
	var prev []byte
	for i := byte(1); len(out) < length; i++ {
		h := hmac.New(sha256.New, prk)
		h.Write(prev)
		h.Write(info)
		h.Write([]byte{i})
		prev = h.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length]
}

// scratch is the working set of one scalar key derivation: the HMAC pad
// blocks, one SHA-256 state, and the shared-secret/salt/PRK/OKM buffers that
// HKDF-SHA256 needs for our fixed 16-byte output. It lives in a pooled
// keyDeriver (keylanes.go), off the heap's per-call path. The shared secret
// is encoded into it rather than onto the stack: the bytes go through the
// hash.Hash interface, which would move a stack buffer to the heap.
type scratch struct {
	hash   hash.Hash // one SHA-256 state, Reset between uses
	ipad   [64]byte
	opad   [64]byte
	sum    [sha256.Size]byte // inner-digest staging
	prk    [sha256.Size]byte
	okm    [sha256.Size]byte
	salt   [2 * pubKeyLen]byte
	shared [sharedLen]byte
}

// one is the single-byte HKDF-expand block counter (keyLen <= 32 needs only
// block 1).
var one = [1]byte{1}

// hmacKey loads an HMAC key into the pad blocks.
func (s *scratch) hmacKey(key []byte) {
	var kb [64]byte
	if len(key) > len(kb) {
		d := sha256.Sum256(key)
		copy(kb[:], d[:])
	} else {
		copy(kb[:], key)
	}
	for i := range kb {
		s.ipad[i] = kb[i] ^ 0x36
		s.opad[i] = kb[i] ^ 0x5c
	}
}

// hmacSum computes HMAC(key loaded by hmacKey, data...) into out.
func (s *scratch) hmacSum(out *[sha256.Size]byte, data ...[]byte) {
	h := s.hash
	h.Reset()
	h.Write(s.ipad[:])
	for _, d := range data {
		h.Write(d)
	}
	h.Sum(s.sum[:0])
	h.Reset()
	h.Write(s.opad[:])
	h.Write(s.sum[:])
	h.Sum(out[:0])
}

// sealKey derives the AES key for a (sender ephemeral, recipient) pair from
// the DH result shared: HKDF-SHA256(secret=SharedBytes(shared),
// salt=ephPub||rcptPub, info=hkdfInfo). It is the scalar derivation — the
// solo paths' and the reference the lanes are tested against. The returned
// slice aliases the scratch and is consumed before the scratch is reused
// (every caller copies the key out).
func (s *scratch) sealKey(shared group.Element, ephPub, rcptPub []byte) []byte {
	return s.kdf(g.SharedBytes(s.shared[:0], shared), ephPub, rcptPub)
}

// kdf is sealKey on the secret's encoding.
func (s *scratch) kdf(secret, ephPub, rcptPub []byte) []byte {
	n := copy(s.salt[:], ephPub)
	n += copy(s.salt[n:], rcptPub)
	s.hmacKey(s.salt[:n])
	s.hmacSum(&s.prk, secret)
	s.hmacKey(s.prk[:])
	s.hmacSum(&s.okm, hkdfInfo, one[:])
	return s.okm[:keyLen]
}

// PendingSeal is a seal between its draws and its AEAD: a batch encoder
// queues every seal of a call (QueueSeal) before any is sealed, so that
// their multiplications — and those of the El Gamal encryptions beside them
// — share one group.CombBatch and one field inversion, and then derives
// every seal's key (DeriveKeys) before any AEAD, so that the derivations
// run in lanes. SealInto is the same steps on a batch of one.
type PendingSeal struct {
	pub   *PublicKey
	slot  int
	nonce [nonceLen]byte
	eph   [pubKeyLen]byte // the ephemeral public key's encoding, once derived
	key   [keyLen]byte    // the AES key, once derived
}

// QueueSeal makes s a seal to p: it draws the seal's randomness from rng —
// the ephemeral scalar k, then the nonce, the order every seal path draws
// them in — and sets slots i and i+1 of b to k's two products, the
// ephemeral public key k*G and the shared point k*K. RandomScalar reads a
// fixed number of bytes per attempt, so a record's stream does not depend
// on how its batch is scheduled. The nonce is read straight into s, which
// batch callers keep in a slice, so it costs no allocation.
func (p *PublicKey) QueueSeal(s *PendingSeal, rng io.Reader, b *group.CombBatch, i int) error {
	k, err := g.RandomScalar(rng)
	if err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	s.pub, s.slot = p, i
	if _, err := io.ReadFull(rng, s.nonce[:]); err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	b.Set(i, g.BaseTable(), k, group.Element{}, group.WireSize)
	b.Set(i+1, p.dhTable(), k, group.Element{}, group.CompressedSize)
	return nil
}

// encodeEph copies the seal's ephemeral public key, slot s.slot of b, once
// b has run.
func (s *PendingSeal) encodeEph(b *group.CombBatch) {
	copy(s.eph[:], b.Bytes(s.slot)) // k ≠ 0, so never the identity's 1 byte
}

// queueKey queues the seal's key derivation in d.
func (s *PendingSeal) queueKey(d *keyDeriver, b *group.CombBatch) {
	s.encodeEph(b)
	d.add(&s.key, b.Bytes(s.slot+1), s.eph[:], s.pub.enc)
}

// Seal finishes a seal whose key is derived (DeriveKeys): it appends the
// envelope to dst as SealInto does, the ephemeral key's encoding, the nonce
// and the AEAD output straight into dst.
func (s *PendingSeal) Seal(dst, plaintext, aad []byte) []byte {
	dst = slices.Grow(dst, Overhead+len(plaintext))
	dst = append(dst, s.eph[:]...)
	dst = append(dst, s.nonce[:]...)
	return sealGCM(dst, &s.key, &s.nonce, plaintext, aad)
}

// Seal encrypts plaintext to the recipient pub, binding aad (which is
// authenticated but not encrypted). The output layout is
// ephemeralPubKey || nonce || ciphertext+tag.
func Seal(rng io.Reader, pub *PublicKey, plaintext, aad []byte) ([]byte, error) {
	return SealInto(rng, pub, nil, plaintext, aad)
}

// SealInto encrypts plaintext to the recipient pub exactly like Seal, but
// appends the sealed envelope to dst (which may be nil) and returns the
// extended slice. The header and nonce are written directly into dst, so a
// caller that pre-sizes dst — len(plaintext)+Overhead per layer — pays no
// per-seal buffer allocations; the client encoder's EncodeBatch composes a
// two-layer envelope and a whole batch in one backing array this way.
// SealInto draws from rng in the same order as every other seal path
// (ephemeral scalar, then nonce), so given the same rng stream all of them
// produce identical bytes. It is safe for concurrent use.
func SealInto(rng io.Reader, pub *PublicKey, dst, plaintext, aad []byte) ([]byte, error) {
	b := group.NewCombBatch(2)
	var s PendingSeal
	if err := pub.QueueSeal(&s, rng, b, 0); err != nil {
		return nil, err
	}
	b.Run(0, 2)
	s.encodeEph(b)
	d := derivers.Get().(*keyDeriver)
	copy(s.key[:], d.kdf(b.Bytes(1), s.eph[:], pub.enc))
	derivers.Put(d)
	return s.Seal(dst, plaintext, aad), nil
}

// SeedLen is the per-record seed width of the batch randomness convention
// shared by every batch seal path (SealBatch here, the encoder's
// EncodeBatch): one seed per record is drawn serially from the caller's
// rng, and each record's randomness — ephemeral keys, nonces, El Gamal
// scalars — is expanded from its seed with ChaCha8, so record i's
// ciphertext is a pure function of its seed, independent of worker
// scheduling.
const SeedLen = 32

// Seeds holds one SealBatch-convention seed per record of a batch.
type Seeds []byte

// DrawSeeds reads one seed per record serially from rng.
func DrawSeeds(rng io.Reader, n int) (Seeds, error) {
	s := make([]byte, n*SeedLen)
	if _, err := io.ReadFull(rng, s); err != nil {
		return nil, fmt.Errorf("hybrid: drawing batch seeds: %w", err)
	}
	return s, nil
}

// rngPool recycles the per-record randomness expanders; a ChaCha8 is
// re-seeded on every checkout.
var rngPool = sync.Pool{New: func() any {
	var zero [SeedLen]byte
	return rand.NewChaCha8(zero)
}}

// RNG returns a pooled ChaCha8 keyed to record i's seed; return it with
// PutRNG once the record is sealed.
func (s Seeds) RNG(i int) *rand.ChaCha8 {
	r := rngPool.Get().(*rand.ChaCha8)
	r.Seed([SeedLen]byte(s[i*SeedLen : (i+1)*SeedLen]))
	return r
}

// PutRNG recycles a Seeds.RNG checkout.
func PutRNG(r *rand.ChaCha8) { rngPool.Put(r) }

// SealBatch encrypts a batch of plaintexts to pub on a pool of workers
// (0 selects GOMAXPROCS), mirroring OpenBatch. Every seal is queued in one
// group.CombBatch, run and encoded a worker's range of records at a time,
// the keys are derived in lanes (DeriveKeys), all ciphertexts share one
// backing buffer, and randomness follows the Seeds convention, so for a
// deterministic rng the output is byte-identical at every worker count.
func SealBatch(rng io.Reader, pub *PublicKey, plaintexts [][]byte, aad []byte, workers int) ([][]byte, error) {
	n := len(plaintexts)
	if n == 0 {
		return nil, nil
	}
	seeds, err := DrawSeeds(rng, n)
	if err != nil {
		return nil, err
	}
	b := group.NewCombBatch(2 * n)
	pending := make([]PendingSeal, n)
	if i, err := b.RunRecords(workers, 2, func(i int) error {
		r := seeds.RNG(i)
		defer PutRNG(r)
		return pub.QueueSeal(&pending[i], r, b, 2*i)
	}); err != nil {
		return nil, fmt.Errorf("hybrid: record %d: %w", i, err)
	}
	DeriveKeys(b, workers, pending)
	arena := parallel.NewArena(n, func(i int) int { return len(plaintexts[i]) + Overhead })
	out := make([][]byte, n)
	parallel.For(parallel.Workers(workers), n, func(i int) {
		out[i] = pending[i].Seal(arena.Slot(i), plaintexts[i], aad)
	})
	return out, nil
}

// Open decrypts a ciphertext produced by Seal for this private key.
func (p *PrivateKey) Open(sealed, aad []byte) ([]byte, error) {
	return p.OpenInto(nil, sealed, aad)
}

// OpenInto decrypts a ciphertext produced by Seal for this private key,
// appending the plaintext to dst (which may be nil) and returning the
// extended slice. It is the solo path — one scalar recode and one field
// inversion per call — and the reference OpenBatch is pinned to. The ephemeral
// point goes through the group's DH path, which multiplies it by the
// cofactor (compensated in the prepared private scalar), so a small-subgroup
// component in a hostile header can never probe the private key. OpenInto is
// safe for concurrent use.
func (p *PrivateKey) OpenInto(dst, sealed, aad []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, ErrDecrypt
	}
	ephEl, err := g.Decode(sealed[:pubKeyLen])
	if err != nil || g.IsIdentity(ephEl) {
		return nil, ErrDecrypt
	}
	d := derivers.Get().(*keyDeriver)
	key := [keyLen]byte(d.sealKey(g.MulDH(ephEl, p.prepared), sealed[:pubKeyLen], p.publicBytes()))
	derivers.Put(d)
	return openGCM(dst, &key, nonceOf(sealed), sealed[pubKeyLen+nonceLen:], aad)
}

// nonceOf returns the nonce of an envelope at least Overhead bytes long.
func nonceOf(sealed []byte) *[nonceLen]byte {
	return (*[nonceLen]byte)(sealed[pubKeyLen : pubKeyLen+nonceLen])
}

// openChunk is the number of records OpenBatch hands the group's batch
// kernels per claim: the same trade as the shuffler's El Gamal chunks —
// large enough that the per-chunk scalar recode and the shared inversion
// vanish, small enough that the worker pool's tail stays balanced.
const openChunk = 256

// OpenBatch decrypts a batch of ciphertexts on a pool of workers (0 selects
// GOMAXPROCS), returning per-record plaintexts and errors positionally:
// errs[i] != nil iff record i failed, in which case pts[i] is nil; record i
// fails exactly when OpenInto would fail on it, with the same error. It is
// the chain's one open kernel — both thresholding shufflers and the analyzer
// call it — and it leaves nothing but the variable-base multiplication and
// the AEAD on the per-record path: per chunk of openChunk records the
// ephemeral headers go from their bytes to the shared points' encodings in
// one group.Group.MulEncode call — decoded, cofactor-cleared and
// multiplied with the private scalar recoded once, normalized with one
// field inversion — and the plaintexts of the whole batch land in one
// arena sized from the ciphertext lengths.
func (p *PrivateKey) OpenBatch(sealed [][]byte, aad []byte, workers int) (pts [][]byte, errs []error) {
	n := len(sealed)
	pts = make([][]byte, n)
	errs = make([]error, n)
	arena := parallel.NewArena(n, func(i int) int { return len(sealed[i]) - Overhead })
	parallel.For(parallel.Workers(workers), (n+openChunk-1)/openChunk, func(c int) {
		lo := c * openChunk
		p.openChunk(pts, errs, sealed, aad, arena, lo, min(lo+openChunk, n))
	})
	return pts, errs
}

// openScratch is one chunk's working set in openChunk, pooled: the
// well-formed records' headers and batch positions, their shared secrets'
// encodings and lengths (group.MulEncode's output) and their keys.
type openScratch struct {
	idx     [openChunk]int
	hdrs    [openChunk][]byte
	secrets [openChunk * sharedLen]byte
	lens    [openChunk]uint8
	keys    [openChunk][keyLen]byte
}

var openScratches = sync.Pool{New: func() any { return new(openScratch) }}

// openChunk opens records [lo, hi) of a batch into their arena slots.
func (p *PrivateKey) openChunk(pts [][]byte, errs []error, sealed [][]byte, aad []byte, arena *parallel.Arena, lo, hi int) {
	s := openScratches.Get().(*openScratch)
	// The headers go to the group as wire bytes and their shared secrets
	// come back as the KDF's input bytes: a hostile header (a length of 0)
	// costs its own record and nothing else.
	n := 0
	for i := lo; i < hi; i++ {
		errs[i] = ErrDecrypt
		if len(sealed[i]) >= Overhead {
			s.idx[n], s.hdrs[n] = i, sealed[i][:pubKeyLen]
			n++
		}
	}
	op := group.MulOp{K: p.prepared, DH: true, Form: sharedLen}
	g.MulEncode(&op, s.secrets[:], s.lens[:n], s.hdrs[:n], nil)
	rcpt := p.publicBytes()
	d := derivers.Get().(*keyDeriver)
	for j := range s.idx[:n] {
		if s.lens[j] != 0 {
			d.add(&s.keys[j], s.secrets[sharedLen*j:sharedLen*j+int(s.lens[j])], s.hdrs[j], rcpt)
		}
	}
	d.flush()
	derivers.Put(d)
	for j, i := range s.idx[:n] {
		if s.lens[j] == 0 {
			continue
		}
		ct := sealed[i]
		if pt, err := openGCM(arena.Slot(i), &s.keys[j], nonceOf(ct), ct[pubKeyLen+nonceLen:], aad); err == nil {
			pts[i], errs[i] = pt, nil
		}
	}
	clear(s.hdrs[:n])
	openScratches.Put(s)
}

// Kernels names the crypto kernels this process selected at start-up: the
// group's lane ladder and comb ("ifma", or "generic" for the scalar ones),
// the envelope key derivation ("avx512f" for the SHA-256 lanes, or
// "scalar") and the AEAD ("aesni" for gcm_amd64.s, or "stdlib"). All of
// them produce the same bytes; they differ in cost.
func Kernels() (ladder, kdf, aead string) {
	ladder, kdf, aead = "generic", "scalar", "stdlib"
	if group.Kernel() == "avx512ifma" {
		ladder = "ifma"
	}
	if laneHKDF != nil {
		kdf = "avx512f"
	}
	if aesni {
		aead = "aesni"
	}
	return ladder, kdf, aead
}

// RegisterMetrics exports Kernels as the info gauge
// prochlo_crypto_kernels_info{ladder, kdf, aead} 1. No-op when reg is nil.
func RegisterMetrics(reg *metrics.Registry) {
	ladder, kdf, aead := Kernels()
	reg.GaugeFunc("prochlo_crypto_kernels_info",
		"The crypto kernels this process selected at start-up (constant 1; the ladder, kdf and aead labels carry the values).",
		metrics.Labels{"ladder": ladder, "kdf": kdf, "aead": aead}, func() float64 { return 1 })
}
