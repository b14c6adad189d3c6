// Package hybrid implements the nested (hybrid) public-key encryption used
// between ESA stages: an ephemeral Diffie-Hellman key agreement over a
// pluggable prime-order group, HKDF-SHA256 key derivation, and AES-128-GCM
// authenticated encryption. This mirrors Prochlo's wire cryptography (§5.1:
// "NIST P-256 asymmetric key pairs used to derive AES-128 GCM symmetric
// keys") over the deployed group, ristretto255, whose fixed-point kernels
// make sealing several times cheaper in pure Go; the same code runs over the
// P-256 reference backend in tests.
//
// A client encrypts its report first to the analyzer's public key (the inner
// layer) and then, together with the crowd ID, to the shuffler's public key
// (the outer layer); see package encoder for the nesting.
//
// Seal is the client encoder's hot path and OpenBatch is every downstream
// stage's. Per-recipient state is precomputed once: the public key's wire
// encoding and a fixed-point comb table for the shared-secret multiplication
// (so a seal is two comb multiplications, no doublings), and the private
// key's DH-prepared scalar. The key-derivation state (HKDF/HMAC blocks, salt
// and key buffers) lives in a sync.Pool-recycled scratch rather than being
// reallocated per call. Both directions amortize everything but the scalar
// multiplication and the AEAD over a batch: QueueSeal/PendingSeal.Seal put
// a seal's two multiplications in a group.CombBatch that a batch encoder
// shares across every seal and El Gamal encryption of a call, normalized
// with one field inversion for all of them, and OpenBatch — the one open
// kernel the thresholding shufflers and the analyzer share — works in
// 256-record chunks, recoding the private scalar once and normalizing the
// shared points with one inversion per chunk, with all plaintexts in one
// arena.
// OpenInto/SealInto are the solo forms (the SGX shuffler's in-enclave open,
// single-report Submit) and the reference the batch paths are tested
// against. All of them are safe for concurrent use.
package hybrid

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/big"
	"math/rand/v2"
	"sync"

	"prochlo/internal/crypto/group"
	"prochlo/internal/parallel"
)

const (
	pubKeyLen = group.WireSize // tagged uncompressed point
	nonceLen  = 12
	tagLen    = 16
	keyLen    = 16 // AES-128

	// Overhead is the ciphertext expansion of one Seal: ephemeral public
	// key, GCM nonce, and GCM tag.
	Overhead = pubKeyLen + nonceLen + tagLen
)

// ErrDecrypt is returned for any malformed or unauthentic ciphertext.
var ErrDecrypt = errors.New("hybrid: decryption failed")

// PrivateKey is a recipient's decryption key. It is safe for concurrent use.
type PrivateKey struct {
	g        group.Group
	x        *big.Int
	prepared group.Scalar // DH-prepared scalar (cofactor inverse folded in)

	pubOnce sync.Once
	pub     *PublicKey
}

// PublicKey is a recipient's encryption key. It is safe for concurrent use.
type PublicKey struct {
	g   group.Group
	el  group.Element
	enc []byte // cached wire encoding, used in every key derivation

	tableOnce sync.Once
	table     group.Table
}

// newPublicKey normalizes and caches the encoding once; both the seal and
// open hot paths feed the bytes into HKDF.
func newPublicKey(g group.Group, el group.Element) *PublicKey {
	els := []group.Element{el}
	g.Normalize(els)
	return &PublicKey{g: g, el: els[0], enc: g.Encode(els[0])}
}

// GenerateKey creates a fresh key pair on the default group.
func GenerateKey(rng io.Reader) (*PrivateKey, error) {
	return GenerateKeyGroup(group.Default(), rng)
}

// GenerateKeyGroup creates a fresh key pair on an explicit group. Key
// generation consumes a deterministic number of rng bytes per attempt, so
// seeded harnesses produce reproducible keys.
func GenerateKeyGroup(g group.Group, rng io.Reader) (*PrivateKey, error) {
	k, err := g.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	return &PrivateKey{g: g, x: group.ScalarToBig(k), prepared: g.PrepareDH(k)}, nil
}

// initPublic caches the public half; Open needs its bytes for every key
// derivation.
func (p *PrivateKey) initPublic() {
	p.pubOnce.Do(func() {
		p.pub = newPublicKey(p.g, p.g.BaseMul(group.ScalarFromBig(p.x)))
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

// Group returns the group the key lives on.
func (p *PrivateKey) Group() group.Group { return p.g }

// Group returns the group the key lives on.
func (p *PublicKey) Group() group.Group { return p.g }

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
func (p *PublicKey) dhTable() group.Table {
	p.tableOnce.Do(func() {
		one := group.ScalarFromBig(big.NewInt(1))
		dhEl := p.g.MulDH(p.el, p.g.PrepareDH(one))
		p.table = p.g.Precompute(dhEl)
	})
	return p.table
}

// ParsePublicKey decodes a public key produced by (*PublicKey).Bytes,
// inferring the group backend from the tag byte. A caller that parses bytes
// a peer sent must check Group() against group.Default() before trusting
// the key: a key on the reference backend parses too.
func ParsePublicKey(b []byte) (*PublicKey, error) {
	g, err := group.Infer(b)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	el, err := g.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	if g.IsIdentity(el) {
		return nil, errors.New("hybrid: identity public key")
	}
	return newPublicKey(g, el), nil
}

// Bytes returns the private scalar encoding (32 bytes big-endian), for
// persisting a long-lived daemon key across restarts. Handle with care: this
// is the secret. The group is not self-describing; reload with the matching
// ParsePrivateKeyGroup.
func (p *PrivateKey) Bytes() []byte { return group.ScalarFromBig(p.x) }

// ParsePrivateKey decodes a private key produced by (*PrivateKey).Bytes on
// the default group.
func ParsePrivateKey(b []byte) (*PrivateKey, error) {
	return ParsePrivateKeyGroup(group.Default(), b)
}

// ParsePrivateKeyGroup is ParsePrivateKey on an explicit group.
func ParsePrivateKeyGroup(g group.Group, b []byte) (*PrivateKey, error) {
	if len(b) != group.ScalarSize {
		return nil, errors.New("hybrid: invalid private key length")
	}
	x := new(big.Int).SetBytes(b)
	if x.Sign() <= 0 || x.Cmp(g.Order()) >= 0 {
		return nil, errors.New("hybrid: private scalar out of range")
	}
	return &PrivateKey{g: g, x: x, prepared: g.PrepareDH(group.ScalarFromBig(x))}, nil
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

// scratch is the reusable per-call state of one key derivation: the HMAC pad
// blocks, one SHA-256 state, and the salt/PRK/OKM buffers. A scratch is the
// working set HKDF-SHA256 needs for our fixed 16-byte output, kept off the
// heap's per-call path via scratchPool.
type scratch struct {
	hash hash.Hash // one SHA-256 state, Reset between uses
	ipad [64]byte
	opad [64]byte
	sum  [sha256.Size]byte // inner-digest staging
	prk  [sha256.Size]byte
	okm  [sha256.Size]byte
	salt [2 * pubKeyLen]byte
}

var scratchPool = sync.Pool{New: func() any { return &scratch{hash: sha256.New()} }}

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

// sealKey derives the AES key for a (sender ephemeral, recipient) pair:
// HKDF-SHA256(secret=shared, salt=ephPub||rcptPub, info=hkdfInfo). The
// returned slice aliases the scratch and is consumed before the scratch is
// reused (AES's key schedule copies it).
func (s *scratch) sealKey(shared, ephPub, rcptPub []byte) []byte {
	n := copy(s.salt[:], ephPub)
	n += copy(s.salt[n:], rcptPub)
	s.hmacKey(s.salt[:n])
	s.hmacSum(&s.prk, shared)
	s.hmacKey(s.prk[:])
	s.hmacSum(&s.okm, hkdfInfo, one[:])
	return s.okm[:keyLen]
}

// newAEAD builds the AES-128-GCM instance for a derived key.
func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// PendingSeal is a seal between its draws and its AEAD: a batch encoder
// queues every seal of a call (QueueSeal) before any is sealed, so that
// their multiplications — and those of the El Gamal encryptions beside them
// — share one group.CombBatch and one field inversion. SealInto is the same
// steps on a batch of one.
type PendingSeal struct {
	pub   *PublicKey
	slot  int
	nonce [nonceLen]byte
}

// QueueSeal makes s a seal to p: it draws the seal's randomness from rng —
// the ephemeral scalar k, then the nonce, the order every seal path draws
// them in — and sets slots i and i+1 of b to k's two products, the
// ephemeral public key k*G and the shared point k*K. RandomScalar reads a
// fixed number of bytes per attempt, so a record's stream does not depend
// on how its batch is scheduled. The nonce is read straight into s, which
// batch callers keep in a slice, so it costs no allocation.
func (p *PublicKey) QueueSeal(s *PendingSeal, rng io.Reader, b *group.CombBatch, i int) error {
	k, err := p.g.RandomScalar(rng)
	if err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	s.pub, s.slot = p, i
	if _, err := io.ReadFull(rng, s.nonce[:]); err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	b.Set(i, p.g.BaseTable(), k, group.Element{})
	b.Set(i+1, p.dhTable(), k, group.Element{})
	return nil
}

// Seal finishes a queued seal once b has run over its slots and been
// normalized: it derives the AES key from the two products and appends the
// envelope to dst as SealInto does.
func (s *PendingSeal) Seal(b *group.CombBatch, dst, plaintext, aad []byte) ([]byte, error) {
	g := s.pub.g
	need := pubKeyLen + nonceLen + len(plaintext) + tagLen
	base := len(dst)
	if cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	hdr := dst[base : base+pubKeyLen+nonceLen]
	copy(hdr, g.Encode(b.Out(s.slot)))
	nonce := hdr[pubKeyLen:]
	copy(nonce, s.nonce[:])
	sc := scratchPool.Get().(*scratch)
	gcm, err := newAEAD(sc.sealKey(g.SharedBytes(b.Out(s.slot+1)), hdr[:pubKeyLen], s.pub.enc))
	scratchPool.Put(sc)
	if err != nil {
		return nil, err
	}
	return gcm.Seal(dst[:base+pubKeyLen+nonceLen], nonce, plaintext, aad), nil
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
	b := group.NewCombBatch(pub.g, 2)
	var s PendingSeal
	if err := pub.QueueSeal(&s, rng, b, 0); err != nil {
		return nil, err
	}
	b.Run(0, 2)
	b.Normalize()
	return s.Seal(b, dst, plaintext, aad)
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
// group.CombBatch, run a worker's range of records at a time and normalized
// with one field inversion, all ciphertexts share one backing buffer, and
// randomness follows the Seeds convention, so for a deterministic rng the
// output is byte-identical at every worker count.
func SealBatch(rng io.Reader, pub *PublicKey, plaintexts [][]byte, aad []byte, workers int) ([][]byte, error) {
	n := len(plaintexts)
	if n == 0 {
		return nil, nil
	}
	seeds, err := DrawSeeds(rng, n)
	if err != nil {
		return nil, err
	}
	b := group.NewCombBatch(pub.g, 2*n)
	pending := make([]PendingSeal, n)
	if i, err := b.RunRecords(workers, 2, func(i int) error {
		r := seeds.RNG(i)
		defer PutRNG(r)
		return pub.QueueSeal(&pending[i], r, b, 2*i)
	}); err != nil {
		return nil, fmt.Errorf("hybrid: record %d: %w", i, err)
	}
	b.Normalize()
	arena := parallel.NewArena(n, func(i int) int { return len(plaintexts[i]) + Overhead })
	out := make([][]byte, n)
	errs := make([]error, n)
	parallel.For(parallel.Workers(workers), n, func(i int) {
		out[i], errs[i] = pending[i].Seal(b, arena.Slot(i), plaintexts[i], aad)
	})
	if i, err := parallel.FirstError(errs); err != nil {
		return nil, fmt.Errorf("hybrid: record %d: %w", i, err)
	}
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
	ephEl, err := p.g.Decode(sealed[:pubKeyLen])
	if err != nil || p.g.IsIdentity(ephEl) {
		return nil, ErrDecrypt
	}
	shared := p.g.SharedBytes(p.g.MulDH(ephEl, p.prepared))
	sc := scratchPool.Get().(*scratch)
	gcm, err := newAEAD(sc.sealKey(shared, sealed[:pubKeyLen], p.publicBytes()))
	scratchPool.Put(sc)
	if err != nil {
		return nil, err
	}
	nonce := sealed[pubKeyLen : pubKeyLen+nonceLen]
	pt, err := gcm.Open(dst, nonce, sealed[pubKeyLen+nonceLen:], aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
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
// ephemeral headers are decoded, cofactor-cleared and multiplied with the
// private scalar recoded once, the shared points are normalized with one
// field inversion, and the plaintexts of the whole batch land in one arena
// sized from the ciphertext lengths.
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

// openChunk opens records [lo, hi) of a batch into their arena slots.
func (p *PrivateKey) openChunk(pts [][]byte, errs []error, sealed [][]byte, aad []byte, arena *parallel.Arena, lo, hi int) {
	g := p.g
	// Decode the headers, compacting to the well-formed ones: a hostile
	// header costs its own record and nothing else.
	idx := make([]int, 0, hi-lo)
	els := make([]group.Element, 0, hi-lo)
	for i := lo; i < hi; i++ {
		errs[i] = ErrDecrypt
		if len(sealed[i]) < Overhead {
			continue
		}
		el, err := g.Decode(sealed[i][:pubKeyLen])
		if err != nil || g.IsIdentity(el) {
			continue
		}
		idx = append(idx, i)
		els = append(els, el)
	}
	g.MulDHBatch(els, els, p.prepared)
	g.Normalize(els)
	rcpt := p.publicBytes()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for j, i := range idx {
		ct := sealed[i]
		gcm, err := newAEAD(sc.sealKey(g.SharedBytes(els[j]), ct[:pubKeyLen], rcpt))
		if err != nil {
			errs[i] = err
			continue
		}
		pt, err := gcm.Open(arena.Slot(i), ct[pubKeyLen:pubKeyLen+nonceLen], ct[pubKeyLen+nonceLen:], aad)
		if err == nil {
			pts[i], errs[i] = pt, nil
		}
	}
}

// SymmetricSeal encrypts with a raw 16-byte key (no key agreement); it is
// the primitive the oblivious shuffler uses for its ephemeral intermediate
// re-encryption, where both endpoints are the same enclave.
func SymmetricSeal(rng io.Reader, key *[16]byte, plaintext []byte) ([]byte, error) {
	gcm, err := newAEAD(key[:])
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, nonceLen)
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	out := make([]byte, 0, nonceLen+len(plaintext)+tagLen)
	out = append(out, nonce...)
	return gcm.Seal(out, nonce, plaintext, nil), nil
}

// SymmetricOpen reverses SymmetricSeal.
func SymmetricOpen(key *[16]byte, sealed []byte) ([]byte, error) {
	if len(sealed) < nonceLen+tagLen {
		return nil, ErrDecrypt
	}
	gcm, err := newAEAD(key[:])
	if err != nil {
		return nil, err
	}
	pt, err := gcm.Open(nil, sealed[:nonceLen], sealed[nonceLen:], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// SymmetricOverhead is the expansion of SymmetricSeal.
const SymmetricOverhead = nonceLen + tagLen
