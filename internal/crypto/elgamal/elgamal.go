// Package elgamal implements El Gamal encryption over a pluggable
// prime-order group together with the exponent-blinding trick that enables
// Prochlo's split shuffler to threshold on sensitive crowd IDs without
// seeing them in the clear (§4.3).
//
// The encoder hashes a crowd ID to a group element µ = H(crowdID) and
// encrypts it to Shuffler 2's public key as (rG, rH + µ). Shuffler 1 blinds
// the pair with a secret scalar α, shuffles, and forwards; Shuffler 2
// decrypts and obtains αµ — a pseudonym that preserves equality (so
// counting works) while resisting dictionary attacks by either shuffler
// alone.
//
// Group arithmetic lives in internal/crypto/group behind the
// Group/Element/Scalar interface: ristretto255 is the deployed group, and
// the explicit-group constructors let tests run the same code over the
// stdlib-backed P-256 reference. Every stage has a batch entry point —
// Encrypter.EncryptCrowdIDBatch, Blinder.BlindBatch, Decrypter.DecryptBatch
// — that feeds whole slices to the kernels: fixed
// scalars are recoded once per slice, fixed points go through precomputed
// comb tables, and affine normalization costs one shared field inversion
// per slice instead of one per point.
package elgamal

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"prochlo/internal/crypto/group"
)

// Point is an element of the configured group. The zero value is the
// identity (the "point at infinity").
type Point struct {
	g group.Group
	e group.Element
}

// NewPoint wraps a group element.
func NewPoint(g group.Group, e group.Element) Point { return Point{g: g, e: e} }

// Group returns the group the point belongs to (the default group for the
// zero value).
func (p Point) Group() group.Group {
	if p.g == nil {
		return group.Default()
	}
	return p.g
}

// Element returns the underlying group element.
func (p Point) Element() group.Element { return p.e }

// IsInfinity reports whether p is the identity element.
func (p Point) IsInfinity() bool { return p.Group().IsIdentity(p.e) }

// Equal reports whether two points are the same.
func (p Point) Equal(q Point) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() == q.IsInfinity()
	}
	if p.Group().Name() != q.Group().Name() {
		return false
	}
	return p.Group().Equal(p.e, q.e)
}

// Bytes returns the wire encoding of the point: a 1-byte identity sentinel
// or a 65-byte tagged uncompressed encoding, chosen so the chain's parse
// path never pays a square root per report.
func (p Point) Bytes() []byte { return p.Group().Encode(p.e) }

// Compressed returns the short canonical encoding (33 bytes on P-256,
// 32 on ristretto255), the form used for pseudonym map keys.
func (p Point) Compressed() []byte { return p.Group().Compress(p.e) }

// ParsePoint decodes any encoding produced by Bytes or Compressed,
// inferring the backend from the length and tag. A caller that parses
// bytes a peer sent must check Group() against group.Default() before
// trusting the point: one on the reference backend parses too.
func ParsePoint(b []byte) (Point, error) {
	g, err := group.Infer(b)
	if err != nil {
		return Point{}, fmt.Errorf("elgamal: %w", err)
	}
	e, err := g.Decode(b)
	if err != nil {
		return Point{}, fmt.Errorf("elgamal: %w", err)
	}
	return Point{g: g, e: e}, nil
}

// RandomScalar returns a uniformly random scalar in [1, n-1] for the
// default group, by rejection sampling: each attempt consumes a fixed
// number of rng bytes and out-of-range candidates are discarded rather
// than reduced (a Mod would bias low residues).
func RandomScalar(rng io.Reader) (*big.Int, error) {
	return RandomScalarGroup(group.Default(), rng)
}

// RandomScalarGroup is RandomScalar for an explicit group.
func RandomScalarGroup(g group.Group, rng io.Reader) (*big.Int, error) {
	k, err := g.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	return group.ScalarToBig(k), nil
}

// HashToPoint maps arbitrary data to an element of the default group: a
// single Elligator map with cofactor clearing (the P-256 reference backend
// uses try-and-increment).
func HashToPoint(data []byte) Point {
	return HashToPointGroup(group.Default(), data)
}

// HashToPointGroup is HashToPoint for an explicit group.
func HashToPointGroup(g group.Group, data []byte) Point {
	return Point{g: g, e: g.HashToElement(data)}
}

// KeyPair is Shuffler 2's decryption key pair: H = x*G.
type KeyPair struct {
	G group.Group // group the key lives on (nil means the default)
	X *big.Int    // private
	H Point       // public
}

func (k *KeyPair) group() group.Group {
	if k.G == nil {
		return group.Default()
	}
	return k.G
}

// GenerateKeyPair creates a fresh El Gamal key pair on the default group.
func GenerateKeyPair(rng io.Reader) (*KeyPair, error) {
	return GenerateKeyPairGroup(group.Default(), rng)
}

// GenerateKeyPairGroup creates a fresh key pair on an explicit group.
func GenerateKeyPairGroup(g group.Group, rng io.Reader) (*KeyPair, error) {
	x, err := RandomScalarGroup(g, rng)
	if err != nil {
		return nil, fmt.Errorf("elgamal: %w", err)
	}
	return NewKeyPairGroup(g, x)
}

// NewKeyPair rebuilds a key pair from a persisted private scalar, for
// daemons whose blinding key must survive restarts.
func NewKeyPair(x *big.Int) (*KeyPair, error) {
	return NewKeyPairGroup(group.Default(), x)
}

// NewKeyPairGroup is NewKeyPair on an explicit group.
func NewKeyPairGroup(g group.Group, x *big.Int) (*KeyPair, error) {
	if x == nil || x.Sign() <= 0 || x.Cmp(g.Order()) >= 0 {
		return nil, errors.New("elgamal: private scalar out of range")
	}
	x = new(big.Int).Set(x)
	h := g.BaseMul(group.ScalarFromBig(x))
	return &KeyPair{G: g, X: x, H: Point{g: g, e: h}}, nil
}

// Ciphertext is an El Gamal encryption (C1, C2) = (rG, rH + M).
type Ciphertext struct {
	C1, C2 Point
}

// Encrypt encrypts the message point m to the public key h.
func Encrypt(rng io.Reader, h Point, m Point) (Ciphertext, error) {
	g := h.Group()
	r, err := g.RandomScalar(rng)
	if err != nil {
		return Ciphertext{}, err
	}
	return Ciphertext{
		C1: Point{g: g, e: g.BaseMul(r)},
		C2: Point{g: g, e: g.Add(g.Mul(h.e, r), m.e)},
	}, nil
}

// Blind multiplies both ciphertext components by the scalar alpha. For a
// ciphertext of M under key H this produces a valid encryption of αM under
// the same key, so decryption yields the blinded pseudonym αM. Blinding
// preserves equality of plaintexts: two reports carry the same crowd ID iff
// their blinded decryptions match.
func Blind(ct Ciphertext, alpha *big.Int) Ciphertext {
	g := ct.C1.Group()
	k := group.ScalarFromBig(alpha)
	return Ciphertext{
		C1: Point{g: g, e: g.Mul(ct.C1.e, k)},
		C2: Point{g: g, e: g.Mul(ct.C2.e, k)},
	}
}

// Blinder is the batch fast path of Blind for a scalar that is fixed
// across an epoch, as Shuffler 1's α is: BlindBatch recodes α once per
// slice and normalizes results with one shared inversion, so the encode
// that follows costs no per-point division. A Blinder is safe for
// concurrent use by the shuffler's blinding workers.
type Blinder struct {
	g     group.Group
	alpha group.Scalar
}

// NewBlinder precomputes blinding state for alpha on the default group.
func NewBlinder(alpha *big.Int) *Blinder {
	return NewBlinderGroup(group.Default(), alpha)
}

// NewBlinderGroup is NewBlinder on an explicit group.
func NewBlinderGroup(g group.Group, alpha *big.Int) *Blinder {
	return &Blinder{g: g, alpha: group.ScalarFromBig(alpha)}
}

// Blind is equivalent to Blind(ct, alpha) for the precomputed alpha.
func (b *Blinder) Blind(ct Ciphertext) Ciphertext {
	return Ciphertext{
		C1: Point{g: b.g, e: b.g.Mul(ct.C1.e, b.alpha)},
		C2: Point{g: b.g, e: b.g.Mul(ct.C2.e, b.alpha)},
	}
}

// BlindBatch blinds a slice of ciphertexts in place: 2*len(cts) fixed-
// scalar multiplications with the scalar recoded once, then one shared
// normalization so the caller's Bytes() calls are inversion-free.
func (b *Blinder) BlindBatch(cts []Ciphertext) {
	if len(cts) == 0 {
		return
	}
	els := make([]group.Element, 2*len(cts))
	for i, ct := range cts {
		els[2*i] = ct.C1.e
		els[2*i+1] = ct.C2.e
	}
	b.g.MulBatch(els, els, b.alpha)
	b.g.Normalize(els)
	for i := range cts {
		cts[i].C1 = Point{g: b.g, e: els[2*i]}
		cts[i].C2 = Point{g: b.g, e: els[2*i+1]}
	}
}

// Decrypt recovers the message point: C2 - x*C1.
func (k *KeyPair) Decrypt(ct Ciphertext) Point {
	return k.Decrypter().Decrypt(ct)
}

// BlindedPseudonym is what Shuffler 2 computes for counting: the canonical
// compressed encoding of α·H(crowdID). It is the group-by key for blinded
// thresholding.
func (k *KeyPair) BlindedPseudonym(ct Ciphertext) string {
	return k.Decrypter().BlindedPseudonym(ct)
}

// Decrypter is the batch fast path of Decrypt/BlindedPseudonym for
// Shuffler 2's fixed private scalar x: DecryptBatch recodes x once per
// slice and compresses all pseudonyms after one shared normalization.
// Safe for concurrent use.
type Decrypter struct {
	g group.Group
	x group.Scalar
}

// Decrypter returns precomputed decryption state for the key pair.
func (k *KeyPair) Decrypter() *Decrypter {
	return &Decrypter{g: k.group(), x: group.ScalarFromBig(k.X)}
}

// Decrypt is equivalent to KeyPair.Decrypt for the precomputed key.
func (d *Decrypter) Decrypt(ct Ciphertext) Point {
	return Point{g: d.g, e: d.g.Sub(ct.C2.e, d.g.Mul(ct.C1.e, d.x))}
}

// BlindedPseudonym is equivalent to KeyPair.BlindedPseudonym for the
// precomputed key.
func (d *Decrypter) BlindedPseudonym(ct Ciphertext) string {
	return string(d.Decrypt(ct).Compressed())
}

// DecryptBatch decrypts a slice of ciphertexts with the private scalar
// recoded once and one shared normalization over the results.
func (d *Decrypter) DecryptBatch(cts []Ciphertext) []Point {
	if len(cts) == 0 {
		return nil
	}
	c1s := make([]group.Element, len(cts))
	for i, ct := range cts {
		c1s[i] = ct.C1.e
	}
	d.g.MulBatch(c1s, c1s, d.x)
	out := make([]Point, len(cts))
	for i, ct := range cts {
		c1s[i] = d.g.Sub(ct.C2.e, c1s[i])
	}
	d.g.Normalize(c1s)
	for i := range out {
		out[i] = Point{g: d.g, e: c1s[i]}
	}
	return out
}

// PseudonymBatch is the batch form of BlindedPseudonym: one scalar recode
// and one shared inversion for the whole slice.
func (d *Decrypter) PseudonymBatch(cts []Ciphertext) []string {
	pts := d.DecryptBatch(cts)
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = string(p.Compressed())
	}
	return out
}

// EncryptCrowdID is the encoder-side helper: hash the crowd ID to a point
// and encrypt it to Shuffler 2's key.
func EncryptCrowdID(rng io.Reader, h Point, crowdID []byte) (Ciphertext, error) {
	return Encrypt(rng, h, HashToPointGroup(h.Group(), crowdID))
}

// encrypterCacheMax bounds the Encrypter's hash-point cache; past it, new
// crowd IDs are hashed without caching. Real deployments see a bounded set
// of crowd labels per client (applications, settings, words typed this
// epoch), so the cap exists only to keep a hostile label stream from
// growing the map without bound.
const encrypterCacheMax = 4096

// Encrypter is the precomputed client-side fast path of EncryptCrowdID for
// a fixed recipient key, the counterpart of Shuffler 1's Blinder and
// Shuffler 2's Decrypter. Two precomputations amortize across a batch: the
// hash-to-curve of each crowd ID is cached per distinct label, and the
// recipient key h gets a signed-digit comb table (built lazily on first
// use) that turns the per-report variable-point multiplication rH into
// ~43 table additions with no doublings. An Encrypter is safe for
// concurrent use by the encoder's batch workers.
type Encrypter struct {
	g group.Group
	h Point

	tableOnce sync.Once
	table     group.Table

	mu    sync.RWMutex
	cache map[string]group.Element
}

// NewEncrypter precomputes encryption state for Shuffler 2's public key h.
func NewEncrypter(h Point) *Encrypter {
	return &Encrypter{g: h.Group(), h: h, cache: make(map[string]group.Element)}
}

// keyTable lazily builds the comb table for h (one-time ~1ms, amortized
// over every report the client ever seals).
func (e *Encrypter) keyTable() group.Table {
	e.tableOnce.Do(func() { e.table = e.g.Precompute(e.h.e) })
	return e.table
}

// hashPoint returns HashToPoint(crowdID), memoized. Cached elements are
// shared across ciphertexts; they are never mutated (point arithmetic is
// functional), so handing out the same element is safe.
func (e *Encrypter) hashPoint(crowdID []byte) group.Element {
	e.mu.RLock()
	p, ok := e.cache[string(crowdID)]
	e.mu.RUnlock()
	if ok {
		return p
	}
	p = e.g.HashToElement(crowdID)
	e.mu.Lock()
	if len(e.cache) < encrypterCacheMax {
		e.cache[string(crowdID)] = p
	}
	e.mu.Unlock()
	return p
}

// EncryptCrowdID is equivalent to EncryptCrowdID(rng, h, crowdID) for the
// precomputed key: same ciphertext for the same rng stream.
func (e *Encrypter) EncryptCrowdID(rng io.Reader, crowdID []byte) (Ciphertext, error) {
	m := e.hashPoint(crowdID)
	r, err := e.g.RandomScalar(rng)
	if err != nil {
		return Ciphertext{}, err
	}
	return Ciphertext{
		C1: Point{g: e.g, e: e.g.BaseMul(r)},
		C2: Point{g: e.g, e: e.g.Add(e.keyTable().Mul(r), m)},
	}, nil
}

// QueueCrowdID draws an encryption's scalar r from rng and sets slots i and
// i+1 of b to its products, C1 = r*G and C2 = r*H + H(crowdID): the split
// form of EncryptCrowdID for a batch encoder that puts the fixed-base work
// of every encryption and seal of a call in one group.CombBatch. Once b has
// run over both slots and been normalized, Queued returns the ciphertext
// EncryptCrowdID draws from the same stream.
func (e *Encrypter) QueueCrowdID(rng io.Reader, crowdID []byte, b *group.CombBatch, i int) error {
	r, err := e.g.RandomScalar(rng)
	if err != nil {
		return err
	}
	b.Set(i, e.g.BaseTable(), r, group.Element{})
	b.Set(i+1, e.keyTable(), r, e.hashPoint(crowdID))
	return nil
}

// Queued returns the ciphertext QueueCrowdID put at slots i and i+1 of b.
func (e *Encrypter) Queued(b *group.CombBatch, i int) Ciphertext {
	return Ciphertext{C1: Point{g: e.g, e: b.Out(i)}, C2: Point{g: e.g, e: b.Out(i + 1)}}
}

// EncryptCrowdIDBatch encrypts one crowd ID per report on a pool of workers
// (0 selects GOMAXPROCS), drawing each report's ephemeral scalar from that
// report's own rng (so batch output is byte-identical to per-report
// EncryptCrowdID calls on the same streams, at any worker count or
// chunking). Every encryption is queued in one group.CombBatch, run a
// worker's range of reports at a time, and both components of every
// ciphertext are normalized with one shared inversion, so the Bytes() calls
// that follow are divisions-free.
func (e *Encrypter) EncryptCrowdIDBatch(rngs []io.Reader, crowdIDs [][]byte, workers int) ([]Ciphertext, error) {
	if len(rngs) != len(crowdIDs) {
		return nil, fmt.Errorf("elgamal: %d rngs for %d crowd IDs", len(rngs), len(crowdIDs))
	}
	n := len(crowdIDs)
	if n == 0 {
		return nil, nil
	}
	b := group.NewCombBatch(e.g, 2*n)
	if i, err := b.RunRecords(workers, 2, func(i int) error {
		return e.QueueCrowdID(rngs[i], crowdIDs[i], b, 2*i)
	}); err != nil {
		return nil, fmt.Errorf("elgamal: report %d: %w", i, err)
	}
	b.Normalize()
	cts := make([]Ciphertext, n)
	for i := range cts {
		cts[i] = e.Queued(b, 2*i)
	}
	return cts, nil
}
