// Package elgamal implements El Gamal encryption over a prime-order group
// together with the exponent-blinding trick that enables Prochlo's split
// shuffler to threshold on sensitive crowd IDs without seeing them in the
// clear (§4.3).
//
// The encoder hashes a crowd ID to a group element µ = H(crowdID) and
// encrypts it as (rA, rY + µ): Y = xG is Shuffler 2's key and A = αG is
// Shuffler 1's public blinding key. Shuffler 1 multiplies C2 alone by its
// secret α, shuffles, and forwards (rA, α(rY + µ)) — for the same r, the
// pair the paper's Shuffler 1 forwards after multiplying both components of
// (rG, rY + µ) by α. Shuffler 2 computes C2 − x·C1 = αrY + αµ − xrαG = αµ: a
// pseudonym that preserves equality (so counting works) while resisting
// dictionary attacks by either shuffler alone. Publishing A costs nothing:
// to test a guessed crowd against αµ given A, Shuffler 2 would have to solve
// a DDH instance. Shuffler 1 serves A with a proof that it knows α
// (ProvenKey), and clients encrypt on no A whose proof fails: a hop 1 that
// served a multiple of Y instead could strip C2's mask.
//
// Group arithmetic is internal/crypto/group's ristretto255, the one group
// this build deploys. Every stage has a batch entry point that feeds whole
// chunks to the kernels — the encoder's QueueCrowdID into a comb batch,
// Blinder.BlindEncode and Decrypter.Pseudonyms from wire bytes to wire
// bytes — so fixed scalars are recoded once per chunk, fixed points go
// through precomputed comb tables, and affine normalization costs one
// shared field inversion per chunk instead of one per point.
// EncryptCrowdIDBatch, BlindBatch and PseudonymBatch are the same paths
// over Ciphertext values.
package elgamal

import (
	"crypto/sha512"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"prochlo/internal/crypto/group"
)

// g is the group every point lives in.
var g = group.Default()

// Point is a group element. The zero value is the identity (the "point at
// infinity").
type Point struct {
	e group.Element
}

// NewPoint wraps a group element of g, the deployed group (benchmark/sut.go
// binds this signature).
func NewPoint(_ group.Group, e group.Element) Point { return Point{e: e} }

// Element returns the underlying group element.
func (p Point) Element() group.Element { return p.e }

// IsInfinity reports whether p is the identity element.
func (p Point) IsInfinity() bool { return g.IsIdentity(p.e) }

// Equal reports whether two points are the same.
func (p Point) Equal(q Point) bool { return g.Equal(p.e, q.e) }

// Bytes returns the wire encoding of the point: a 1-byte identity sentinel
// or a 65-byte tagged uncompressed encoding, chosen so the chain's parse
// path never pays a square root per report.
func (p Point) Bytes() []byte { return g.Encode(nil, p.e) }

// Compressed returns the short canonical encoding (32 bytes), the form used
// for pseudonym map keys.
func (p Point) Compressed() []byte { return g.Compress(nil, p.e) }

// pseudonym returns the compressed encoding of p as a map key, encoded on
// the stack: the string is its one allocation.
func (p Point) pseudonym() string {
	var b [32]byte
	return string(g.Compress(b[:0], p.e))
}

// ParsePoint decodes any encoding produced by Bytes or Compressed; any
// other bytes, a point of another group among them, are an error.
func ParsePoint(b []byte) (Point, error) {
	e, err := g.Decode(b)
	if err != nil {
		return Point{}, fmt.Errorf("elgamal: %w", err)
	}
	return Point{e: e}, nil
}

// RandomScalar returns a uniformly random scalar in [1, n-1]. Each attempt
// consumes a fixed number of rng bytes, so seeded streams stay
// deterministic.
func RandomScalar(rng io.Reader) (*big.Int, error) {
	k, err := g.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	return group.ScalarToBig(k), nil
}

// HashToPoint maps arbitrary data to a group element: a single Elligator
// map with cofactor clearing.
func HashToPoint(data []byte) Point {
	return Point{e: g.HashToElement(data)}
}

// HashToPointGroup is HashToPoint; benchmark/sut.go binds it.
func HashToPointGroup(_ group.Group, data []byte) Point { return HashToPoint(data) }

// KeyPair is a private scalar and its public point H = X*G: Shuffler 2's
// decryption key x with Y = xG, or Shuffler 1's blinding exponent α with its
// public blinding key A = αG.
type KeyPair struct {
	X *big.Int // private
	H Point    // public
}

// GenerateKeyPair creates a fresh El Gamal key pair.
func GenerateKeyPair(rng io.Reader) (*KeyPair, error) {
	x, err := RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("elgamal: %w", err)
	}
	return NewKeyPair(x)
}

// GenerateKeyPairGroup is GenerateKeyPair; benchmark/sut.go binds it.
func GenerateKeyPairGroup(_ group.Group, rng io.Reader) (*KeyPair, error) {
	return GenerateKeyPair(rng)
}

// NewKeyPair rebuilds a key pair from a persisted private scalar, for
// daemons whose blinding key must survive restarts.
func NewKeyPair(x *big.Int) (*KeyPair, error) {
	if x == nil || x.Sign() <= 0 || x.Cmp(g.Order()) >= 0 {
		return nil, errors.New("elgamal: private scalar out of range")
	}
	x = new(big.Int).Set(x)
	return &KeyPair{X: x, H: Point{e: g.BaseMul(group.ScalarFromBig(x))}}, nil
}

// proofDomain prefixes every hash of a ProvenKey proof, so that no proof made
// for another purpose verifies as one.
const proofDomain = "prochlo/elgamal/proven-key/v1/"

// proofSize is the length of the proof that ends a ProvenKey: the challenge
// c and the response s, 32 bytes each.
const proofSize = 64

// ProvenKey returns the public key H with a non-interactive Schnorr proof
// that its maker knows X = log_G H: c = Hash(H, tG) and s = t + cX. Shuffler 1
// serves its blinding key A this way, because clients compute C1 on A. A hop
// 1 that served a point whose log it does not know, such as Shuffler 2's Y or
// kY, could take C2 − k⁻¹·C1 = H(crowd) and read every crowd ID; one that
// knows α learns from C1 = rαG only rG, the C1 the paper's client sends it.
// The nonce t is hashed from X and H, so the proof is the same every call.
func (k *KeyPair) ProvenKey() []byte {
	h := k.H.Compressed()
	t := hashScalar("nonce", k.X.FillBytes(make([]byte, 32)), h)
	c := hashScalar("challenge", h, Point{e: g.BaseMul(group.ScalarFromBig(t))}.Compressed())
	s := new(big.Int).Mul(c, k.X)
	s.Add(s, t).Mod(s, g.Order())
	out := append(make([]byte, 0, len(h)+proofSize), h...)
	out = append(out, c.FillBytes(make([]byte, 32))...)
	return append(out, s.FillBytes(make([]byte, 32))...)
}

// ParseProvenKey decodes a ProvenKey — a key in any encoding ParsePoint
// takes, then the proof — and returns the key only if the proof verifies:
// sG − cH hashes, with H, back to c.
func ParseProvenKey(b []byte) (Point, error) {
	if len(b) <= proofSize {
		return Point{}, fmt.Errorf("elgamal: a proven key is a point and a %d-byte proof, got %d bytes", proofSize, len(b))
	}
	at := len(b) - proofSize
	h, err := ParsePoint(b[:at])
	if err != nil {
		return Point{}, err
	}
	c, s := new(big.Int).SetBytes(b[at:at+32]), new(big.Int).SetBytes(b[at+32:])
	if h.IsInfinity() || c.Cmp(g.Order()) >= 0 || s.Cmp(g.Order()) >= 0 {
		return Point{}, errors.New("elgamal: malformed proven key")
	}
	r := g.Sub(g.BaseMul(group.ScalarFromBig(s)), g.Mul(h.e, group.ScalarFromBig(c)))
	if hashScalar("challenge", h.Compressed(), Point{e: r}.Compressed()).Cmp(c) != 0 {
		return Point{}, errors.New("elgamal: the key's proof of knowledge does not verify")
	}
	return h, nil
}

// hashScalar hashes a labelled transcript to a scalar mod the group order.
// SHA-512's 512 bits leave the reduction's bias below 2^-259.
func hashScalar(label string, parts ...[]byte) *big.Int {
	d := sha512.New()
	d.Write([]byte(proofDomain + label))
	for _, p := range parts {
		d.Write(p)
	}
	return new(big.Int).Mod(new(big.Int).SetBytes(d.Sum(nil)), g.Order())
}

// Ciphertext is an El Gamal encryption (C1, C2) = (rB, rH + M) on a base B:
// the generator G (Encrypt), or Shuffler 1's blinding key A in the split
// chain (Encrypter).
type Ciphertext struct {
	C1, C2 Point
}

// Encrypt encrypts the message point m to the public key h, on G.
func Encrypt(rng io.Reader, h Point, m Point) (Ciphertext, error) {
	r, err := g.RandomScalar(rng)
	if err != nil {
		return Ciphertext{}, err
	}
	return Ciphertext{
		C1: Point{e: g.BaseMul(r)},
		C2: Point{e: g.Add(g.Mul(h.e, r), m.e)},
	}, nil
}

// Blind multiplies C2 by the scalar alpha, Shuffler 1's blinding. For a
// ciphertext (rA, rY + M) whose C1 the client computed on A = αG, it yields
// (rA, α(rY + M)), which decrypts under Y's key to the blinded pseudonym αM.
// Blinding preserves equality of plaintexts: two reports carry the same crowd
// ID iff their blinded decryptions match. C1 passes through unchanged.
func Blind(ct Ciphertext, alpha *big.Int) Ciphertext {
	return Ciphertext{C1: ct.C1, C2: Point{e: g.Mul(ct.C2.e, group.ScalarFromBig(alpha))}}
}

// Blinder is the batch fast path of Blind for a scalar that is fixed
// across an epoch, as Shuffler 1's α is: BlindEncode recodes α once per
// chunk and normalizes the results with one shared inversion on their way
// to their encodings. A Blinder is safe for concurrent use by the
// shuffler's blinding workers.
type Blinder struct {
	alpha group.Scalar
}

// NewBlinder precomputes blinding state for alpha.
func NewBlinder(alpha *big.Int) *Blinder {
	return &Blinder{alpha: group.ScalarFromBig(alpha)}
}

// NewBlinderGroup is NewBlinder; benchmark/sut.go binds it.
func NewBlinderGroup(_ group.Group, alpha *big.Int) *Blinder { return NewBlinder(alpha) }

// BlindEncode blinds a chunk of C2 encodings: dst[WireSize*i:] receives
// the encoding of α·C2_i and lens[i] its length, 0 where c2s[i] does not
// parse (group.Group.MulEncode). α is recoded once per call and the chunk
// never leaves the group's batch path between the bytes it reads and the
// bytes it writes.
func (b *Blinder) BlindEncode(dst []byte, lens []uint8, c2s [][]byte) {
	op := group.MulOp{K: b.alpha, Form: group.WireSize}
	g.MulEncode(&op, dst, lens, c2s, nil)
}

// BlindBatch is Blind over a slice, in place, through BlindEncode: C2 is
// encoded, blinded and parsed back. C1 is left as it is.
func (b *Blinder) BlindBatch(cts []Ciphertext) {
	c2s := make([][]byte, len(cts))
	for i := range cts {
		c2s[i] = cts[i].C2.Bytes()
	}
	dst, lens := make([]byte, group.WireSize*len(cts)), make([]uint8, len(cts))
	b.BlindEncode(dst, lens, c2s)
	for i := range cts {
		cts[i].C2, _ = ParsePoint(dst[group.WireSize*i : group.WireSize*i+int(lens[i])])
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
// Shuffler 2's fixed private scalar x: Pseudonyms recodes x once per chunk
// and compresses all pseudonyms after one shared normalization. Safe for
// concurrent use.
type Decrypter struct {
	x group.Scalar
}

// Decrypter returns precomputed decryption state for the key pair.
func (k *KeyPair) Decrypter() *Decrypter {
	return &Decrypter{x: group.ScalarFromBig(k.X)}
}

// Decrypt is equivalent to KeyPair.Decrypt for the precomputed key.
func (d *Decrypter) Decrypt(ct Ciphertext) Point {
	return Point{e: g.Sub(ct.C2.e, g.Mul(ct.C1.e, d.x))}
}

// BlindedPseudonym is equivalent to KeyPair.BlindedPseudonym for the
// precomputed key.
func (d *Decrypter) BlindedPseudonym(ct Ciphertext) string {
	return d.Decrypt(ct).pseudonym()
}

// Pseudonyms computes the blinded pseudonyms of a chunk of ciphertexts
// given as encodings: dst[32*i:] receives the compressed encoding of
// C2_i − x·C1_i and lens[i] its length (32, or 1 for the identity's {0}),
// or 0 where c1s[i] or c2s[i] does not parse (group.Group.MulEncode): x is
// recoded once per call, and the chunk shares one field inversion.
func (d *Decrypter) Pseudonyms(dst []byte, lens []uint8, c1s, c2s [][]byte) {
	op := group.MulOp{K: d.x, Form: group.CompressedSize}
	g.MulEncode(&op, dst, lens, c1s, c2s)
}

// PseudonymBatch is the batch form of BlindedPseudonym, through
// Pseudonyms.
func (d *Decrypter) PseudonymBatch(cts []Ciphertext) []string {
	c1s, c2s := make([][]byte, len(cts)), make([][]byte, len(cts))
	for i := range cts {
		c1s[i], c2s[i] = cts[i].C1.Bytes(), cts[i].C2.Bytes()
	}
	dst, lens := make([]byte, group.CompressedSize*len(cts)), make([]uint8, len(cts))
	d.Pseudonyms(dst, lens, c1s, c2s)
	out := make([]string, len(cts))
	for i := range out {
		out[i] = string(dst[group.CompressedSize*i : group.CompressedSize*i+int(lens[i])])
	}
	return out
}

// EncryptCrowdID is the reference encryption of a crowd ID: hash it to a
// point and encrypt it to Shuffler 2's key, on G. The split chain's clients
// encrypt on Shuffler 1's blinding key instead (NewEncrypterOn).
func EncryptCrowdID(rng io.Reader, h Point, crowdID []byte) (Ciphertext, error) {
	return Encrypt(rng, h, HashToPoint(crowdID))
}

// encrypterCacheMax bounds the Encrypter's hash-point cache; past it, new
// crowd IDs are hashed without caching. Real deployments see a bounded set
// of crowd labels per client (applications, settings, words typed this
// epoch), so the cap exists only to keep a hostile label stream from
// growing the map without bound.
const encrypterCacheMax = 4096

// Encrypter is the precomputed client-side fast path of EncryptCrowdID for
// a fixed recipient key and C1 base, the counterpart of Shuffler 1's Blinder
// and Shuffler 2's Decrypter. Two precomputations amortize across a batch:
// the hash-to-curve of each crowd ID is cached per distinct label, and the
// recipient key h and the base a get signed-digit comb tables (built lazily
// on first use) that turn each per-report variable-point multiplication
// into ~43 table additions with no doublings. An Encrypter is safe for
// concurrent use by the encoder's batch workers.
type Encrypter struct {
	a, h Point

	tableOnce sync.Once
	baseTable *group.Table
	keyTable  *group.Table

	mu    sync.RWMutex
	cache map[string]group.Element
}

// NewEncrypter precomputes encryption state for Shuffler 2's public key h,
// with C1 on the generator G (benchmark/sut.go binds this signature).
func NewEncrypter(h Point) *Encrypter { return NewEncrypterOn(Point{}, h) }

// NewEncrypterOn precomputes encryption state for Shuffler 2's public key h
// with C1 on the base a: in the split chain, Shuffler 1's blinding key
// A = αG, so that Shuffler 1 need blind C2 alone. The identity (the zero
// Point) selects G.
func NewEncrypterOn(a, h Point) *Encrypter {
	return &Encrypter{a: a, h: h, cache: make(map[string]group.Element)}
}

// tables lazily builds the comb tables for the base and for h (one-time
// ~1ms each, amortized over every report the client ever seals); the
// generator's table is the process-wide one.
func (e *Encrypter) tables() (base, key *group.Table) {
	e.tableOnce.Do(func() {
		e.baseTable = g.BaseTable()
		if !e.a.IsInfinity() {
			e.baseTable = g.Precompute(e.a.e)
		}
		e.keyTable = g.Precompute(e.h.e)
	})
	return e.baseTable, e.keyTable
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
	p = g.HashToElement(crowdID)
	e.mu.Lock()
	if len(e.cache) < encrypterCacheMax {
		e.cache[string(crowdID)] = p
	}
	e.mu.Unlock()
	return p
}

// EncryptCrowdID encrypts the crowd ID as (r·a, r·h + H(crowdID)); on the
// generator it is EncryptCrowdID(rng, h, crowdID) for the precomputed key:
// same ciphertext for the same rng stream.
func (e *Encrypter) EncryptCrowdID(rng io.Reader, crowdID []byte) (Ciphertext, error) {
	m := e.hashPoint(crowdID)
	r, err := g.RandomScalar(rng)
	if err != nil {
		return Ciphertext{}, err
	}
	base, key := e.tables()
	return Ciphertext{
		C1: Point{e: base.Mul(r)},
		C2: Point{e: g.Add(key.Mul(r), m)},
	}, nil
}

// QueueCrowdID draws an encryption's scalar r from rng and sets slots i and
// i+1 of b to its products, C1 = r*a and C2 = r*h + H(crowdID): the split
// form of EncryptCrowdID for a batch encoder that puts the fixed-base work
// of every encryption and seal of a call in one group.CombBatch. Once b has
// run over both slots, Queued returns the encodings of the ciphertext
// EncryptCrowdID draws from the same stream.
func (e *Encrypter) QueueCrowdID(rng io.Reader, crowdID []byte, b *group.CombBatch, i int) error {
	r, err := g.RandomScalar(rng)
	if err != nil {
		return err
	}
	base, key := e.tables()
	b.Set(i, base, r, group.Element{}, group.WireSize)
	b.Set(i+1, key, r, e.hashPoint(crowdID), group.WireSize)
	return nil
}

// Queued returns the encodings of the ciphertext QueueCrowdID put at slots
// i and i+1 of b, which alias b.
func (e *Encrypter) Queued(b *group.CombBatch, i int) (c1, c2 []byte) {
	return b.Bytes(i), b.Bytes(i + 1)
}

// EncryptCrowdIDBatch encrypts one crowd ID per report on a pool of workers
// (0 selects GOMAXPROCS), drawing each report's ephemeral scalar from that
// report's own rng (so batch output is byte-identical to per-report
// EncryptCrowdID calls on the same streams, at any worker count or
// chunking). Every encryption is queued in one group.CombBatch and run a
// worker's range of reports at a time; the ciphertexts are parsed from the
// batch's encodings.
func (e *Encrypter) EncryptCrowdIDBatch(rngs []io.Reader, crowdIDs [][]byte, workers int) ([]Ciphertext, error) {
	if len(rngs) != len(crowdIDs) {
		return nil, fmt.Errorf("elgamal: %d rngs for %d crowd IDs", len(rngs), len(crowdIDs))
	}
	n := len(crowdIDs)
	if n == 0 {
		return nil, nil
	}
	b := group.NewCombBatch(2 * n)
	if i, err := b.RunRecords(workers, 2, func(i int) error {
		return e.QueueCrowdID(rngs[i], crowdIDs[i], b, 2*i)
	}); err != nil {
		return nil, fmt.Errorf("elgamal: report %d: %w", i, err)
	}
	cts := make([]Ciphertext, n)
	for i := range cts {
		c1, c2 := e.Queued(b, 2*i)
		cts[i].C1, _ = ParsePoint(c1)
		cts[i].C2, _ = ParsePoint(c2)
	}
	return cts, nil
}
