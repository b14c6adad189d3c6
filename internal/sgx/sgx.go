// Package sgx simulates the Intel SGX enclave environment that Prochlo's
// hardened shuffler runs in (§4.1). The simulation enforces the properties
// that drive the Stash Shuffle's design:
//
//   - a hard private-memory (EPC) budget, 92 MB by default, matching the
//     usable enclave memory of the paper's hardware;
//   - metered traffic across the enclave boundary, since every byte moved
//     in or out of the enclave is decrypted/encrypted by the Memory
//     Encryption Engine and is the currency of oblivious-shuffle overhead;
//   - OCALL counting (calls out of the enclave into untrusted space);
//   - remote attestation: an enclave "quotes" its measurement and report
//     data (e.g. a freshly generated public key), and the quote chains to a
//     simulated manufacturer CA, reproducing §4.1.1's key-distribution flow.
//
// What is *not* simulated: actual isolation (everything runs in one address
// space) and side channels. DESIGN.md records this substitution.
package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// DefaultEPC is the usable private memory of the paper's SGX hardware
// ("current hardware realizations provide only 92 MB of private memory").
const DefaultEPC = 92 << 20

// ErrOutOfEnclaveMemory is returned when an allocation would exceed the
// enclave's private-memory budget.
var ErrOutOfEnclaveMemory = errors.New("sgx: enclave private memory exhausted")

// Counters aggregates the observable cost of running code in an enclave.
type Counters struct {
	BytesIn   int64 // bytes copied from untrusted memory into the enclave
	BytesOut  int64 // bytes copied from the enclave to untrusted memory
	OCalls    int64 // calls out of the enclave
	SealOps   int64 // cryptographic seal (encrypt) operations
	OpenOps   int64 // cryptographic open (decrypt) operations
	PubKeyOps int64 // public-key operations (dominant cost of distribution)
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.BytesIn += other.BytesIn
	c.BytesOut += other.BytesOut
	c.OCalls += other.OCalls
	c.SealOps += other.SealOps
	c.OpenOps += other.OpenOps
	c.PubKeyOps += other.PubKeyOps
}

// Enclave is a simulated SGX enclave. The zero value is not usable; call New.
type Enclave struct {
	mu          sync.Mutex
	limit       int64
	used        int64
	peak        int64
	counters    Counters
	measurement [32]byte
	sealKey     [16]byte
	signer      *ecdsa.PrivateKey // provisioned by the CA for quoting
}

// New creates an enclave with the given private-memory limit in bytes and
// the given code measurement (a hash of the "code" the enclave runs; callers
// typically use Measure).
func New(limit int64, measurement [32]byte) *Enclave {
	e := &Enclave{limit: limit, measurement: measurement}
	if _, err := io.ReadFull(rand.Reader, e.sealKey[:]); err != nil {
		panic("sgx: no entropy: " + err.Error())
	}
	return e
}

// Measure produces a code measurement from an identifying string, standing
// in for MRENCLAVE.
func Measure(code string) [32]byte {
	return sha256.Sum256([]byte("sgx-measurement:" + code))
}

// Alloc reserves n bytes of private memory, failing if the budget would be
// exceeded. Oblivious-shuffle implementations call this for every private
// buffer so that algorithms which cannot fit (e.g. the Melbourne Shuffle's
// full permutation at large N) fail exactly as they would on hardware.
func (e *Enclave) Alloc(n int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.used+n > e.limit {
		return fmt.Errorf("%w: used %d + requested %d > limit %d",
			ErrOutOfEnclaveMemory, e.used, n, e.limit)
	}
	e.used += n
	if e.used > e.peak {
		e.peak = e.used
	}
	return nil
}

// Free releases n bytes of private memory.
func (e *Enclave) Free(n int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.used -= n
	if e.used < 0 {
		panic("sgx: free of unallocated enclave memory")
	}
}

// Used returns the current private-memory occupancy.
func (e *Enclave) Used() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.used
}

// PeakMemory returns the maximum private-memory occupancy observed, the
// number Table 2's "SGX Mem" column reports.
func (e *Enclave) PeakMemory() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peak
}

// ResetPeak clears the peak-memory watermark (between benchmark runs).
func (e *Enclave) ResetPeak() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peak = e.used
}

// ReadUntrusted meters n bytes moving into the enclave.
func (e *Enclave) ReadUntrusted(n int) {
	e.mu.Lock()
	e.counters.BytesIn += int64(n)
	e.mu.Unlock()
}

// WriteUntrusted meters n bytes moving out of the enclave.
func (e *Enclave) WriteUntrusted(n int) {
	e.mu.Lock()
	e.counters.BytesOut += int64(n)
	e.mu.Unlock()
}

// OCall meters one call out of the enclave.
func (e *Enclave) OCall() {
	e.mu.Lock()
	e.counters.OCalls++
	e.mu.Unlock()
}

// CountSeal, CountOpen and CountPubKey meter cryptographic operations.
func (e *Enclave) CountSeal()   { e.mu.Lock(); e.counters.SealOps++; e.mu.Unlock() }
func (e *Enclave) CountOpen()   { e.mu.Lock(); e.counters.OpenOps++; e.mu.Unlock() }
func (e *Enclave) CountPubKey() { e.mu.Lock(); e.counters.PubKeyOps++; e.mu.Unlock() }

// Counters returns a snapshot of the enclave's cost counters.
func (e *Enclave) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counters
}

// ResetCounters zeroes the cost counters.
func (e *Enclave) ResetCounters() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.counters = Counters{}
}

// Seal encrypts data with the enclave's sealing key, binding it to the
// enclave's measurement (SGX's MRENCLAVE sealing policy).
func (e *Enclave) Seal(plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(e.sealKey[:])
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	e.CountSeal()
	return gcm.Seal(nonce, nonce, plaintext, e.measurement[:]), nil
}

// Unseal reverses Seal; it fails if the data was sealed by an enclave with a
// different measurement or sealing key.
func (e *Enclave) Unseal(sealed []byte) ([]byte, error) {
	block, err := aes.NewCipher(e.sealKey[:])
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(sealed) < gcm.NonceSize() {
		return nil, errors.New("sgx: sealed blob too short")
	}
	e.CountOpen()
	return gcm.Open(nil, sealed[:gcm.NonceSize()], sealed[gcm.NonceSize():], e.measurement[:])
}

// Quote is a simulated SGX attestation quote: "an SGX enclave running code
// with this measurement published this report data", signed by the
// manufacturer CA.
type Quote struct {
	Measurement [32]byte
	ReportData  []byte // typically a freshly generated public key
	R, S        []byte // ECDSA signature components
}

// CA is the simulated manufacturer (Intel) attestation authority.
type CA struct {
	priv *ecdsa.PrivateKey
}

// NewCA creates a fresh attestation authority.
func NewCA() (*CA, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	return &CA{priv: priv}, nil
}

// PublicKey returns the CA verification key that clients embed.
func (ca *CA) PublicKey() *ecdsa.PublicKey { return &ca.priv.PublicKey }

// Provision installs quoting capability into an enclave. On real hardware
// this corresponds to the launch/provisioning flow that gives the quoting
// enclave its attestation key.
func (ca *CA) Provision(e *Enclave) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.signer = ca.priv
}

// quoteDigest computes the signed digest of a quote body.
func quoteDigest(measurement [32]byte, reportData []byte) []byte {
	h := sha256.New()
	h.Write([]byte("sgx-quote-v1"))
	h.Write(measurement[:])
	h.Write(reportData)
	return h.Sum(nil)
}

// GenerateQuote attests the given report data (e.g. the shuffler's fresh
// public key, per §4.1.1). The enclave must have been provisioned by a CA.
func (e *Enclave) GenerateQuote(reportData []byte) (Quote, error) {
	e.mu.Lock()
	signer := e.signer
	m := e.measurement
	e.mu.Unlock()
	if signer == nil {
		return Quote{}, errors.New("sgx: enclave not provisioned for quoting")
	}
	r, s, err := ecdsa.Sign(rand.Reader, signer, quoteDigest(m, reportData))
	if err != nil {
		return Quote{}, err
	}
	return Quote{Measurement: m, ReportData: append([]byte{}, reportData...), R: r.Bytes(), S: s.Bytes()}, nil
}

// VerifyQuote checks that a quote (a) was signed under the CA key and (b)
// attests the expected code measurement — the two client-side checks §4.1.1
// prescribes before trusting a networked shuffler's key.
func VerifyQuote(caKey *ecdsa.PublicKey, q Quote, expected [32]byte) error {
	if q.Measurement != expected {
		return errors.New("sgx: quote attests unexpected code measurement")
	}
	r := new(big.Int).SetBytes(q.R)
	s := new(big.Int).SetBytes(q.S)
	if !ecdsa.Verify(caKey, quoteDigest(q.Measurement, q.ReportData), r, s) {
		return errors.New("sgx: quote signature invalid")
	}
	return nil
}
