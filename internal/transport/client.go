package transport

import (
	"crypto/ecdsa"
	"crypto/x509"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/sgx"
)

// peerConn is a client's connection to one party: a single pipelined frame
// connection, replaced by a fresh dial to the same address the next time it
// is needed after it breaks — so a restarted daemon is picked up without
// the caller re-dialing.
type peerConn struct {
	addr    string
	timeout time.Duration // connect timeout; <= 0 selects DefaultDialTimeout

	mu     sync.Mutex
	wc     *wireConn
	closed bool
}

func dialPeer(addr string, timeout time.Duration) (*peerConn, error) {
	p := &peerConn{addr: addr, timeout: timeout}
	if _, err := p.conn(); err != nil {
		return nil, err
	}
	return p, nil
}

// conn returns the live connection, dialing a replacement for a broken one.
func (p *peerConn) conn() (*wireConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("transport: client closed")
	}
	if p.wc == nil || p.wc.isBroken() {
		wc, err := dialWire(p.addr, p.timeout, DefaultWireTimeout)
		if err != nil {
			return nil, err
		}
		p.wc = wc
	}
	return p.wc, nil
}

func (p *peerConn) call(method uint8, appendBody func([]byte) []byte) ([]byte, error) {
	wc, err := p.conn()
	if err != nil {
		return nil, err
	}
	return wc.call(method, appendBody)
}

// Addr returns the address the client dialed.
func (p *peerConn) Addr() string { return p.addr }

// Close releases the connection, failing any in-flight calls.
func (p *peerConn) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.wc != nil {
		p.wc.close()
	}
	return nil
}

// Healthz fetches the cheap liveness snapshot (no engine locks server-side;
// see HealthzReply). Balancer probes use it.
func (p *peerConn) Healthz() (HealthzReply, error) {
	body, err := p.call(methodHealthz, nil)
	if err != nil {
		return HealthzReply{}, err
	}
	return decoded(decodeHealthz(body))
}

// Keys fetches the key material reports are encrypted to: the party's
// hybrid key, plus the blinding key when it is the chain's shuffler2.
func (p *peerConn) Keys() (Keys, error) {
	body, err := p.call(methodKeys, nil)
	if err != nil {
		return Keys{}, err
	}
	k, err := decoded(decodeKeys(body))
	if err == nil && len(k.Key) == 0 {
		err = fmt.Errorf("transport: %s served an empty key", p.addr)
	}
	return k, err
}

// decoded labels a reply-body decode failure.
func decoded[T any](v T, err error) (T, error) {
	if err != nil {
		err = fmt.Errorf("transport: malformed reply body: %w", err)
	}
	return v, err
}

// Client-side transient-retry policy for SubmitAll: how many fresh
// connections to attempt after a connection-level failure, starting from
// this backoff (doubled and jittered per redialPolicy).
const (
	DefaultClientRedials    = 8
	DefaultClientRedialBase = 25 * time.Millisecond
)

// Client is a handle for submitting reports to a shuffler-role service — a
// plain/SGX shuffler daemon or either hop of the blinded chain — and for its
// control calls. SubmitAll and Drain transparently retry connection-level
// failures on fresh connections, and every batch submission carries a
// (stream, seq) stamp so such a retry is deduplicated service-side even when
// the original attempt was ingested but its ack was lost.
type Client struct {
	*peerConn
	stream int64
	seq    atomic.Int64

	// Transient-redial budget for SubmitAll; see SetRedial.
	redials    int
	redialBase time.Duration
}

// Dial connects to a shuffler service with the default connect timeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout connects to a shuffler service, bounding the TCP connect
// (timeout <= 0 selects DefaultDialTimeout).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	p, err := dialPeer(addr, timeout)
	if err != nil {
		return nil, err
	}
	stream, err := newStreamID()
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("transport: client stream id: %w", err)
	}
	return &Client{
		peerConn:   p,
		stream:     stream,
		redials:    DefaultClientRedials,
		redialBase: DefaultClientRedialBase,
	}, nil
}

// SetRedial tunes the transient-failure retry budget of SubmitAll and
// Drain: up to attempts fresh connections, with jittered exponential
// backoff from base. attempts < 0 disables transient retries; base <= 0
// keeps the default.
func (c *Client) SetRedial(attempts int, base time.Duration) {
	if attempts < 0 {
		attempts = 0
	}
	c.redials = attempts
	if base > 0 {
		c.redialBase = base
	}
}

// callRetryTransient issues one call, retrying connection-level failures on
// fresh connections under the client's redial budget. The request must
// carry a dedup stamp when the call is not idempotent: an attempt that died
// mid-call may have been ingested, and only the stamp makes the retry safe.
func (c *Client) callRetryTransient(method uint8, appendBody func([]byte) []byte) ([]byte, error) {
	body, err := c.call(method, appendBody)
	pol := redialPolicy{attempts: c.redials, base: c.redialBase}
	for attempt := 0; IsTransient(err) && attempt < pol.attempts; attempt++ {
		time.Sleep(pol.delay(attempt))
		body, err = c.call(method, appendBody)
	}
	return body, err
}

// Attestation fetches an SGX shuffler's quote and attestation-CA key and
// verifies both §4.1.1 client-side checks: the CA signature over the quote
// and the expected code measurement. It returns the attested public key
// (the quote's report data) only when verification succeeds.
func (c *Client) Attestation(measurement [32]byte) ([]byte, error) {
	body, err := c.call(methodAttestation, nil)
	if err != nil {
		return nil, err
	}
	reply, err := decoded(decodeAttestation(body))
	if err != nil {
		return nil, err
	}
	caAny, err := x509.ParsePKIXPublicKey(reply.CAKey)
	if err != nil {
		return nil, fmt.Errorf("transport: attestation CA key: %w", err)
	}
	caKey, ok := caAny.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("transport: attestation CA key is %T, want ECDSA", caAny)
	}
	if err := sgx.VerifyQuote(caKey, reply.Quote, measurement); err != nil {
		return nil, err
	}
	return reply.Quote.ReportData, nil
}

// submit ships one stamped batch. retry selects SubmitAll's behaviour:
// connection-level failures resend the identical stamped request on a fresh
// connection.
func (c *Client) submit(b core.Batch, retry bool) error {
	stream, seq := c.stream, c.seq.Add(1)
	appendBody := func(dst []byte) []byte { return appendBatchCall(dst, stream, seq, b) }
	var err error
	if retry {
		_, err = c.callRetryTransient(methodSubmit, appendBody)
	} else {
		_, err = c.call(methodSubmit, appendBody)
	}
	return err
}

// Submit ships a whole batch — client envelopes or split-shuffler envelopes,
// whichever the service's stage consumes — in one round trip. The batch is
// accepted atomically; on an IsEpochFull error nothing was ingested and the
// caller should back off and resubmit.
func (c *Client) Submit(b core.Batch) error {
	return c.submit(b, false)
}

// Default epoch-full retry policy shared by SubmitAll callers.
const (
	DefaultSubmitRetries = 50
	DefaultSubmitDelay   = 20 * time.Millisecond
)

// SubmitAll ships a batch of envelopes (of either kind), adapting to the
// service's backpressure: a batch rejected as epoch-full is split in half and the
// halves submitted in order (a batch larger than the occupancy cap can
// never be accepted whole), and a single epoch-full envelope is retried
// with backoff — up to retries attempts at delay apart — until the epoch
// drains. Splitting preserves submission order, so a seeded deployment
// stays deterministic.
//
// It returns how many envelopes the service accepted. Submission stops at
// the first unrecoverable error, and splitting preserves order, so the
// accepted envelopes are exactly the prefix b.Slice(0, accepted): on error a
// caller resumes from b.Slice(accepted, b.Len()) rather than resubmitting
// the whole batch (which would double-count the accepted prefix).
//
// Connection-level failures are also retried, on fresh connections to the
// same address under the client's SetRedial budget. Each slice is stamped
// with a (stream, seq) pair before its first attempt, and the retry resends
// the identical request, so a slice whose original attempt was ingested but
// whose ack was lost is absorbed by the service's dedup — the retry cannot
// double-submit. Only after the redial budget is exhausted does the error
// surface, with the accepted-prefix contract intact.
func (c *Client) SubmitAll(b core.Batch, retries int, delay time.Duration) (accepted int, err error) {
	n := b.Len()
	err = c.submit(b, true)
	if err == nil {
		return n, nil
	}
	if !IsEpochFull(err) {
		return 0, err
	}
	if n > 1 {
		mid := n / 2
		accepted, err = c.SubmitAll(b.Slice(0, mid), retries, delay)
		if err != nil {
			return accepted, err
		}
		m, err := c.SubmitAll(b.Slice(mid, n), retries, delay)
		return accepted + m, err
	}
	for attempt := 0; IsEpochFull(err) && attempt < retries; attempt++ {
		time.Sleep(delay)
		err = c.submit(b, true)
	}
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// Drain flushes anything pending, waits for every queued epoch to reach the
// next hop, and returns the service stats — the barrier to use before
// querying downstream. Draining a chain is hop order: drain Shuffler 1 so
// its final epoch reaches Shuffler 2, then drain Shuffler 2 so it reaches
// the analyzer.
func (c *Client) Drain() (ServiceStats, error) {
	return c.DrainMode(false)
}

// DrainMode is Drain with an explicit mode: force additionally releases a
// below-floor final epoch as Dropped instead of leaving it pending — the
// final drain of a deployment that is shutting down for good.
//
// Draining is idempotent (a second drain of a drained service is an empty
// barrier), so connection-level failures are retried on fresh connections
// under the client's redial budget: a fleet drain tolerates a replica that
// crashed and is restarting over its WAL, surfacing the recovered
// successor's stats instead of failing the barrier.
func (c *Client) DrainMode(force bool) (ServiceStats, error) {
	mode := byte(0)
	if force {
		mode = 1
	}
	body, err := c.callRetryTransient(methodDrain, func(dst []byte) []byte { return append(dst, mode) })
	if err != nil {
		return ServiceStats{}, err
	}
	return decoded(decodeServiceStats(body))
}

// Stats fetches the shuffler service's health snapshot.
func (c *Client) Stats() (ServiceStats, error) {
	body, err := c.call(methodStats, nil)
	if err != nil {
		return ServiceStats{}, err
	}
	return decoded(decodeServiceStats(body))
}

// AnalyzerClient is a handle for querying an analyzer service.
type AnalyzerClient struct {
	*peerConn
}

// DialAnalyzer connects to an analyzer service with the default connect
// timeout.
func DialAnalyzer(addr string) (*AnalyzerClient, error) {
	p, err := dialPeer(addr, 0)
	if err != nil {
		return nil, err
	}
	return &AnalyzerClient{peerConn: p}, nil
}

// Histogram fetches the histogram of the analyzer's materialized database.
func (c *AnalyzerClient) Histogram() (map[string]int, int, error) {
	body, err := c.call(methodHistogram, nil)
	if err != nil {
		return nil, 0, err
	}
	counts, undec, err := decodeHistogram(body)
	if err != nil {
		return nil, 0, fmt.Errorf("transport: malformed reply body: %w", err)
	}
	return counts, undec, nil
}

// Stats fetches the analyzer service's health snapshot.
func (c *AnalyzerClient) Stats() (AnalyzerStats, error) {
	body, err := c.call(methodStats, nil)
	if err != nil {
		return AnalyzerStats{}, err
	}
	return decoded(decodeAnalyzerStats(body))
}
