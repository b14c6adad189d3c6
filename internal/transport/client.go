package transport

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/sgx"
)

// Redial policy of the one sender, (*peerConn).retry — a client's
// submission and a hop's epoch push alike: after a connection-level failure
// a call is repeated on a fresh connection, up to DefaultClientRedials times,
// backing off from DefaultClientRedialBase and doubling, each delay spread
// by ±DefaultRedialJitter so a restarting party is not hammered in lockstep
// by every client and upstream hop. The budget (about 6.4 s in all) rides
// out a daemon restart and still surfaces a permanently dead peer instead of
// stalling forever.
const (
	DefaultClientRedials    = 8
	DefaultClientRedialBase = 25 * time.Millisecond
	DefaultRedialJitter     = 0.2
)

// redialPolicy is a backoff schedule: attempts redials from base.
type redialPolicy struct {
	attempts int
	base     time.Duration
}

// redial is the policy every send follows. Tests that must exhaust it
// quickly shrink it here; nothing else sets it.
var redial = redialPolicy{attempts: DefaultClientRedials, base: DefaultClientRedialBase}

// delay computes the backoff before redial attempt (0-based), doubling from
// the base and spreading by ±DefaultRedialJitter.
func (p redialPolicy) delay(attempt int) time.Duration {
	if attempt > 16 {
		attempt = 16
	}
	d := p.base << uint(attempt)
	d = time.Duration(float64(d) * (1 + DefaultRedialJitter*(2*rand.Float64()-1)))
	if d < 0 {
		d = p.base
	}
	return d
}

// peerConn is one party's connection to another: a single pipelined frame
// connection, replaced by a fresh dial to the same address the next time it
// is needed after it breaks — so a restarted daemon is picked up without the
// caller re-dialing. A client holds one per daemon; a stage holds one per
// replica of its downstream tier.
type peerConn struct {
	addr string

	mu     sync.Mutex
	wc     *wireConn
	dials  int
	closed bool
}

// dialPeer connects to addr.
func dialPeer(addr string) (*peerConn, error) {
	p := &peerConn{addr: addr}
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
		wc, err := dialWire(p.addr)
		if err != nil {
			return nil, err
		}
		p.wc = wc
		p.dials++
	}
	return p.wc, nil
}

// Dials counts the connections the handle has dialed, the first among them:
// a count that moved means the party may have restarted since.
func (p *peerConn) Dials() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials
}

func (p *peerConn) call(method uint8, appendBody func([]byte) []byte) ([]byte, error) {
	wc, err := p.conn()
	if err != nil {
		return nil, err
	}
	body, err := wc.call(method, appendBody)
	if IsTransient(err) {
		// Nothing more will be answered on this connection: a broken one has
		// failed already, and a party that answered ErrClosed is shutting
		// down. Drop it, so the next call dials whoever serves the address.
		wc.close()
	}
	return body, err
}

// retry issues one call and, after each transient failure (IsTransient: the
// connection failed, or the peer is shutting down), repeats it on a fresh
// connection under the redial policy. Any other answer — a reply, a
// refusal, epoch-full — returns at once, unchanged. The request must carry
// a dedup stamp when the call is not idempotent: an attempt that died
// mid-call may have been ingested, and only the stamp makes the repeat
// safe.
func (p *peerConn) retry(method uint8, appendBody func([]byte) []byte) ([]byte, error) {
	body, err := p.call(method, appendBody)
	for i := 0; IsTransient(err) && i < redial.attempts; i++ {
		time.Sleep(redial.delay(i))
		body, err = p.call(method, appendBody)
	}
	return body, err
}

// send is the one sender of batches: every Submit frame — a client's
// submission, a hop's epoch push — is written here, stamped (stream, pos),
// and a retry resends the same stamp for the receiver's dedup to absorb.
func (p *peerConn) send(stream, pos int64, b core.Batch) error {
	_, err := p.retry(methodSubmit, func(dst []byte) []byte { return appendBatchCall(dst, stream, pos, b) })
	return err
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

// Keys fetches the key material reports are encrypted to: the party's
// hybrid key, plus the El Gamal point when it is a hop of the chain — at
// shuffler1, which serves no hybrid key, the blinding key alone.
func (p *peerConn) Keys() (Keys, error) {
	body, err := p.call(methodKeys, nil)
	if err != nil {
		return Keys{}, err
	}
	k, err := decoded(decodeKeys(body))
	if err == nil && len(k.Key) == 0 && len(k.Blinding) == 0 {
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

// Client is a handle on one party — a plain/SGX shuffler daemon, either hop
// of the blinded chain, or an analyzer — for submitting reports to it and for
// its control calls. Submissions and Drain transparently retry connection-level
// failures on fresh connections, and every batch submission carries a
// (stream, seq) stamp so such a retry is deduplicated service-side even when
// the original attempt was ingested but its ack was lost.
//
// The service keeps one last position per stream, so a Client keeps the
// sender rule: at most one call in flight per stream, positions increasing.
// It holds a pool of streams: a Submit takes an idle one (or draws a new
// one), sends that stream's next position, and returns the stream to the
// pool. Concurrent callers still pipeline, each on a stream of its own, and
// a Client holds as many streams as its peak concurrency.
type Client struct {
	*peerConn
	mu   sync.Mutex
	idle []clientStream
}

// clientStream is one of a Client's streams and its last position sent.
type clientStream struct{ id, pos int64 }

// Dial connects to a party.
func Dial(addr string) (*Client, error) {
	p, err := dialPeer(addr)
	if err != nil {
		return nil, err
	}
	return &Client{peerConn: p}, nil
}

// Attestation fetches an SGX shuffler's quote and verifies both §4.1.1
// client-side checks: the signature of ca — the attestation CA the caller
// trusts, never a key the shuffler serves — over the quote, and the expected
// code measurement. It returns the attested public key (the quote's report
// data) only when verification succeeds.
func (c *Client) Attestation(ca *ecdsa.PublicKey, measurement [32]byte) ([]byte, error) {
	body, err := c.call(methodAttestation, nil)
	if err != nil {
		return nil, err
	}
	reply, err := decoded(decodeAttestation(body))
	if err != nil {
		return nil, err
	}
	if err := sgx.VerifyQuote(ca, reply.Quote, measurement); err != nil {
		return nil, err
	}
	return reply.Quote.ReportData, nil
}

// Submit ships a whole batch — client envelopes or split-shuffler envelopes,
// whichever the service's stage consumes — in one round trip, retrying
// connection-level failures on fresh connections under the redial policy.
// The batch is accepted or refused whole. A service without room holds it
// until a cut frees some, so Submit may take as long as the service's
// flusher; an IsEpochFull error means it was held past the bound and
// nothing was ingested.
//
// The batch is stamped with a (stream, seq) pair before its first attempt,
// and a retry resends the identical request, so a batch whose original
// attempt was ingested but whose ack was lost is absorbed by the service's
// dedup — the retry cannot double-submit.
func (c *Client) Submit(b core.Batch) error {
	c.mu.Lock()
	var s clientStream
	if n := len(c.idle); n > 0 {
		s, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.mu.Unlock()
	if s.id == 0 {
		id, err := newStreamID()
		if err != nil {
			return fmt.Errorf("transport: client stream id: %w", err)
		}
		s.id = id
	}
	s.pos++
	err := c.send(s.id, s.pos, b)
	c.mu.Lock()
	c.idle = append(c.idle, s)
	c.mu.Unlock()
	return err
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
// under the redial policy: a fleet drain tolerates a replica that
// crashed and is restarting over its WAL, surfacing the recovered
// successor's stats instead of failing the barrier.
func (c *Client) DrainMode(force bool) (ServiceStats, error) {
	mode := byte(0)
	if force {
		mode = 1
	}
	body, err := c.retry(methodDrain, func(dst []byte) []byte { return append(dst, mode) })
	if err != nil {
		return ServiceStats{}, err
	}
	return decoded(decodeServiceStats(body))
}

// Stats fetches the service's health and occupancy snapshot (see
// ServiceStats) in one call, no retry: it is the balancer's probe.
func (c *Client) Stats() (ServiceStats, error) {
	body, err := c.call(methodStats, nil)
	if err != nil {
		return ServiceStats{}, err
	}
	return decoded(decodeServiceStats(body))
}

// Histogram fetches the analyzer's cumulative histogram and the number of
// records that did not open. The analyzer drains before it answers, so the
// histogram counts every report it acked before the call.
func (c *Client) Histogram() (map[string]int, int, error) {
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
