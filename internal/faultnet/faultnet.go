// Package faultnet is a seeded adversary on the wire, for crash-recovery
// tests. A Proxy stands on one link of a deployment — a hop's outbound
// connection to one downstream replica — and relays the frame protocol
// between the two parties. For every request frame it draws one fault from
// a Plan, and every fault it injects is a real connection event: a closed
// socket, a frame delivered twice, a reply that never comes back. The
// parties on either side run the code production runs, so the sender's
// redial and the receiver's (stream, pos) dedup are what recover. A Child
// is the adversary on the process: a party run in a child process that the
// test ends with a real SIGKILL.
//
// The package imports only the standard library. It knows the frame
// protocol's shape — a 4-byte magic answered by a 4-byte ack, then
// uvarint-length-prefixed frames, one reply per request — and never parses
// a frame's body. No program outside the test tree links it.
package faultnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Plan is a seeded fault schedule. Each request frame a proxy reads draws
// one mode from the plan's deterministic stream; the modes mirror the
// failures a real chain sees:
//
//   - PError: the sender's connection is closed and the frame is not
//     forwarded (a connection severed before the request landed);
//   - PDropAck: the frame is forwarded and answered, then the connection is
//     closed instead of relaying the reply — the sender retries and the
//     receiver's dedup must absorb it;
//   - PDup: the frame is forwarded twice and the first reply dropped (a
//     retransmit raced the ack);
//   - PDelay: the frame is held for Delay before it is forwarded.
//
// Fleet soaks add two whole-replica failures:
//
//   - PKill: the Kill hook is invoked (the harness crash-kills a replica)
//     and the connection closed — the sender redials and reaches whatever
//     serves the address by then;
//   - PPartition: a partition window opens for PartitionFor, and every
//     connection that is new or carries a frame inside it is closed at
//     once, without consuming schedule draws — a network partition rather
//     than independent per-frame losses.
//
// One plan may back several proxies (one per downstream replica of a
// sender) and outlives their connections, so the schedule keeps advancing
// across a sender's partitions and reconnects. MaxFaults bounds the total
// injections so a soak always makes progress.
type Plan struct {
	Seed      int64
	PError    float64
	PDropAck  float64
	PDup      float64
	PDelay    float64
	Delay     time.Duration
	MaxFaults int // total injection budget; 0 means unlimited

	// Whole-replica failure injection for fleet soaks.
	PKill        float64       // probability a frame kills the replica via Kill
	Kill         func()        // harness hook invoked on a drawn kill; nil ignores the draw
	PPartition   float64       // probability a frame opens a partition window
	PartitionFor time.Duration // partition window length

	mu        sync.Mutex
	rng       *rand.Rand
	injected  int
	partUntil time.Time
}

type mode int

const (
	modeNone mode = iota
	modeError
	modeDropAck
	modeDup
	modeDelay
	modeKill
	modePartition
)

// draw picks the next fault from the seeded stream, honoring the budget.
func (p *Plan) draw() mode {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.Seed))
	}
	u := p.rng.Float64() // always consume one draw: the schedule is positional
	if p.MaxFaults > 0 && p.injected >= p.MaxFaults {
		return modeNone
	}
	var m mode
	c := p.PError
	switch {
	case u < c:
		m = modeError
	case u < c+p.PDropAck:
		m = modeDropAck
	case u < c+p.PDropAck+p.PDup:
		m = modeDup
	case u < c+p.PDropAck+p.PDup+p.PDelay:
		m = modeDelay
	case u < c+p.PDropAck+p.PDup+p.PDelay+p.PKill:
		if p.Kill == nil {
			return modeNone
		}
		m = modeKill
	case u < c+p.PDropAck+p.PDup+p.PDelay+p.PKill+p.PPartition:
		if p.PartitionFor <= 0 {
			return modeNone
		}
		m = modePartition
	default:
		return modeNone
	}
	p.injected++
	return m
}

// partitioned reports whether a partition window is open. Checked before a
// draw, so a window blankets frames without consuming positional draws.
func (p *Plan) partitioned() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.partUntil.IsZero() && time.Now().Before(p.partUntil)
}

// openPartition starts (or extends) the partition window.
func (p *Plan) openPartition() {
	p.mu.Lock()
	p.partUntil = time.Now().Add(p.PartitionFor)
	p.mu.Unlock()
}

// invokeKill runs the Kill hook outside the plan lock (the hook typically
// aborts a party, whose links may draw from this plan).
func (p *Plan) invokeKill() {
	p.mu.Lock()
	kill := p.Kill
	p.mu.Unlock()
	if kill != nil {
		kill()
	}
}

// Injected reports how many faults the plan has injected so far — tests use
// it to assert a soak actually exercised the failure paths.
func (p *Plan) Injected() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// dialTimeout bounds the proxy's dial of its target.
const dialTimeout = 5 * time.Second

// maxFrame caps a relayed frame, as the frame protocol itself does.
const maxFrame = 1 << 30

// Proxy relays connections from a loopback port to a target address under
// a Plan. Each accepted connection dials the target afresh, so a party
// restarted at the same address is reached by the next connection. Requests
// are relayed one at a time: the proxy reads a request frame, draws its
// fault, forwards it, and relays the one reply before it reads the next.
type Proxy struct {
	plan   *Plan
	target string
	l      net.Listener
	done   chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Listen starts a proxy on an ephemeral loopback port that relays to target
// under plan.
func Listen(plan *Plan, target string) (*Proxy, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{plan: plan, target: target, l: l, done: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the address senders dial in place of the target.
func (p *Proxy) Addr() string { return p.l.Addr().String() }

// Close stops accepting, closes every relayed connection and waits for the
// relays to return.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.l.Close()
	p.wg.Wait()
	return err
}

// accept hands each accepted connection to its own relay until the
// listener closes.
func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.l.Accept()
		if err != nil {
			return
		}
		if !p.track(c) {
			c.Close()
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer p.untrack(c)
			p.relay(c)
		}()
	}
}

// track registers a live connection for Close; false once the proxy closed.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

// untrack forgets a connection and closes it.
func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

// relay carries one sender connection c to a fresh connection to the
// target, applying one drawn fault per request frame. Every fault that
// breaks the link returns, and closing c is what the sender sees.
func (p *Proxy) relay(c net.Conn) {
	if p.plan.partitioned() {
		return
	}
	t, err := net.DialTimeout("tcp", p.target, dialTimeout)
	if err != nil {
		return
	}
	if !p.track(t) {
		t.Close()
		return
	}
	defer p.untrack(t)
	cr, tr := bufio.NewReader(c), bufio.NewReader(t)
	// The magic and its ack.
	if _, err := io.CopyN(t, cr, 4); err != nil {
		return
	}
	if _, err := io.CopyN(c, tr, 4); err != nil {
		return
	}
	for {
		req, err := readFrame(cr)
		if err != nil || p.plan.partitioned() {
			return
		}
		switch p.plan.draw() {
		case modeError:
			return
		case modeKill:
			p.plan.invokeKill()
			return
		case modePartition:
			p.plan.openPartition()
			return
		case modeDropAck:
			exchange(t, tr, req) //nolint:errcheck // the link closes either way
			return
		case modeDup:
			if _, err := exchange(t, tr, req); err != nil {
				return
			}
		case modeDelay:
			if !p.sleep(p.plan.Delay) {
				return
			}
		}
		reply, err := exchange(t, tr, req)
		if err != nil {
			return
		}
		if _, err := c.Write(reply); err != nil {
			return
		}
	}
}

// sleep waits d, returning false if the proxy closed first.
func (p *Proxy) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-p.done:
		return false
	}
}

// exchange forwards one request frame to the target and reads its reply.
func exchange(t net.Conn, tr *bufio.Reader, req []byte) ([]byte, error) {
	if _, err := t.Write(req); err != nil {
		return nil, err
	}
	return readFrame(tr)
}

// readFrame reads one whole frame, its uvarint length prefix included.
func readFrame(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("faultnet: frame of %d bytes exceeds limit", n)
	}
	frame := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+int(n)), n)
	body := frame[len(frame) : len(frame)+int(n)]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return frame[:len(frame)+int(n)], nil
}
