package faultnet

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// frameServer speaks the frame protocol's shape: it acks the 4-byte magic,
// then echoes every request frame back as its reply and counts them.
type frameServer struct {
	l      net.Listener
	mu     sync.Mutex
	frames int
}

func serveFrames(t *testing.T, addr string) *frameServer {
	t.Helper()
	var l net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ { // a rebind may wait out the old port
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	s := &frameServer{l: l}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go s.serve(c)
		}
	}()
	return s
}

func (s *frameServer) serve(c net.Conn) {
	defer c.Close()
	r := bufio.NewReader(c)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return
	}
	if _, err := c.Write([]byte("ack!")); err != nil {
		return
	}
	for {
		f, err := readFrame(r)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.frames++
		s.mu.Unlock()
		if _, err := c.Write(f); err != nil {
			return
		}
	}
}

func (s *frameServer) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
}

func (s *frameServer) addr() string { return s.l.Addr().String() }

// peer is a sender's connection through a proxy.
type peer struct {
	c net.Conn
	r *bufio.Reader
}

// dial connects and completes the magic exchange.
func dial(addr string) (*peer, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	c.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a test bound
	p := &peer{c: c, r: bufio.NewReader(c)}
	var ack [4]byte
	if _, err := c.Write([]byte("mag!")); err != nil {
		c.Close()
		return nil, err
	}
	if _, err := io.ReadFull(p.r, ack[:]); err != nil {
		c.Close()
		return nil, err
	}
	return p, nil
}

func mustDial(t *testing.T, addr string) *peer {
	t.Helper()
	p, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.c.Close() })
	return p
}

// call sends one request frame and reads its reply's body.
func (p *peer) call(body string) (string, error) {
	frame := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	if _, err := p.c.Write(frame); err != nil {
		return "", err
	}
	reply, err := readFrame(p.r)
	if err != nil {
		return "", err
	}
	_, k := binary.Uvarint(reply)
	return string(reply[k:]), nil
}

func listen(t *testing.T, plan *Plan, target string) *Proxy {
	t.Helper()
	px, err := Listen(plan, target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	return px
}

// TestProxyModes drives one frame through each mode: what reaches the
// target, whether the sender gets its reply, and that the budget of one lets
// the next connection's frame through untouched.
func TestProxyModes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		plan      *Plan
		delivered int  // frames the target sees for the faulted call
		replied   bool // whether the sender gets the reply
		injected  int
	}{
		{"none", &Plan{Seed: 1}, 1, true, 0},
		{"error", &Plan{Seed: 1, PError: 1, MaxFaults: 1}, 0, false, 1},
		{"drop-ack", &Plan{Seed: 1, PDropAck: 1, MaxFaults: 1}, 1, false, 1},
		{"dup", &Plan{Seed: 1, PDup: 1, MaxFaults: 1}, 2, true, 1},
		{"delay", &Plan{Seed: 1, PDelay: 1, Delay: 50 * time.Millisecond, MaxFaults: 1}, 1, true, 1},
		{"kill", &Plan{Seed: 1, PKill: 1, MaxFaults: 1}, 0, false, 1},
		{"hookless-kill", &Plan{Seed: 1, PKill: 1, MaxFaults: 1}, 1, true, 0},
		{"partition", &Plan{Seed: 1, PPartition: 1, PartitionFor: time.Millisecond, MaxFaults: 1}, 0, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var killed atomic.Int32
			if tc.name == "kill" {
				tc.plan.Kill = func() { killed.Add(1) }
			}
			srv := serveFrames(t, "127.0.0.1:0")
			px := listen(t, tc.plan, srv.addr())
			start := time.Now()
			reply, err := mustDial(t, px.Addr()).call("first")
			if tc.replied != (err == nil) || (err == nil && reply != "first") {
				t.Fatalf("call = (%q, %v), want a reply: %v", reply, err, tc.replied)
			}
			if tc.name == "delay" && time.Since(start) < tc.plan.Delay {
				t.Errorf("delayed call returned after %v, want at least %v", time.Since(start), tc.plan.Delay)
			}
			if got := srv.count(); got != tc.delivered {
				t.Errorf("target saw %d frames, want %d", got, tc.delivered)
			}
			if tc.name == "kill" && killed.Load() != 1 {
				t.Errorf("kill hook ran %d times, want once", killed.Load())
			}
			time.Sleep(5 * time.Millisecond) // past the partition window
			if reply, err := mustDial(t, px.Addr()).call("second"); err != nil || reply != "second" {
				t.Fatalf("call after the budget = (%q, %v), want it through", reply, err)
			}
			if got := srv.count(); got != tc.delivered+1 {
				t.Errorf("target saw %d frames after the budget, want %d", got, tc.delivered+1)
			}
			if got := tc.plan.Injected(); got != tc.injected {
				t.Errorf("injected = %d, want %d", got, tc.injected)
			}
		})
	}
}

// TestProxyPartitionBlankets pins the partition window: while it is open,
// a live connection's frame and a new connection are both closed at once,
// without a draw, and frames flow again once it closes.
func TestProxyPartitionBlankets(t *testing.T) {
	const window = 200 * time.Millisecond
	plan := &Plan{Seed: 3, PPartition: 1, PartitionFor: window, MaxFaults: 2}
	srv := serveFrames(t, "127.0.0.1:0")
	px := listen(t, plan, srv.addr())
	live := mustDial(t, px.Addr())
	if _, err := mustDial(t, px.Addr()).call("opens"); err == nil {
		t.Fatal("the frame that draws the partition was answered")
	}
	if _, err := live.call("live"); err == nil {
		t.Fatal("a live connection's frame crossed an open partition")
	}
	for i := 0; i < 3; i++ {
		if p, err := dial(px.Addr()); err == nil {
			p.c.Close()
			t.Fatal("a new connection completed its handshake inside the partition")
		}
	}
	if got := plan.Injected(); got != 1 || srv.count() != 0 {
		t.Fatalf("inside the window: injected=%d delivered=%d, want 1 and 0 (no draws)", got, srv.count())
	}
	time.Sleep(window + 20*time.Millisecond)
	// The schedule resumes where it stopped: the next draw is the second
	// partition of the budget, and the one after it goes through.
	if _, err := mustDial(t, px.Addr()).call("reopens"); err == nil || plan.Injected() != 2 {
		t.Fatalf("first frame after the window = %v with %d injected, want the budget's second partition", err, plan.Injected())
	}
	time.Sleep(window + 20*time.Millisecond)
	if reply, err := mustDial(t, px.Addr()).call("through"); err != nil || reply != "through" {
		t.Fatalf("frame after the budget = (%q, %v), want it through", reply, err)
	}
	if srv.count() != 1 {
		t.Fatalf("delivered = %d, want only the post-budget frame", srv.count())
	}
}

// TestProxySharedSchedule pins that one plan is one schedule: two proxies
// (a sender's two downstream replicas) and a reconnect draw positions from
// the same stream and spend the same budget, and a reconnect reaches a
// target restarted at the same address.
func TestProxySharedSchedule(t *testing.T) {
	plan := &Plan{Seed: 1, PDup: 1, MaxFaults: 3}
	a, b := serveFrames(t, "127.0.0.1:0"), serveFrames(t, "127.0.0.1:0")
	pa, pb := listen(t, plan, a.addr()), listen(t, plan, b.addr())
	call := func(px *Proxy, body string) {
		t.Helper()
		if reply, err := mustDial(t, px.Addr()).call(body); err != nil || reply != body {
			t.Fatalf("call through %s = (%q, %v)", px.Addr(), reply, err)
		}
	}
	call(pa, "a1") // duplicated
	call(pb, "b1") // duplicated
	if a.count() != 2 || b.count() != 2 {
		t.Fatalf("targets saw %d and %d frames, want 2 each", a.count(), b.count())
	}
	// A restarted target at the same address: the next connection reaches it.
	addr := a.addr()
	a.l.Close()
	a = serveFrames(t, addr)
	call(pa, "a2") // the budget's third duplicate
	call(pb, "b2") // past the budget
	if a.count() != 2 || b.count() != 3 || plan.Injected() != 3 {
		t.Fatalf("targets saw %d and %d frames with %d injected, want 2, 3 and 3", a.count(), b.count(), plan.Injected())
	}
}

// TestPlanScheduleIsPositional: two plans with one seed draw one sequence of
// modes, whichever proxies consume it.
func TestPlanScheduleIsPositional(t *testing.T) {
	mk := func() *Plan {
		return &Plan{Seed: 7, PError: 0.2, PDropAck: 0.2, PDup: 0.2, PDelay: 0.2, MaxFaults: 6}
	}
	p, q := mk(), mk()
	seen := make(map[mode]bool)
	for i := 0; i < 40; i++ {
		m, n := p.draw(), q.draw()
		if m != n {
			t.Fatalf("draw %d: %v vs %v from one seed", i, m, n)
		}
		seen[m] = true
	}
	if p.Injected() != 6 || len(seen) < 3 {
		t.Fatalf("injected %d with modes %v, want the budget of 6 spent over several modes", p.Injected(), seen)
	}
}
