package transport

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
)

// aborter lets a simulated crash (StageService.Abort) cut through the
// sender's retry sleeps and the engine's blocking hand-offs: everything that
// waits selects against the channel, so an abort stops the world in
// milliseconds instead of after a retry budget drains.
type aborter struct {
	once sync.Once
	ch   chan struct{}
}

func newAborter() *aborter { return &aborter{ch: make(chan struct{})} }

func (a *aborter) abort() { a.once.Do(func() { close(a.ch) }) }

func (a *aborter) aborted() bool {
	select {
	case <-a.ch:
		return true
	default:
		return false
	}
}

// sleep waits d, returning false if the abort fired first. A nil aborter —
// a client's connection — never fires.
func (a *aborter) sleep(d time.Duration) bool {
	var abort <-chan struct{}
	if a != nil {
		abort = a.ch
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-abort:
		return false
	}
}

// FaultPlan injects failures into a stage's downstream pushes on a seeded
// schedule, for crash-recovery testing (EpochConfig.Fault). Every attempt of
// the sender draws one fault mode from the plan's deterministic stream, below
// its retry loop — exactly where a flaky network would strike — so recovery
// is exercised by the code paths production runs. The plan is shared across
// redialed connections, so the schedule keeps advancing through reconnects.
// Every injected failure is a connection failure (IsTransient), which the
// sender retries like a real one. The modes mirror the failures a real chain
// sees:
//
//   - PError: the push is dropped — nothing delivered, an error returned
//     (a connection severed before the request landed);
//   - PDropAck: the push is delivered but the ack is lost — the upstream
//     retries and the receiver's (stream, epoch) dedup must absorb it;
//   - PDup: the push is delivered twice (a retransmit raced the ack);
//   - PDelay: the push is delayed by Delay before delivery.
//
// Fleet soaks add two whole-replica failures:
//
//   - PKill: the Kill hook is invoked (the harness crash-kills a replica
//     process) and the call fails — the balancer must fail over while the
//     victim's WAL recovery replays what it had accepted;
//   - PPartition: a partition window opens for PartitionFor — every call
//     through this plan fails fast until the window closes, without
//     consuming schedule draws, modeling a network partition rather than
//     independent per-call losses.
//
// MaxFaults bounds the total injections so a soak always makes progress.
type FaultPlan struct {
	Seed      int64
	PError    float64
	PDropAck  float64
	PDup      float64
	PDelay    float64
	Delay     time.Duration
	MaxFaults int // total injection budget; 0 means unlimited

	// Whole-replica failure injection for fleet soaks.
	PKill        float64       // probability a call kills the replica via Kill
	Kill         func()        // harness hook invoked on a drawn kill; nil ignores the draw
	PPartition   float64       // probability a call opens a partition window
	PartitionFor time.Duration // partition window length

	mu        sync.Mutex
	rng       *rand.Rand
	injected  int
	partUntil time.Time
}

type faultMode int

const (
	faultNone faultMode = iota
	faultError
	faultDropAck
	faultDup
	faultDelay
	faultKill
	faultPartition
)

// draw picks the next fault from the seeded stream, honoring the budget.
func (p *FaultPlan) draw() faultMode {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.Seed))
	}
	u := p.rng.Float64() // always consume one draw: the schedule is positional
	if p.MaxFaults > 0 && p.injected >= p.MaxFaults {
		return faultNone
	}
	var mode faultMode
	c := p.PError
	switch {
	case u < c:
		mode = faultError
	case u < c+p.PDropAck:
		mode = faultDropAck
	case u < c+p.PDropAck+p.PDup:
		mode = faultDup
	case u < c+p.PDropAck+p.PDup+p.PDelay:
		mode = faultDelay
	case u < c+p.PDropAck+p.PDup+p.PDelay+p.PKill:
		if p.Kill == nil {
			return faultNone
		}
		mode = faultKill
	case u < c+p.PDropAck+p.PDup+p.PDelay+p.PKill+p.PPartition:
		if p.PartitionFor <= 0 {
			return faultNone
		}
		mode = faultPartition
	default:
		return faultNone
	}
	p.injected++
	return mode
}

// partitioned reports whether a partition window is open. Checked before a
// draw, so a window blankets calls without consuming positional draws.
func (p *FaultPlan) partitioned() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.partUntil.IsZero() && time.Now().Before(p.partUntil)
}

// openPartition starts (or extends) the partition window.
func (p *FaultPlan) openPartition() {
	p.mu.Lock()
	p.partUntil = time.Now().Add(p.PartitionFor)
	p.mu.Unlock()
}

// invokeKill runs the Kill hook outside the plan lock (the hook typically
// aborts an engine, which must not re-enter the plan under its mutex).
func (p *FaultPlan) invokeKill() {
	p.mu.Lock()
	kill := p.Kill
	p.mu.Unlock()
	if kill != nil {
		kill()
	}
}

// Injected reports how many faults the plan has injected so far — tests use
// it to assert a soak actually exercised the failure paths.
func (p *FaultPlan) Injected() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

var (
	errInjectedDrop      = fmt.Errorf("transport: injected fault: push dropped: %w", io.ErrUnexpectedEOF)
	errInjectedAckLoss   = fmt.Errorf("transport: injected fault: ack dropped: %w", io.ErrUnexpectedEOF)
	errInjectedKill      = fmt.Errorf("transport: injected fault: replica killed: %w", io.ErrUnexpectedEOF)
	errInjectedPartition = fmt.Errorf("transport: injected fault: network partitioned: %w", io.ErrUnexpectedEOF)
)

// inject runs one attempt of a call under the plan, applying the one fault it
// draws; a nil plan makes the call as is.
func (p *FaultPlan) inject(call func() ([]byte, error)) ([]byte, error) {
	if p == nil {
		return call()
	}
	if p.partitioned() {
		return nil, errInjectedPartition
	}
	switch p.draw() {
	case faultKill:
		p.invokeKill()
		return nil, errInjectedKill
	case faultPartition:
		p.openPartition()
		return nil, errInjectedPartition
	case faultError:
		return nil, errInjectedDrop
	case faultDropAck:
		if _, err := call(); err != nil {
			return nil, err
		}
		return nil, errInjectedAckLoss
	case faultDup:
		if _, err := call(); err != nil {
			return nil, err
		}
	case faultDelay:
		time.Sleep(p.Delay)
	}
	return call()
}
