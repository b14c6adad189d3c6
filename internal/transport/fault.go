package transport

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"prochlo/internal/core"
)

// pusher is the one call the push sinks make on a connection: a Submit frame
// carrying an epoch, answered with the accepted count. Sinks dial through
// EpochConfig.dialPusher, which wraps the connection with the configured
// FaultPlan — fault injection sits below the retry/redial logic, exactly
// where a flaky network would, so the recovery machinery is exercised by the
// same code paths production runs.
type pusher interface {
	push(stream, epoch int64, b core.Batch) (accepted int, err error)
	close() error
}

// Redial policy (see EpochConfig.RedialAttempts/RedialBase): a dead
// downstream is redialed with exponential backoff, each delay spread by
// ±DefaultRedialJitter so a restarting hop is not hammered in lockstep by
// every upstream, and a budget so a permanently dead hop surfaces as a failed
// epoch instead of an unbounded stall.
const (
	DefaultRedialAttempts = 2
	DefaultRedialBase     = 200 * time.Millisecond
	DefaultRedialJitter   = 0.2
)

// redialPolicy is the resolved backoff schedule for one sink.
type redialPolicy struct {
	attempts int
	base     time.Duration
}

// redial resolves the config's redial knobs against the defaults (zero
// selects the default; a negative attempt count disables redialing).
func (cfg EpochConfig) redial() redialPolicy {
	p := redialPolicy{attempts: cfg.RedialAttempts, base: cfg.RedialBase}
	if p.attempts == 0 {
		p.attempts = DefaultRedialAttempts
	} else if p.attempts < 0 {
		p.attempts = 0
	}
	if p.base <= 0 {
		p.base = DefaultRedialBase
	}
	return p
}

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

// aborter lets a simulated crash (StageService.Abort) cut through the
// sinks' retry sleeps and the engine's blocking hand-offs: everything that
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

// sleep waits d, returning false if the abort fired first.
func (a *aborter) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-a.ch:
		return false
	}
}

// FaultPlan injects failures into a stage's downstream pushes on a seeded
// schedule, for crash-recovery testing (EpochConfig.Fault). Each push draws
// one fault mode from the plan's deterministic stream; the plan is shared
// across redialed connections so the schedule keeps advancing through
// reconnects. The modes mirror the failures a real chain sees:
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

// wrap decorates a dialed connection with the plan; a nil plan is a no-op.
func (p *FaultPlan) wrap(c pusher) pusher {
	if p == nil {
		return c
	}
	return &faultPusher{plan: p, c: c}
}

var errInjectedDrop = errors.New("transport: injected fault: push dropped")
var errInjectedAckLoss = errors.New("transport: injected fault: ack dropped")
var errInjectedKill = errors.New("transport: injected fault: replica killed")
var errInjectedPartition = errors.New("transport: injected fault: network partitioned")

// faultPusher applies one drawn fault per push.
type faultPusher struct {
	plan *FaultPlan
	c    pusher
}

func (f *faultPusher) push(stream, epoch int64, b core.Batch) (int, error) {
	if f.plan.partitioned() {
		return 0, errInjectedPartition
	}
	switch f.plan.draw() {
	case faultKill:
		f.plan.invokeKill()
		return 0, errInjectedKill
	case faultPartition:
		f.plan.openPartition()
		return 0, errInjectedPartition
	case faultError:
		return 0, errInjectedDrop
	case faultDropAck:
		if _, err := f.c.push(stream, epoch, b); err != nil {
			return 0, err
		}
		return 0, errInjectedAckLoss
	case faultDup:
		if _, err := f.c.push(stream, epoch, b); err != nil {
			return 0, err
		}
	case faultDelay:
		time.Sleep(f.plan.Delay)
	}
	return f.c.push(stream, epoch, b)
}

func (f *faultPusher) close() error { return f.c.close() }
