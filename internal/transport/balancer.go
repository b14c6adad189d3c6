package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/metrics"
)

// The entry tier's policy, one for every pipeline: a balancer probes each
// replica every DefaultProbeInterval and ejects it after
// DefaultBreakerThreshold consecutive failures, and SubmitAll resubmits an
// epoch-full envelope up to DefaultSubmitRetries times, DefaultSubmitDelay
// apart (about 1 s), before the error surfaces.
const (
	DefaultProbeInterval    = 500 * time.Millisecond
	DefaultBreakerThreshold = 3
	DefaultSubmitRetries    = 50
	DefaultSubmitDelay      = 20 * time.Millisecond
)

// entryPolicy is the entry tier's schedule.
type entryPolicy struct {
	probeEvery  time.Duration // health-probe cadence
	breakAfter  int           // consecutive failures that eject a replica
	fullRetries int           // epoch-full resubmissions of one envelope
	fullDelay   time.Duration // pause before each of them
}

// entry is the policy every balancer and SubmitAll follows. Tests that must
// run it faster shrink it here; nothing else sets it.
var entry = entryPolicy{
	probeEvery:  DefaultProbeInterval,
	breakAfter:  DefaultBreakerThreshold,
	fullRetries: DefaultSubmitRetries,
	fullDelay:   DefaultSubmitDelay,
}

// BalancerStats is a point-in-time snapshot of a Balancer's counters.
type BalancerStats struct {
	Replicas  int   // replica-set size
	Healthy   int   // replicas currently admitted by the breaker
	Submitted int64 // envelopes accepted fleet-wide through this balancer
	Failovers int64 // slices moved to another replica after a safe failure
	Ejections int64 // circuit-breaker ejections
	Readmits  int64 // recoveries back into rotation (probe or submit success)
	Probes    int64 // health probes issued
}

// balancerReplica is one member of the replica set.
type balancerReplica struct {
	cl *Client

	mu      sync.Mutex
	fails   int  // consecutive failures feeding the breaker
	ejected bool // breaker open: skipped by pick until a probe readmits
}

// Balancer spreads client submissions across the entry tier's replicas —
// the connections its owner already dialed; it dials and closes nothing.
// Submission slices round-robin over the healthy replicas; a replica that
// fails is retried elsewhere only when the failure is provably
// non-ingesting — its connection is down and would not redial, so nothing
// was sent, or the service definitively rejected the slice as epoch-full —
// so a fleet with write-ahead logs can lose and recover replicas without
// ever counting a report twice. Ambiguous connection failures — the call
// died mid-flight — are retried against the same replica under the
// sender's redial policy, where the (stream, seq) dedup stamp absorbs a
// redelivery; if that budget exhausts, the error surfaces with the
// accepted-prefix contract intact rather than risking a double ingest on a
// sibling.
//
// A half-open circuit breaker tracks per-replica consecutive failures:
// past the threshold the replica is ejected from rotation, and a background
// loop of Healthz probes, each one call on the replica's own connection,
// readmits it once it answers healthy again. While some replicas are down
// the survivors absorb the full submission stream, so an epoch's anonymity
// floor is still reached (graceful degradation); if every replica is
// ejected the balancer still attempts one, preferring a doomed call over
// failing without trying.
type Balancer struct {
	replicas []*balancerReplica
	rr       atomic.Int64 // round-robin cursor

	submitted atomic.Int64
	failovers atomic.Int64
	ejections atomic.Int64
	readmits  atomic.Int64
	probes    atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{} // closed when the probe loop has exited
}

// NewBalancer builds a balancer over the entry tier's clients, registers
// its prochlo_balancer_* series on reg (nil registers nothing) with labels,
// and starts its probe loop. The caller keeps the clients: it closes them
// after Close.
func NewBalancer(clients []*Client, reg *metrics.Registry, labels metrics.Labels) *Balancer {
	b := &Balancer{stop: make(chan struct{}), done: make(chan struct{})}
	for _, cl := range clients {
		b.replicas = append(b.replicas, &balancerReplica{cl: cl})
	}
	b.registerMetrics(reg, labels)
	go b.probeLoop()
	return b
}

// Stats snapshots the balancer's counters.
func (b *Balancer) Stats() BalancerStats {
	s := BalancerStats{
		Replicas:  len(b.replicas),
		Submitted: b.submitted.Load(),
		Failovers: b.failovers.Load(),
		Ejections: b.ejections.Load(),
		Readmits:  b.readmits.Load(),
		Probes:    b.probes.Load(),
	}
	for _, r := range b.replicas {
		r.mu.Lock()
		if !r.ejected {
			s.Healthy++
		}
		r.mu.Unlock()
	}
	return s
}

// Close stops the probe loop and returns once it has exited.
func (b *Balancer) Close() {
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.done
}

// pick returns the next replica in round-robin order, skipping ejected
// ones. With every replica ejected it returns the cursor's replica anyway:
// trying a probably-dead replica beats failing without an attempt, and a
// success readmits it.
func (b *Balancer) pick() *balancerReplica {
	n := len(b.replicas)
	start := int(b.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		r := b.replicas[(start+i)%n]
		r.mu.Lock()
		ejected := r.ejected
		r.mu.Unlock()
		if !ejected {
			return r
		}
	}
	return b.replicas[start]
}

// noteFailure feeds the breaker: past the threshold of consecutive failures
// the replica is ejected from rotation.
func (b *Balancer) noteFailure(r *balancerReplica) {
	r.mu.Lock()
	r.fails++
	if !r.ejected && r.fails >= entry.breakAfter {
		r.ejected = true
		b.ejections.Add(1)
	}
	r.mu.Unlock()
}

// noteSuccess closes the breaker: the failure streak resets and an ejected
// replica rejoins the rotation.
func (b *Balancer) noteSuccess(r *balancerReplica) {
	r.mu.Lock()
	r.fails = 0
	if r.ejected {
		r.ejected = false
		b.readmits.Add(1)
	}
	r.mu.Unlock()
}

// probeLoop probes every replica each interval until Close. A probe is one
// Healthz call, no retry, on the replica's connection — which redials a
// broken one, so a restarted replica is found where it was lost.
func (b *Balancer) probeLoop() {
	defer close(b.done)
	t := time.NewTicker(entry.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			for _, r := range b.replicas {
				b.probes.Add(1)
				if h, err := r.cl.Healthz(); err == nil && h.Healthy {
					b.noteSuccess(r)
				} else {
					b.noteFailure(r)
				}
			}
		}
	}
}

// SubmitAll ships a batch across the replica set with failover; see
// Balancer for the safety rule. It returns how many envelopes the fleet
// accepted; as with Client.SubmitAll, the accepted envelopes are exactly
// the prefix batch.Slice(0, accepted).
//
// Each attempt submits the unaccepted suffix to the picked replica; a safe
// failure (a connection that would not redial, or epoch-full) moves the
// suffix to the next replica, anything else surfaces. The failover budget is
// two full passes over the replica set, with a jittered pause between passes
// so a briefly-down fleet gets a beat to come back instead of burning the
// budget in microseconds.
func (b *Balancer) SubmitAll(batch core.Batch) (int, error) {
	accepted, total := 0, batch.Len()
	budget := 2 * len(b.replicas)
	var lastErr error
	for attempt := 0; accepted < total; attempt++ {
		if attempt >= budget {
			return accepted, fmt.Errorf("transport: balancer failover budget exhausted: %w", lastErr)
		}
		if attempt > 0 && attempt%len(b.replicas) == 0 {
			time.Sleep(redial.delay(attempt/len(b.replicas) - 1))
		}
		r := b.pick()
		if _, err := r.cl.conn(); err != nil {
			// The connection is down and the redial failed: nothing touched
			// the wire, so the suffix is safe to take elsewhere.
			b.noteFailure(r)
			b.failovers.Add(1)
			lastErr = fmt.Errorf("dial %s: %w", r.cl.addr, err)
			continue
		}
		n, err := r.cl.SubmitAll(batch.Slice(accepted, total))
		accepted += n
		b.submitted.Add(int64(n))
		if err == nil {
			b.noteSuccess(r)
			continue
		}
		if IsEpochFull(err) {
			// The service definitively rejected the slice without ingesting
			// it — safe to fail the suffix over to a less loaded replica.
			b.noteFailure(r)
			b.failovers.Add(1)
			lastErr = fmt.Errorf("%s: %w", r.cl.addr, err)
			continue
		}
		// Ambiguous: the client's own stamped retries are exhausted and the
		// last attempt may have been ingested (a recovering WAL would replay
		// it). Failing over here could double-count, so surface the error;
		// the accepted prefix remains exact.
		b.noteFailure(r)
		return accepted, err
	}
	return accepted, nil
}
