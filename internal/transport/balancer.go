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
// DefaultBreakerThreshold consecutive failures.
const (
	DefaultProbeInterval    = 500 * time.Millisecond
	DefaultBreakerThreshold = 3
)

// entryPolicy is the entry tier's schedule.
type entryPolicy struct {
	probeEvery time.Duration // health-probe cadence
	breakAfter int           // consecutive failures that eject a replica
}

// entry is the policy every balancer follows. Tests that must run it faster
// shrink it here; nothing else sets it.
var entry = entryPolicy{probeEvery: DefaultProbeInterval, breakAfter: DefaultBreakerThreshold}

// BalancerStats is a point-in-time snapshot of a Balancer's counters.
type BalancerStats struct {
	Replicas  int   // replica-set size
	Healthy   int   // replicas currently admitted by the breaker
	Submitted int64 // envelopes accepted fleet-wide through this balancer
	Failovers int64 // batches moved to another replica after a safe failure
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
// Batches round-robin over the healthy replicas; a replica that fails is
// retried elsewhere only when the failure is provably non-ingesting — its
// connection is down and would not redial, so nothing was sent, or the
// service held the batch past its bound and refused it as epoch-full — so a
// fleet with write-ahead logs can lose and recover replicas without ever
// counting a report twice. Ambiguous connection failures — the call died
// mid-flight — are retried against the same replica under the sender's
// redial policy, where the (stream, seq) dedup stamp absorbs a redelivery;
// if that budget exhausts, the error surfaces rather than risking a double
// ingest on a sibling.
//
// A half-open circuit breaker tracks per-replica consecutive failures:
// past the threshold the replica is ejected from rotation, and a background
// loop of probes, each one Stats call on the replica's own connection,
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
// Stats call, no retry, on the replica's connection — which redials a
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
				if st, err := r.cl.Stats(); err == nil && st.Healthy {
					b.noteSuccess(r)
				} else {
					b.noteFailure(r)
				}
			}
		}
	}
}

// Submit ships a batch across the replica set with failover; see Balancer
// for the safety rule. A replica accepts the batch whole or not at all.
//
// Each attempt submits the batch to the picked replica; a safe failure (a
// connection that would not redial, or epoch-full) moves it to the next
// replica, anything else surfaces. The failover budget is two full passes
// over the replica set, with a jittered pause between passes so a
// briefly-down fleet gets a beat to come back instead of burning the budget
// in microseconds.
func (b *Balancer) Submit(batch core.Batch) error {
	budget := 2 * len(b.replicas)
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 && attempt%len(b.replicas) == 0 {
			time.Sleep(redial.delay(attempt/len(b.replicas) - 1))
		}
		r := b.pick()
		if _, err := r.cl.conn(); err != nil {
			// The connection is down and the redial failed: nothing touched
			// the wire, so the batch is safe to take elsewhere.
			b.noteFailure(r)
			b.failovers.Add(1)
			lastErr = fmt.Errorf("dial %s: %w", r.cl.addr, err)
			continue
		}
		err := r.cl.Submit(batch)
		if err == nil {
			b.noteSuccess(r)
			b.submitted.Add(int64(batch.Len()))
			return nil
		}
		b.noteFailure(r)
		if !IsEpochFull(err) {
			// Ambiguous: the client's own stamped retries are exhausted and
			// the last attempt may have been ingested (a recovering WAL
			// would replay it). Failing over here could double-count, so
			// surface the error.
			return err
		}
		// The service held the batch past its bound and refused it without
		// ingesting it — safe to fail over to a less loaded replica.
		b.failovers.Add(1)
		lastErr = fmt.Errorf("%s: %w", r.cl.addr, err)
	}
	return fmt.Errorf("transport: balancer failover budget exhausted: %w", lastErr)
}
