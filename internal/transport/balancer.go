package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/metrics"
)

// Balancer defaults; see BalancerConfig.
const (
	DefaultProbeInterval    = 500 * time.Millisecond
	DefaultBreakerThreshold = 3
)

// BalancerConfig tunes a Balancer. The zero value selects every default.
type BalancerConfig struct {
	// ProbeInterval is the health-probe cadence; 0 selects
	// DefaultProbeInterval, negative disables background probing (the
	// breaker then reopens only through submission successes).
	ProbeInterval time.Duration
	// BreakerThreshold is how many consecutive failures eject a replica;
	// 0 selects DefaultBreakerThreshold.
	BreakerThreshold int
	// Metrics, when non-nil, registers the balancer's health gauges and
	// failover counters (the prochlo_balancer_* series) on the given
	// registry; MetricsLabels is attached to every series.
	Metrics       *metrics.Registry
	MetricsLabels metrics.Labels
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
	addr string

	mu      sync.Mutex
	cl      *Client // lazily dialed; nil until the first successful dial
	fails   int     // consecutive failures feeding the breaker
	ejected bool    // breaker open: skipped by pick until a probe readmits
}

// Balancer spreads client submissions across a replica set of one
// shuffler-role hop — the chain's entry tier. Submission slices round-robin
// over the healthy replicas; a replica that fails is retried elsewhere only
// when the failure is provably non-ingesting (the dial never connected, or
// the service definitively rejected the slice as epoch-full), so a fleet
// with write-ahead logs can lose and recover replicas without ever counting
// a report twice. Ambiguous connection failures — the call died mid-flight —
// are retried against the same replica under the sender's redial policy,
// where the (stream, seq) dedup stamp absorbs a redelivery; if that budget
// exhausts, the error surfaces with the accepted-prefix contract intact
// rather than risking a double ingest on a sibling.
//
// A half-open circuit breaker tracks per-replica consecutive failures:
// past the threshold the replica is ejected from rotation, and a background
// Healthz probe loop readmits it once it answers healthy again. While some
// replicas are down the survivors absorb the full submission stream, so an
// epoch's anonymity floor is still reached (graceful degradation); if every
// replica is ejected the balancer still attempts one, preferring a doomed
// call over failing without trying.
type Balancer struct {
	replicas []*balancerReplica
	cfg      BalancerConfig
	rr       atomic.Int64 // round-robin cursor

	submitted atomic.Int64
	failovers atomic.Int64
	ejections atomic.Int64
	readmits  atomic.Int64
	probes    atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
}

// NewBalancer builds a balancer over the replica addresses and starts its
// probe loop. Replicas are dialed lazily, so the fleet may still be coming
// up when the balancer is created.
func NewBalancer(addrs []string, cfg BalancerConfig) (*Balancer, error) {
	if len(addrs) == 0 {
		return nil, errors.New("transport: balancer needs at least one replica address")
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	b := &Balancer{cfg: cfg, stop: make(chan struct{})}
	for _, a := range addrs {
		b.replicas = append(b.replicas, &balancerReplica{addr: a})
	}
	b.registerMetrics()
	interval := cfg.ProbeInterval
	if interval == 0 {
		interval = DefaultProbeInterval
	}
	if interval > 0 {
		go b.probeLoop(interval)
	}
	return b, nil
}

// Addrs returns the replica addresses in rotation order.
func (b *Balancer) Addrs() []string {
	out := make([]string, len(b.replicas))
	for i, r := range b.replicas {
		out[i] = r.addr
	}
	return out
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

// Close stops the probe loop and releases every dialed replica connection.
func (b *Balancer) Close() error {
	b.stopOnce.Do(func() { close(b.stop) })
	var first error
	for _, r := range b.replicas {
		r.mu.Lock()
		cl := r.cl
		r.cl = nil
		r.mu.Unlock()
		if cl != nil {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// client returns the replica's lazily-dialed client.
func (r *balancerReplica) client() (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cl != nil {
		return r.cl, nil
	}
	cl, err := Dial(r.addr)
	if err != nil {
		return nil, err
	}
	r.cl = cl
	return cl, nil
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
	if !r.ejected && r.fails >= b.cfg.BreakerThreshold {
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

// probeLoop probes every replica each interval until Close.
func (b *Balancer) probeLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			for _, r := range b.replicas {
				b.probes.Add(1)
				if b.probe(r) {
					b.noteSuccess(r)
				} else {
					b.noteFailure(r)
				}
			}
		}
	}
}

// probe issues one Healthz on a fresh throwaway connection, so a wedged
// submission client can never make a healthy replica look dead and the
// probe never disturbs an in-flight submission's connection.
func (b *Balancer) probe(r *balancerReplica) bool {
	p, err := dialPeer(r.addr, nil, nil)
	if err != nil {
		return false
	}
	defer p.Close()
	h, err := p.Healthz()
	return err == nil && h.Healthy
}

// SubmitAll ships a batch across the replica set with failover; see
// Balancer for the safety rule. It returns how many envelopes the fleet
// accepted; as with Client.SubmitAll, the accepted envelopes are exactly
// the prefix batch.Slice(0, accepted).
//
// Each attempt submits the unaccepted suffix to the picked replica; a safe
// failure (dial error or epoch-full) moves the suffix to the next replica,
// anything else surfaces. The failover budget is two full passes over the
// replica set, with a jittered pause between passes so a briefly-down fleet
// gets a beat to come back instead of burning the budget in microseconds.
func (b *Balancer) SubmitAll(batch core.Batch, retries int, delay time.Duration) (int, error) {
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
		cl, err := r.client()
		if err != nil {
			// The dial never connected: nothing touched the wire, so the
			// suffix is safe to take elsewhere.
			b.noteFailure(r)
			b.failovers.Add(1)
			lastErr = fmt.Errorf("dial %s: %w", r.addr, err)
			continue
		}
		n, err := cl.SubmitAll(batch.Slice(accepted, total), retries, delay)
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
			lastErr = fmt.Errorf("%s: %w", r.addr, err)
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
