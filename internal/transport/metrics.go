package transport

import (
	"time"

	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
)

// Instrumentation for the stage engine, WAL, and balancer. Everything here
// is scrape-driven: the engine's existing atomic counters are exported
// through CounterFunc/GaugeFunc callbacks evaluated at scrape time, so the
// ingest hot path pays nothing for observability. The only event-time
// instruments are the three latency histograms (stage process, downstream
// push, WAL fsync), each observed once per epoch or per fsync — never per
// report. The full catalog, with per-series meaning and alerting hints,
// lives in docs/OPERATIONS.md.

// registerMetrics exports the engine's counters on cfg.Metrics. Called
// before the scheduler and flusher goroutines start, so instrument fields
// are plain writes. The callbacks take e.mu only for the counters that
// already live under it, and that lock is never held across blocking
// operations (pushes, WAL writes, channel sends), so a scrape can never
// deadlock against a drain — pinned by TestScrapeDuringDrain.
func (e *engine) registerMetrics() {
	reg := e.cfg.Metrics
	if reg == nil {
		return
	}
	l := e.cfg.MetricsLabels
	reg.GaugeFunc("prochlo_epoch_occupancy", "Reports accepted into the current uncut epoch.", l,
		func() float64 { return float64(e.occupancy.Load()) })
	reg.GaugeFunc("prochlo_epochs_in_flight", "Cut epochs queued for or undergoing flush (processing + downstream push).", l,
		func() float64 {
			e.mu.Lock()
			q := e.queuedEpochs
			e.mu.Unlock()
			return float64(q)
		})
	reg.CounterFunc("prochlo_reports_accepted_total", "Reports accepted into an epoch (acked to the submitter).", l,
		func() float64 { return float64(e.accepted.Load()) })
	reg.CounterFunc("prochlo_reports_rejected_total", "Reports refused: held past the bound (epoch-full), or by a failed admission or WAL write.", l,
		func() float64 { return float64(e.rejected.Load()) })
	reg.CounterFunc("prochlo_reports_dropped_total", "Reports permanently dropped (failed epochs, below-floor final drains).", l,
		func() float64 { return float64(e.dropped.Load()) })
	reg.CounterFunc("prochlo_epochs_flushed_total", "Epochs processed and acked downstream.", l,
		func() float64 {
			e.mu.Lock()
			n := e.epochsFlushed
			e.mu.Unlock()
			return float64(n)
		})
	reg.CounterFunc("prochlo_epochs_failed_total", "Epochs that permanently failed processing or push.", l,
		func() float64 {
			e.mu.Lock()
			n := e.epochsFailed
			e.mu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("prochlo_unaccounted_reports", "Reconciliation residue: accepted - received - dropped - pending, computed only when no epoch is in flight. Nonzero at a drain barrier means the accounting leaks.", l,
		func() float64 {
			e.mu.Lock()
			q := e.queuedEpochs
			received := e.cum.Received
			e.mu.Unlock()
			if q != 0 {
				return 0
			}
			return float64(e.accepted.Load() - int64(received) - e.dropped.Load() - e.occupancy.Load())
		})
	// The stage's cumulative selectivity, the Stats RPC's Cumulative.
	for _, c := range []struct {
		name, help string
		field      func(*shuffler.Stats) int
	}{
		{"prochlo_stage_received_total", "Reports the stage function was handed.", func(s *shuffler.Stats) int { return s.Received }},
		{"prochlo_stage_undecryptable_total", "Reports the stage dropped as malformed (the analyzer: records its key failed to open).", func(s *shuffler.Stats) int { return s.Undecryptable }},
		{"prochlo_stage_forwarded_total", "Reports the stage forwarded downstream (the analyzer: records counted in its histogram).", func(s *shuffler.Stats) int { return s.Forwarded }},
		{"prochlo_stage_crowds_total", "Crowds seen, summed over epochs.", func(s *shuffler.Stats) int { return s.Crowds }},
		{"prochlo_stage_crowds_forwarded_total", "Crowds that survived the threshold, summed over epochs.", func(s *shuffler.Stats) int { return s.CrowdsForwarded }},
	} {
		reg.CounterFunc(c.name, c.help, l, func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(c.field(&e.cum))
		})
	}
	reg.CounterFunc("prochlo_push_redials_total", "Connections to the downstream tier redialed after one broke (the first dial of each replica excluded).", l,
		func() float64 {
			n := 0
			for _, h := range e.next {
				if p, ok := h.(*peerConn); ok {
					n += p.Dials() - 1
				}
			}
			return float64(n)
		})
	e.dedup.registerMetrics(reg, l)
	reg.GaugeFunc("prochlo_wal_recovered_reports", "Reports recovered from the WAL at the last restart.", l,
		func() float64 { return float64(e.recItems) })
	reg.GaugeFunc("prochlo_wal_recovered_epochs", "Cut-but-unresolved epochs recovered from the WAL at the last restart.", l,
		func() float64 { return float64(e.recEpochs) })
	e.admitSeconds = reg.Histogram("prochlo_stage_admit_seconds",
		"Latency of the stage's per-report work on one arriving batch (shuffler1: the blinding), before the epoch is cut.", l, metrics.DefBuckets)
	e.procSeconds = reg.Histogram("prochlo_stage_process_seconds",
		"Latency of running the stage function over one epoch.", l, metrics.DefBuckets)
	e.pushSeconds = reg.Histogram("prochlo_stage_push_seconds",
		"Latency of pushing one processed epoch downstream (includes redials and the next hop holding it for room).", l, metrics.DefBuckets)
	if e.wal != nil {
		e.wal.attachMetrics(reg, l)
	}
}

// attachMetrics wires the WAL's instruments. Called once before the engine
// goroutines start, so the plain field writes cannot race appends.
func (w *wal) attachMetrics(reg *metrics.Registry, l metrics.Labels) {
	if reg == nil {
		return
	}
	w.appendRecords = reg.Counter("prochlo_wal_append_records_total",
		"Reports appended to the write-ahead log.", l)
	w.fsync = reg.Histogram("prochlo_wal_fsync_seconds",
		"Latency of one WAL record sync (fdatasync on Linux).", l, metrics.FsyncBuckets)
}

// registerMetrics exports the balancer's counters on reg. The
// healthy-replica gauge reads Stats, whose replica locks the balancer never
// holds across calls, so scrapes stay non-blocking.
func (b *Balancer) registerMetrics(reg *metrics.Registry, l metrics.Labels) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("prochlo_balancer_replicas", "Size of the entry-hop replica set.", l,
		func() float64 { return float64(len(b.replicas)) })
	reg.GaugeFunc("prochlo_balancer_healthy_replicas", "Replicas currently admitted by the circuit breaker.", l,
		func() float64 { return float64(b.Stats().Healthy) })
	reg.CounterFunc("prochlo_balancer_submitted_total", "Envelopes accepted fleet-wide through this balancer.", l,
		func() float64 { return float64(b.submitted.Load()) })
	reg.CounterFunc("prochlo_balancer_failovers_total", "Batches moved to another replica after a provably-unsubmitted failure.", l,
		func() float64 { return float64(b.failovers.Load()) })
	reg.CounterFunc("prochlo_balancer_ejections_total", "Circuit-breaker ejections.", l,
		func() float64 { return float64(b.ejections.Load()) })
	reg.CounterFunc("prochlo_balancer_readmits_total", "Replicas readmitted into rotation by a probe or submission success.", l,
		func() float64 { return float64(b.readmits.Load()) })
	reg.CounterFunc("prochlo_balancer_probes_total", "Stats probes issued to entry-tier replicas.", l,
		func() float64 { return float64(b.probes.Load()) })
}

// registerMetrics exports what dedup holds and absorbs: one callback over
// the stream map and one over the replay counter, which only the replay
// branch of ingest touches.
func (d *forwardDedup) registerMetrics(reg *metrics.Registry, l metrics.Labels) {
	reg.GaugeFunc("prochlo_dedup_streams", "Sender streams dedup holds a last position for.", l,
		func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(len(d.streams))
		})
	reg.CounterFunc("prochlo_dedup_replays_total", "Stamped submissions acked as replays without ingesting (a position at or below its stream's last).", l,
		func() float64 { return float64(d.replays.Load()) })
}

// observeSeconds records the elapsed time since start on h; both the nil
// histogram and the zero start (instrumentation disabled) are no-ops.
func observeSeconds(h *metrics.Histogram, start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.Observe(time.Since(start).Seconds())
}
