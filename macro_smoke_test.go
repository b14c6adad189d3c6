package prochlo_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"prochlo"
	"prochlo/internal/load"
	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

// scrape renders a registry as text.
func scrape(tb testing.TB, reg *metrics.Registry) string {
	tb.Helper()
	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

// series sums every sample of one family across its label sets, or across
// those that carry every label given (as `role="analyzer"`).
func sumSeries(tb testing.TB, scrape, family string, labels ...string) float64 {
	tb.Helper()
	var total float64
	found := false
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		if !hasAll(line, labels) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			tb.Fatalf("parse %q: %v", line, err)
		}
		total += v
		found = true
	}
	if !found {
		tb.Fatalf("family %q not found in scrape", family)
	}
	return total
}

func hasAll(line string, labels []string) bool {
	for _, l := range labels {
		if !strings.Contains(line, l) {
			return false
		}
	}
	return true
}

// TestMacroLoadSmoke is the seeded macro acceptance run (the CI macro
// smoke): a 2x2x2 loopback fleet under the load harness, a mid-run scrape
// showing live occupancy and balancer health, and a drain barrier with
// Unaccounted == 0 and exact record delivery. FlushAt is set above the
// offered load so the mid-run occupancy check is deterministic, then the
// drain flushes everything.
func TestMacroLoadSmoke(t *testing.T) {
	const (
		clients   = 2
		batchesN  = 3
		batchSize = 50
		total     = clients * batchesN * batchSize
	)
	// The deployment cmd/prochloload spins up with -loopback 2x2x2
	// -metrics-addr, every party on one registry — but with no crowd
	// threshold: the smoke pins exact end-to-end record accounting, so every
	// accepted report must reach an analyzer.
	reg := metrics.NewRegistry()
	epochs := transport.EpochConfig{FlushAt: total * 10}
	f := startFleet(t, chainTiers(2, epochs, epochs), shuffler.Params{MinBatch: 1}, reg)
	rp := dialFleet(t, f, prochlo.WithRemoteMetrics(reg, map[string]string{"tier": "entry"}))

	res, err := load.Run(rp, load.Config{
		Clients: clients, Batches: batchesN, BatchSize: batchSize,
		Seed: 11, Values: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports != total {
		t.Fatalf("measured reports = %d, want %d", res.Reports, total)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.P50Ms <= 0 || res.MaxMs < res.P99Ms || res.Throughput <= 0 {
		t.Fatalf("implausible measurement %+v", res)
	}

	// Mid-run scrape: the load is submitted but nothing has auto-flushed
	// (FlushAt is above the offered total), so the entry tier's epoch
	// occupancy is the whole offered load and both balancer replicas are
	// healthy.
	mid := scrape(t, reg)
	if occ := sumSeries(t, mid, "prochlo_epoch_occupancy"); occ != total {
		t.Errorf("mid-run occupancy = %v, want %d", occ, total)
	}
	if h := sumSeries(t, mid, "prochlo_balancer_healthy_replicas"); h != 2 {
		t.Errorf("healthy replicas = %v, want 2", h)
	}
	if q := sumSeries(t, mid, "prochlo_epochs_in_flight"); q != 0 {
		t.Errorf("in-flight before drain = %v, want 0", q)
	}

	// Drain barrier: everything flushes, every replica reconciles. Flush
	// then asks each analyzer partition for its histogram, which it answers
	// once it has folded every batch it acked.
	tiers, err := rp.DrainAll(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Flush(); err != nil {
		t.Fatal(err)
	}
	for ti, tier := range tiers {
		for ri, s := range tier {
			if s.Unaccounted != 0 {
				t.Errorf("tier %d replica %d: Unaccounted = %d", ti, ri, s.Unaccounted)
			}
		}
	}
	end := scrape(t, reg)
	if occ := sumSeries(t, end, "prochlo_epoch_occupancy"); occ != 0 {
		t.Errorf("post-drain occupancy = %v, want 0", occ)
	}
	if u := sumSeries(t, end, "prochlo_unaccounted_reports"); u != 0 {
		t.Errorf("post-drain unaccounted = %v, want 0", u)
	}
	if fl := sumSeries(t, end, "prochlo_epochs_flushed_total"); fl <= 0 {
		t.Errorf("epochs flushed = %v, want > 0", fl)
	}
	// With no crowd threshold, exactly the offered reports materialize
	// across the analyzer partitions.
	if rec := sumSeries(t, end, "prochlo_stage_forwarded_total", `role="analyzer"`); rec != total {
		t.Errorf("analyzer records = %v, want %d", rec, total)
	}
}
