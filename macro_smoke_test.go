package prochlo_test

import (
	"bytes"
	crand "crypto/rand"
	"strconv"
	"strings"
	"testing"

	"prochlo"
	"prochlo/internal/analyzer"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/load"
	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
	"prochlo/internal/workload"
)

// metricsFleetRig is a 2x2x2 blinded-chain fleet with every service
// registered on one metrics registry — the deployment shape cmd/prochloload
// spins up with -loopback 2x2x2 -metrics-addr.
type metricsFleetRig struct {
	s1Addrs, s2Addrs, anlzAddrs []string
	reg                         *metrics.Registry
}

func newMetricsFleetRig(tb testing.TB, flushAt int) *metricsFleetRig {
	tb.Helper()
	rig := &metricsFleetRig{reg: metrics.NewRegistry()}
	cfg := func(role string, i int) transport.EpochConfig {
		return transport.EpochConfig{
			FlushAt: flushAt,
			Metrics: rig.reg,
			MetricsLabels: metrics.Labels{
				"role": role, "replica": strconv.Itoa(i),
			},
		}
	}
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		svc := transport.NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv}, anlzPriv.Public().Bytes())
		svc.RegisterMetrics(rig.reg, metrics.Labels{"role": "analyzer", "replica": strconv.Itoa(i)})
		l, err := transport.Serve("127.0.0.1:0", svc)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { l.Close() })
		rig.anlzAddrs = append(rig.anlzAddrs, l.Addr().String())
	}
	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		tb.Fatal(err)
	}
	s2Priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		// No crowd threshold: the smoke pins exact end-to-end record
		// accounting, so every accepted report must reach an analyzer.
		s2 := &shuffler.Shuffler2{
			Blinding: blindKP, Priv: s2Priv,
			Rand: workload.NewRand(uint64(60 + i)), MinBatch: 1,
		}
		svc, err := newShuffler2Service(s2, rig.anlzAddrs, cfg("shuffler2", i))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { svc.Close() })
		l, err := transport.Serve("127.0.0.1:0", svc)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { l.Close() })
		rig.s2Addrs = append(rig.s2Addrs, l.Addr().String())
	}
	for i := 0; i < 2; i++ {
		s1, err := shuffler.NewShuffler1(workload.NewRand(uint64(70 + i)))
		if err != nil {
			tb.Fatal(err)
		}
		s1.MinBatch = 1
		svc, err := newShuffler1Service(s1, rig.s2Addrs, cfg("shuffler1", i))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { svc.Close() })
		l, err := transport.Serve("127.0.0.1:0", svc)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { l.Close() })
		rig.s1Addrs = append(rig.s1Addrs, l.Addr().String())
	}
	return rig
}

// scrape renders the rig's registry as text.
func (r *metricsFleetRig) scrape(tb testing.TB) string {
	tb.Helper()
	var b bytes.Buffer
	if _, err := r.reg.WriteTo(&b); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

// series sums every sample of one family across its label sets.
func sumSeries(tb testing.TB, scrape, family string) float64 {
	tb.Helper()
	var total float64
	found := false
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
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
	rig := newMetricsFleetRig(t, total*10)
	rp, err := prochlo.DialRemoteChainFleet(rig.s1Addrs, rig.s2Addrs, rig.anlzAddrs,
		prochlo.WithRemoteMetrics(rig.reg, map[string]string{"tier": "entry"}))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

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
	mid := rig.scrape(t)
	if occ := sumSeries(t, mid, "prochlo_epoch_occupancy"); occ != total {
		t.Errorf("mid-run occupancy = %v, want %d", occ, total)
	}
	if h := sumSeries(t, mid, "prochlo_balancer_healthy_replicas"); h != 2 {
		t.Errorf("healthy replicas = %v, want 2", h)
	}
	if q := sumSeries(t, mid, "prochlo_epochs_in_flight"); q != 0 {
		t.Errorf("in-flight before drain = %v, want 0", q)
	}

	// Drain barrier: everything flushes, every replica reconciles.
	tiers, err := rp.DrainAll(false)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tier := range tiers {
		for ri, s := range tier {
			if s.Unaccounted != 0 {
				t.Errorf("tier %d replica %d: Unaccounted = %d", ti, ri, s.Unaccounted)
			}
		}
	}
	end := rig.scrape(t)
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
	if rec := sumSeries(t, end, "prochlo_analyzer_records"); rec != total {
		t.Errorf("analyzer records = %v, want %d", rec, total)
	}
}
