package transport

import (
	"bytes"
	crand "crypto/rand"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/faultnet"
	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
)

// metricValue extracts one sample value from a text-format scrape.
func metricValue(t *testing.T, scrape, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in scrape:\n%s", series, scrape)
	return 0
}

// TestScrapeDuringDrain hammers the registry with concurrent scrapes while
// a WAL-backed streaming service ingests and drains: the scrape callbacks
// take engine locks, so this pins that a scrape can never deadlock against
// a cut, flush, or drain barrier (run under -race it is also the wiring's
// thread-safety proof). The final scrape must satisfy the reconciliation
// invariant and show the WAL instruments alive.
func TestScrapeDuringDrain(t *testing.T) {
	reg := metrics.NewRegistry()
	rig := newStreamingRig(t, EpochConfig{
		FlushAt:       40,
		Interval:      50 * time.Millisecond,
		WALDir:        t.TempDir(),
		Metrics:       reg,
		MetricsLabels: metrics.Labels{"role": "shuffler"},
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := reg.WriteTo(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}
	}()

	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const total = 200
	for sent := 0; sent < total; sent += 20 {
		batch := make([]core.Envelope, 20)
		for i := range batch {
			batch[i] = rig.envelope(t, "c:scrape", "scrape-value")
		}
		if err := cl.Submit(core.Batch{Envelopes: batch}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cl.Drain(false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Unaccounted != 0 {
		t.Fatalf("Unaccounted = %d after drain", stats.Unaccounted)
	}
	close(stop)
	wg.Wait()

	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	if v := metricValue(t, s, `prochlo_reports_accepted_total{role="shuffler"}`); v != total {
		t.Errorf("accepted = %v, want %d", v, total)
	}
	if v := metricValue(t, s, `prochlo_unaccounted_reports{role="shuffler"}`); v != 0 {
		t.Errorf("unaccounted = %v, want 0", v)
	}
	if v := metricValue(t, s, `prochlo_epoch_occupancy{role="shuffler"}`); v != 0 {
		t.Errorf("occupancy after drain = %v, want 0", v)
	}
	if v := metricValue(t, s, `prochlo_wal_fsync_seconds_count{role="shuffler"}`); v <= 0 {
		t.Errorf("wal fsync count = %v, want > 0", v)
	}
	if v := metricValue(t, s, `prochlo_wal_append_records_total{role="shuffler"}`); v != total {
		t.Errorf("wal append records = %v, want %d", v, total)
	}
	if v := metricValue(t, s, `prochlo_stage_process_seconds_count{role="shuffler"}`); v <= 0 {
		t.Errorf("process histogram count = %v, want > 0", v)
	}
	if v := metricValue(t, s, `prochlo_stage_admit_seconds_count{role="shuffler"}`); v != total/20 {
		t.Errorf("admit histogram count = %v, want one per submitted batch, %d", v, total/20)
	}
}

// TestBalancerMetrics pins the balancer's scrape series: replica-set and
// healthy gauges plus the submitted counter, exported through the registry
// handed to NewBalancer.
func TestBalancerMetrics(t *testing.T) {
	useEntryPolicy(t, noProbes())
	reg := metrics.NewRegistry()
	rig := newStreamingRig(t, EpochConfig{FlushAt: 8})
	bal := balance(t, reg, metrics.Labels{"tier": "shuffler1"}, dialed(t, rig.shuf))

	envs := make([]core.Envelope, 8)
	for i := range envs {
		envs[i] = rig.envelope(t, "c:bal", "bal-value")
	}
	if err := bal.Submit(core.Batch{Envelopes: envs}); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	if v := metricValue(t, s, `prochlo_balancer_replicas{tier="shuffler1"}`); v != 1 {
		t.Errorf("replicas = %v, want 1", v)
	}
	if v := metricValue(t, s, `prochlo_balancer_healthy_replicas{tier="shuffler1"}`); v != 1 {
		t.Errorf("healthy = %v, want 1", v)
	}
	if v := metricValue(t, s, `prochlo_balancer_submitted_total{tier="shuffler1"}`); v != 8 {
		t.Errorf("submitted = %v, want 8", v)
	}
}

// TestAnalyzerMetrics pins the analyzer's scrape series — the engine's and
// the stage's, under role="analyzer", as at every other party — against its
// Stats counters after a drained push of ten sealed records and one that
// does not open.
func TestAnalyzerMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shuffler.NewStage("analyzer", shuffler.Secrets{Priv: priv}, shuffler.Params{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewStageService(st, nil, EpochConfig{Metrics: reg, MetricsLabels: metrics.Labels{"role": "analyzer"}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	records := [][]byte{[]byte("not a ciphertext")}
	for i := 0; i < 10; i++ {
		sealed, err := hybrid.Seal(crand.Reader, priv.Public(), []byte("anlz-value"), nil)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, sealed)
	}
	if _, err := svc.Submit(1, 1, core.Batch{Payloads: records}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Histogram(); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	stats := svc.Stats()
	for _, c := range []struct {
		series string
		want   int64
	}{
		{`prochlo_reports_accepted_total{role="analyzer"}`, 11},
		{`prochlo_stage_received_total{role="analyzer"}`, int64(stats.Cumulative.Received)},
		{`prochlo_stage_forwarded_total{role="analyzer"}`, 10},
		{`prochlo_stage_undecryptable_total{role="analyzer"}`, 1},
		{`prochlo_epochs_flushed_total{role="analyzer"}`, int64(stats.EpochsFlushed)},
		{`prochlo_epoch_occupancy{role="analyzer"}`, 0},
	} {
		if v := metricValue(t, s, c.series); v != float64(c.want) {
			t.Errorf("%s = %v, want %d", c.series, v, c.want)
		}
	}
	if stats.EpochsFlushed != 1 || stats.Cumulative.Forwarded != 10 || stats.Cumulative.Undecryptable != 1 {
		t.Errorf("stats = %+v, want one epoch of 10 records counted and 1 undecryptable", stats)
	}
}

// TestStageSelectivityMetrics pins the stage's cumulative selectivity series
// against a drained epoch of known content — eight reports of one crowd, one
// of another, one whose outer layer does not open — and against the
// Cumulative stats the Drain RPC returns.
func TestStageSelectivityMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	rig := newStreamingRig(t, EpochConfig{FlushAt: 10, Metrics: reg, MetricsLabels: metrics.Labels{"role": "shuffler"}})
	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	batch := make([]core.Envelope, 10)
	for i := range batch {
		batch[i] = rig.envelope(t, "c:sel", "sel-value")
	}
	batch[8] = rig.envelope(t, "c:other", "sel-value")
	batch[9].Blob[len(batch[9].Blob)-1] ^= 1
	if err := cl.Submit(core.Batch{Envelopes: batch}); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Drain(false)
	if err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	cum := stats.Cumulative
	for _, c := range []struct {
		series    string
		want, rpc int
	}{
		{"prochlo_stage_received_total", 10, cum.Received},
		{"prochlo_stage_undecryptable_total", 1, cum.Undecryptable},
		{"prochlo_stage_forwarded_total", 9, cum.Forwarded},
		{"prochlo_stage_crowds_total", 2, cum.Crowds},
		{"prochlo_stage_crowds_forwarded_total", 2, cum.CrowdsForwarded},
	} {
		if v := metricValue(t, s, c.series+`{role="shuffler"}`); v != float64(c.want) || c.rpc != c.want {
			t.Errorf("%s = %v, Drain's Cumulative %d; want %d", c.series, v, c.rpc, c.want)
		}
	}
}

// TestDedupMetrics pins the dedup series: a replayed stamped Submit is acked
// and counted as a replay but not as accepted, and a second stream adds a
// mark to the streams gauge.
func TestDedupMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	rig := newStreamingRig(t, EpochConfig{FlushAt: 100, Metrics: reg, MetricsLabels: metrics.Labels{"role": "shuffler"}})
	batch := core.Batch{Envelopes: []core.Envelope{rig.envelope(t, "c:dedup", "v"), rig.envelope(t, "c:dedup", "v")}}
	scrape := func() string {
		var b bytes.Buffer
		if _, err := reg.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	check := func(step string, accepted, replays, streams float64) {
		t.Helper()
		s := scrape()
		for _, c := range []struct {
			series string
			want   float64
		}{
			{`prochlo_reports_accepted_total{role="shuffler"}`, accepted},
			{`prochlo_dedup_replays_total{role="shuffler"}`, replays},
			{`prochlo_dedup_streams{role="shuffler"}`, streams},
		} {
			if v := metricValue(t, s, c.series); v != c.want {
				t.Errorf("%s: %s = %v, want %v", step, c.series, v, c.want)
			}
		}
	}
	check("before any submission", 0, 0, 0)
	if n, err := rig.svc.Submit(9, 1, batch); err != nil || n != 2 {
		t.Fatalf("first submit = (%d, %v)", n, err)
	}
	check("first submit", 2, 0, 1)
	if n, err := rig.svc.Submit(9, 1, batch); err != nil || n != 2 {
		t.Fatalf("replayed submit = (%d, %v), want an ack of 2", n, err)
	}
	check("replayed submit", 2, 1, 1)
	if n, err := rig.svc.Submit(10, 1, batch); err != nil || n != 2 {
		t.Fatalf("second stream's submit = (%d, %v)", n, err)
	}
	check("second stream", 4, 1, 2)
}

// TestPushRedialMetrics pins the redial series: a push whose ack a fault
// proxy drops is resent on a fresh connection, which moves the sender's
// prochlo_push_redials_total, while the receiver's dedup keeps its
// prochlo_reports_accepted_total at one copy of the epoch.
func TestPushRedialMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	rig := newStreamingRig(t, EpochConfig{FlushAt: 100, Metrics: reg, MetricsLabels: metrics.Labels{"role": "shuffler"}})
	plan := &faultnet.Plan{Seed: 1, PDropAck: 1, MaxFaults: 1}
	relay := &recordStage{kind: core.KindEnvelopes, floor: 1, onEpoch: func(core.Batch) {}}
	up, err := NewStageService(relay, proxied(t, plan, rig.shuf), EpochConfig{Metrics: reg, MetricsLabels: metrics.Labels{"role": "relay"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { up.Close() })
	scrape := func(series string) float64 {
		t.Helper()
		var b bytes.Buffer
		if _, err := reg.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return metricValue(t, b.String(), series)
	}
	if v := scrape(`prochlo_push_redials_total{role="relay"}`); v != 0 {
		t.Fatalf("redials before any push = %v, want 0", v)
	}
	batch := core.Batch{Envelopes: []core.Envelope{rig.envelope(t, "c:redial", "v"), rig.envelope(t, "c:redial", "v"), rig.envelope(t, "c:redial", "v")}}
	if _, err := up.Submit(9, 1, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := up.Drain(false); err != nil {
		t.Fatal(err)
	}
	if plan.Injected() != 1 {
		t.Fatalf("injected = %d, want the one dropped ack", plan.Injected())
	}
	if v := scrape(`prochlo_push_redials_total{role="relay"}`); v < 1 {
		t.Errorf("redials after a dropped ack = %v, want at least 1", v)
	}
	if v := scrape(`prochlo_reports_accepted_total{role="shuffler"}`); v != 3 {
		t.Errorf("downstream accepted = %v, want 3 (the resent epoch deduplicated)", v)
	}
	if v := scrape(`prochlo_dedup_replays_total{role="shuffler"}`); v != 1 {
		t.Errorf("downstream replays = %v, want 1", v)
	}
}
