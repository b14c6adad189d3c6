package transport

import (
	crand "crypto/rand"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/faultnet"
	"prochlo/internal/shuffler"
)

// streamingRig is a loopback two-party deployment for streaming tests: an
// analyzer service, a streaming shuffler service (no thresholding, minimum
// batch 1, so every accepted report must reach the analyzer), and an
// encoder wired to both keys.
type streamingRig struct {
	svc     *StageService
	anlzSvc *StageService
	enc     *encoder.Client
	shuf    string // shuffler address
	anlz    string // analyzer address
}

func newStreamingRig(t testing.TB, cfg EpochConfig) *streamingRig {
	t.Helper()
	return newStreamingRigMin(t, cfg, 1)
}

func newStreamingRigMin(t testing.TB, cfg EpochConfig, minBatch int) *streamingRig {
	t.Helper()
	return newStreamingRigVia(t, cfg, minBatch, nil)
}

// newStreamingRigVia is newStreamingRigMin with the shuffler's link to the
// analyzer through a faultnet proxy under plan; a nil plan links them
// directly.
func newStreamingRigVia(t testing.TB, cfg EpochConfig, minBatch int, plan *faultnet.Plan) *streamingRig {
	t.Helper()
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzSvc, anlz := serveAnalyzer(t, anlzPriv)

	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shuffler.Shuffler{
		Priv:     shufPriv,
		Rand:     rand.New(rand.NewPCG(5, 7)),
		MinBatch: minBatch,
	}
	next := []string{anlz}
	if plan != nil {
		next = proxied(t, plan, next...)
	}
	svc, err := NewStageService(sh, next, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	shufL, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shufL.Close() })

	return &streamingRig{
		svc:     svc,
		anlzSvc: anlzSvc,
		enc:     &encoder.Client{ShufflerKey: shufPriv.Public(), AnalyzerKey: anlzPriv.Public(), Rand: crand.Reader},
		shuf:    shufL.Addr().String(),
		anlz:    anlz,
	}
}

// envelope encodes one report for the rig.
func (r *streamingRig) envelope(t testing.TB, crowd, value string) core.Envelope {
	t.Helper()
	env, err := r.enc.Encode(core.Report{CrowdID: core.HashCrowdID(crowd), Data: []byte(value)})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestSubmitBatch ships a whole batch in one round trip and checks it lands
// intact next to a one-envelope batch.
func TestSubmitBatch(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{})
	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	batch := make([]core.Envelope, 10)
	for i := range batch {
		batch[i] = rig.envelope(t, "c:batch", "batch-value")
	}
	if err := cl.Submit(core.Batch{Envelopes: batch}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Submit(core.Batch{Envelopes: []core.Envelope{rig.envelope(t, "c:single", "single-value")}}); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pending != 11 || stats.Accepted != 11 {
		t.Fatalf("stats after submit = %+v, want 11 pending/accepted", stats)
	}

	if _, err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	ac, err := Dial(rig.anlz)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	counts, undec, err := ac.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if undec != 0 || counts["batch-value"] != 10 || counts["single-value"] != 1 {
		t.Fatalf("histogram = %v (undec %d), want 10 batch-value + 1 single-value", counts, undec)
	}
}

// TestAutoFlushAtThreshold checks occupancy-driven epoch cutting: three
// times FlushAt reports must produce multiple epochs before the final
// Drain, and the analyzer must see every report.
func TestAutoFlushAtThreshold(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{FlushAt: 20})
	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	env := rig.envelope(t, "c:auto", "auto-value")
	for i := 0; i < 3; i++ {
		batch := make([]core.Envelope, 20)
		for j := range batch {
			batch[j] = env
		}
		if err := cl.Submit(core.Batch{Envelopes: batch}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if stats.EpochsFlushed < 2 {
		t.Errorf("epochs flushed = %d, want >= 2 (auto-flush at 20 with 60 submitted)", stats.EpochsFlushed)
	}
	if stats.Pending != 0 || stats.QueuedEpochs != 0 {
		t.Errorf("drain left pending=%d queued=%d", stats.Pending, stats.QueuedEpochs)
	}
	if stats.Cumulative.Received != 60 || stats.Cumulative.Forwarded != 60 {
		t.Errorf("cumulative = %+v, want 60 received and forwarded", stats.Cumulative)
	}
	ac, err := Dial(rig.anlz)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	counts, _, err := ac.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if counts["auto-value"] != 60 {
		t.Errorf("histogram count = %d, want 60", counts["auto-value"])
	}
}

// TestEpochTimerFlush checks timer-driven epoch cutting: a below-threshold
// batch must still reach the analyzer once the epoch interval elapses.
func TestEpochTimerFlush(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{FlushAt: 1000, Interval: 30 * time.Millisecond})
	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	env := rig.envelope(t, "c:timer", "timer-value")
	if err := cl.Submit(core.Batch{Envelopes: []core.Envelope{env, env, env}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.EpochsFlushed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch timer never flushed: %+v", stats)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ac, err := Dial(rig.anlz)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	counts, _, err := ac.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if counts["timer-value"] != 3 {
		t.Errorf("histogram count = %d, want 3", counts["timer-value"])
	}
}

// TestBackpressureEpochFull: a batch that does not fit while the flusher is
// stuck is held, not refused, and admitted once a cut frees room; only a
// hold past the bound is refused, with the epoch-full error, having been
// neither admitted nor kept.
func TestBackpressureEpochFull(t *testing.T) {
	const bound = 200 * time.Millisecond
	shrinkHold(t, bound)
	gate := make(chan struct{})
	var admits atomic.Int64
	eng, err := newEngine(EpochConfig{FlushAt: 1}, gatedStage(core.KindEnvelopes, gate, &admits), []string{serveNull(t)})
	if err != nil {
		t.Fatal(err)
	}
	fillToLimit(t, eng, 1)

	start := time.Now()
	if err := eng.ingest(2, 1, itemsOf(core.KindEnvelopes, "refused", 1)); err != ErrEpochFull {
		t.Fatalf("a batch held past the bound: %v, want ErrEpochFull", err)
	}
	if d := time.Since(start); d < bound {
		t.Errorf("refused after %v, before the %v bound", d, bound)
	}
	if st := eng.stats(); st.Rejected != 1 || st.Accepted != 6 || st.Pending != 2 || admits.Load() != 6 {
		t.Errorf("after the refusal: %+v with %d admitted, want 1 rejected and the 6 before it kept", st, admits.Load())
	}

	held := make(chan error, 1)
	go func() { held <- eng.ingest(2, 2, itemsOf(core.KindEnvelopes, "held", 1)) }()
	select {
	case err := <-held:
		t.Fatalf("a batch over the limit returned %v, want it held", err)
	case <-time.After(bound / 4):
	}
	close(gate)
	if err := <-held; err != nil {
		t.Fatalf("the held batch: %v, want it admitted once a cut freed room", err)
	}
	if err := eng.drain(false); err != nil {
		t.Fatal(err)
	}
	if st := eng.stats(); st.Rejected != 1 || st.Accepted != 7 || st.Cumulative.Received != 7 || admits.Load() != 7 {
		t.Errorf("after the drain: %+v with %d admitted, want the held batch admitted once and all 7 processed", st, admits.Load())
	}
	if err := eng.close(); err != nil {
		t.Fatal(err)
	}
}

// TestBelowFloorEpochPreserved: a Drain may not destroy a pending epoch
// smaller than the shuffler's minimum batch — the reports must show as
// Pending, not as an error, and keep accumulating until they can
// legitimately be forwarded, without polluting the failure stats.
func TestBelowFloorEpochPreserved(t *testing.T) {
	rig := newStreamingRigMin(t, EpochConfig{}, 5)
	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	env := rig.envelope(t, "c:floor", "floor-value")
	if err := cl.Submit(core.Batch{Envelopes: []core.Envelope{env, env, env}}); err != nil {
		t.Fatal(err)
	}
	for range 2 { // a repeated barrier must not wear the epoch down either
		stats, err := cl.Drain()
		if err != nil {
			t.Fatalf("below-floor Drain err = %v, want nil (barrier)", err)
		}
		if stats.Pending != 3 || stats.EpochsFlushed != 0 {
			t.Fatalf("after a below-floor Drain: pending %d, flushed %d, want 3 pending (reports preserved)",
				stats.Pending, stats.EpochsFlushed)
		}
		if stats.EpochsFailed != 0 || stats.Dropped != 0 {
			t.Fatalf("epochs failed = %d, dropped = %d (%s), a barrier must not pollute stats",
				stats.EpochsFailed, stats.Dropped, stats.LastError)
		}
	}

	// Two more reports cross the floor; the epoch now flushes whole.
	if err := cl.Submit(core.Batch{Envelopes: []core.Envelope{env, env}}); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if stats.EpochsFlushed != 1 || stats.Cumulative.Received != 5 || stats.Pending != 0 {
		t.Errorf("drain across the floor = %+v, want one epoch of all 5 preserved reports", stats)
	}
	ac, err := Dial(rig.anlz)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	counts, _, err := ac.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if counts["floor-value"] != 5 {
		t.Errorf("histogram = %v, want 5 floor-value", counts)
	}
}

// TestCloseDrainsFinalEpoch: graceful shutdown must push the pending epoch
// to the analyzer before releasing the connection, and reject later
// submissions. (A client retries ErrClosed, in case a successor takes the
// address, so the rejection surfaces once a shrunk redial budget runs out.)
func TestCloseDrainsFinalEpoch(t *testing.T) {
	shrinkRedial(t, 1, time.Millisecond)
	rig := newStreamingRig(t, EpochConfig{FlushAt: 1000})
	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	env := rig.envelope(t, "c:close", "close-value")
	if err := cl.Submit(core.Batch{Envelopes: []core.Envelope{env, env, env, env}}); err != nil {
		t.Fatal(err)
	}
	if err := rig.svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Submit(core.Batch{Envelopes: []core.Envelope{env}}); err == nil {
		t.Error("submit after Close succeeded, want error")
	}
	ac, err := Dial(rig.anlz)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	counts, _, err := ac.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if counts["close-value"] != 4 {
		t.Errorf("histogram after Close = %v, want 4 close-value", counts)
	}
}

// TestConcurrentSubmitDuringAutoFlush is the -race streaming soak: many
// goroutine clients ship batches while epochs auto-flush underneath them,
// and a batch that does not fit is held until it does. Every report must
// reach the analyzer exactly once — nothing refused, dropped or
// double-counted across epoch boundaries.
func TestConcurrentSubmitDuringAutoFlush(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{FlushAt: 40})

	const (
		goroutines = 8
		batches    = 10
		perBatch   = 7
		total      = goroutines * batches * perBatch
	)
	env := rig.envelope(t, "c:soak", "soak-value")

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(rig.shuf)
			if err != nil {
				errs[g] = err
				return
			}
			defer cl.Close()
			for b := 0; b < batches; b++ {
				batch := make([]core.Envelope, perBatch)
				for i := range batch {
					batch[i] = env
				}
				if err := cl.Submit(core.Batch{Envelopes: batch}); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stats, err := cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != total || stats.Rejected != 0 {
		t.Errorf("accepted = %d, rejected = %d, want %d accepted and none rejected", stats.Accepted, stats.Rejected, total)
	}
	if stats.Cumulative.Received != total || stats.Cumulative.Forwarded != total {
		t.Errorf("cumulative = %+v, want %d received and forwarded", stats.Cumulative, total)
	}
	if stats.Pending != 0 || stats.QueuedEpochs != 0 {
		t.Errorf("drain left pending=%d queued=%d", stats.Pending, stats.QueuedEpochs)
	}
	if stats.EpochsFlushed < 2 {
		t.Errorf("epochs flushed = %d, want >= 2 (auto-flush during submission)", stats.EpochsFlushed)
	}
	if stats.EpochsFailed != 0 {
		t.Errorf("epochs failed = %d (%s)", stats.EpochsFailed, stats.LastError)
	}

	ac, err := Dial(rig.anlz)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	counts, undec, err := ac.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if undec != 0 {
		t.Errorf("undecryptable = %d", undec)
	}
	if counts["soak-value"] != total {
		t.Errorf("histogram count = %d, want %d (no drops, no double counts)", counts["soak-value"], total)
	}
	anlzStats, err := ac.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if anlzStats.Cumulative.Forwarded != total {
		t.Errorf("analyzer records = %d, want %d", anlzStats.Cumulative.Forwarded, total)
	}
}
