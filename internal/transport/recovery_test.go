package transport

import (
	crand "crypto/rand"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
)

// crashRig is a two-party loopback deployment whose shuffler can be crashed
// (Abort — no final cut, no drain, WAL left as a dead process would leave
// it) and restarted over the same WAL directory, same keys, same analyzer.
// kind picks the stage in front of the analyzer, and with it the item layout
// the engine and its WAL carry: the plain shuffler for client envelopes, hop
// 2 of the split chain for blinded ones.
type crashRig struct {
	t        *testing.T
	kind     core.BatchKind
	anlzSvc  *AnalyzerService
	anlz     string
	anlzPriv *hybrid.PrivateKey
	shufPriv *hybrid.PrivateKey
	blindKP  *elgamal.KeyPair
	cfg      EpochConfig

	floor int // the stage's anonymity floor; 0 is 1

	svc *StageService
	seq int64 // the rig's client: last (crashRigStream, seq) stamp submitted
}

// crashRigStream is the stream id the rig submits under, as a
// transport.Client would: every submission stamped, so the tests drive the
// one ingest path a daemon runs.
const crashRigStream = 4242

func newCrashRig(t *testing.T, kind core.BatchKind, cfg EpochConfig) *crashRig {
	t.Helper()
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzSvc := NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv})
	anlzL, err := Serve("127.0.0.1:0", anlzSvc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { anlzL.Close() })

	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WALDir = t.TempDir()
	r := &crashRig{
		t:        t,
		kind:     kind,
		anlzSvc:  anlzSvc,
		anlz:     anlzL.Addr().String(),
		anlzPriv: anlzPriv,
		shufPriv: shufPriv,
		blindKP:  blindKP,
		cfg:      cfg,
	}
	r.start()
	t.Cleanup(func() { r.svc.Close() })
	return r
}

// start builds (or rebuilds, after a crash) the shuffler service over the
// rig's WAL directory. The stage RNG restarts from a fresh seed — without
// thresholding the histogram is permutation-independent, which is exactly
// the restart-determinism contract the engine promises.
func (r *crashRig) start() {
	r.t.Helper()
	svc, err := r.startOn(r.stage(r.kind))
	if err != nil {
		r.t.Fatal(err)
	}
	r.svc = svc
}

// stage builds the rig's stage for a kind; both emit payloads for the
// analyzer.
func (r *crashRig) stage(kind core.BatchKind) shuffler.Stage {
	rng := rand.New(rand.NewPCG(5, 7))
	if kind == core.KindBlinded {
		return &shuffler.Shuffler2{Blinding: r.blindKP, Priv: r.shufPriv, Rand: rng, MinBatch: max(1, r.floor)}
	}
	return &shuffler.Shuffler{Priv: r.shufPriv, Rand: rng, MinBatch: max(1, r.floor)}
}

func (r *crashRig) startOn(st shuffler.Stage) (*StageService, error) {
	return NewStageService(st, []string{r.anlz}, r.cfg)
}

// batch encodes n reports of value as the rig's kind.
func (r *crashRig) batch(n int, value string) core.Batch {
	r.t.Helper()
	var b core.Batch
	var err error
	if r.kind == core.KindBlinded {
		benc := &encoder.BlindedClient{Shuffler2Blinding: r.blindKP.H, Shuffler2Key: r.shufPriv.Public(),
			AnalyzerKey: r.anlzPriv.Public(), Rand: crand.Reader}
		b.Blinded = make([]core.BlindedEnvelope, n)
		for i := 0; i < n && err == nil; i++ {
			b.Blinded[i], err = benc.Encode("c:"+value, []byte(value))
		}
	} else {
		enc := &encoder.Client{ShufflerKey: r.shufPriv.Public(), AnalyzerKey: r.anlzPriv.Public(), Rand: crand.Reader}
		b.Envelopes = make([]core.Envelope, n)
		for i := 0; i < n && err == nil; i++ {
			b.Envelopes[i], err = enc.Encode(core.Report{CrowdID: core.HashCrowdID("c:" + value), Data: []byte(value)})
		}
	}
	if err != nil {
		r.t.Fatal(err)
	}
	return b
}

func (r *crashRig) submit(n int, value string) {
	r.t.Helper()
	r.seq++
	if _, err := r.svc.Submit(crashRigStream, r.seq, r.batch(n, value)); err != nil {
		r.t.Fatal(err)
	}
}

func (r *crashRig) drain() ServiceStats {
	r.t.Helper()
	stats, err := r.svc.Drain(false)
	if err != nil {
		r.t.Fatal(err)
	}
	return stats
}

func (r *crashRig) histogram() map[string]int {
	r.t.Helper()
	counts, _ := r.anlzSvc.Histogram()
	return counts
}

// checkReconciled asserts the accounting invariant at a drain barrier:
// Accepted == Cumulative.Received + Dropped + Pending, i.e. Unaccounted 0.
func checkReconciled(t *testing.T, stats ServiceStats) {
	t.Helper()
	if stats.QueuedEpochs != 0 {
		t.Fatalf("not a barrier: %d epochs still queued", stats.QueuedEpochs)
	}
	if stats.Unaccounted != 0 {
		t.Errorf("reconciliation broken: accepted=%d received=%d dropped=%d pending=%d -> unaccounted=%d",
			stats.Accepted, stats.Cumulative.Received, stats.Dropped, stats.Pending, stats.Unaccounted)
	}
}

// TestRestartRecoversPending crashes a daemon with accepted-but-uncut
// reports and checks the restarted daemon recovers and delivers every one
// of them exactly once, with the books balanced.
func TestRestartRecoversPending(t *testing.T) { forEachKind(t, testRestartRecoversPending) }

func testRestartRecoversPending(t *testing.T, kind core.BatchKind) {
	rig := newCrashRig(t, kind, EpochConfig{FlushAt: 1000}) // nothing auto-flushes
	rig.submit(7, "pending-value")
	rig.svc.Abort()

	rig.start()
	stats := rig.svc.Stats()
	if stats.RecoveredItems != 7 || stats.Pending != 7 || stats.RecoveredEpochs != 0 {
		t.Fatalf("post-restart stats = %+v, want 7 recovered pending items", stats)
	}
	drained := rig.drain()
	checkReconciled(t, drained)
	if drained.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", drained.Dropped)
	}
	if got := rig.histogram()["pending-value"]; got != 7 {
		t.Errorf("histogram = %d, want 7 (recovered exactly once)", got)
	}
	if err := rig.svc.Close(); err != nil {
		t.Fatal(err)
	}
	// The clean shutdown resolved everything; a further restart recovers
	// nothing and must not resurrect the delivered reports.
	rig.start()
	if stats = rig.svc.Stats(); stats.RecoveredItems != 0 {
		t.Errorf("recovery after clean close = %+v, want nothing", stats)
	}
	if got := rig.histogram()["pending-value"]; got != 7 {
		t.Errorf("histogram after second restart = %d, want still 7", got)
	}
}

// TestRestartResumesInFlightEpoch crashes a daemon while an epoch is cut and
// mid-push (the push delayed by an injected fault), and checks the restarted
// daemon re-pushes the epoch under its original (stream, epoch) id so the
// analyzer counts each report exactly once whether or not the original push
// landed.
func TestRestartResumesInFlightEpoch(t *testing.T) { forEachKind(t, testRestartResumesInFlightEpoch) }

func testRestartResumesInFlightEpoch(t *testing.T, kind core.BatchKind) {
	fault := &FaultPlan{Seed: 1, PDelay: 1, Delay: 400 * time.Millisecond, MaxFaults: 1}
	rig := newCrashRig(t, kind, EpochConfig{FlushAt: 5, Fault: fault})
	rig.submit(5, "inflight-value") // cuts an epoch; its push hangs in the fault delay
	time.Sleep(100 * time.Millisecond)
	rig.svc.Abort() // crash with the epoch cut but unresolved

	rig.start()
	stats := rig.svc.Stats()
	if stats.RecoveredEpochs != 1 || stats.RecoveredItems != 5 {
		t.Fatalf("post-restart stats = %+v, want one recovered in-flight epoch of 5", stats)
	}
	drained := rig.drain()
	checkReconciled(t, drained)
	if drained.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", drained.Dropped)
	}
	if got := rig.histogram()["inflight-value"]; got != 5 {
		t.Errorf("histogram = %d, want 5 (replayed epoch deduplicated)", got)
	}
}

// TestRestartAfterAckLost covers the other half of the in-flight window: the
// epoch was delivered but the crash ate the ack. The restarted daemon must
// re-push the same (stream, epoch) and the analyzer's dedup must swallow the
// replay — delivered-then-crashed and crashed-then-delivered both end at
// exactly-once.
func TestRestartAfterAckLost(t *testing.T) { forEachKind(t, testRestartAfterAckLost) }

func testRestartAfterAckLost(t *testing.T, kind core.BatchKind) {
	// Every attempt of the first incarnation is delivered and loses its ack,
	// so the sender is still retrying — the epoch unresolved — when the
	// crash lands.
	fault := &FaultPlan{Seed: 1, PDropAck: 1}
	rig := newCrashRig(t, kind, EpochConfig{FlushAt: 4, Fault: fault})
	rig.submit(4, "acklost-value")
	// Wait until the analyzer has materialized the push (the ack was eaten).
	deadline := time.Now().Add(5 * time.Second)
	for {
		as := rig.anlzSvc.Stats()
		if as.Records == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("analyzer never saw the push: %+v", as)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rig.svc.Abort() // crash during the redial backoff: delivered, unacked

	rig.cfg.Fault = nil // the successor's network is sound
	rig.start()
	stats := rig.svc.Stats()
	if stats.RecoveredEpochs != 1 || stats.RecoveredItems != 4 {
		t.Fatalf("post-restart stats = %+v, want one recovered epoch of 4", stats)
	}
	drained := rig.drain()
	checkReconciled(t, drained)
	if got := rig.histogram()["acklost-value"]; got != 4 {
		t.Errorf("histogram = %d, want 4 (replay absorbed by analyzer dedup)", got)
	}
}

// TestForwardDedupAcrossRestart extends TestForwardDedup across a receiver
// crash: a hop ingests a forwarded epoch (persisting the dedup mark with the
// items), crashes before flushing, restarts, and the upstream's retry of the
// same (stream, epoch) must be acknowledged without re-ingesting — the
// analyzer counts each report exactly once.
func TestForwardDedupAcrossRestart(t *testing.T) { forEachKind(t, testForwardDedupAcrossRestart) }

func testForwardDedupAcrossRestart(t *testing.T, kind core.BatchKind) {
	rig := newCrashRig(t, kind, EpochConfig{})
	batch := rig.batch(3, "dedup-value")
	if n, err := rig.svc.Submit(9, 1, batch); err != nil || n != 3 {
		t.Fatalf("first forward = (%d, %v), want 3 accepted", n, err)
	}

	// The hop dies before flushing; the upstream never saw the ack and
	// retries the same (stream, epoch) against the restarted hop.
	rig.svc.Abort()
	rig.start()
	if stats := rig.svc.Stats(); stats.RecoveredItems != 3 || stats.Pending != 3 {
		t.Fatalf("post-restart stats = %+v, want the 3 forwarded reports pending", stats)
	}
	if n, err := rig.svc.Submit(9, 1, batch); err != nil || n != 3 {
		t.Fatalf("retried forward = (%d, %v), want 3 accepted (idempotent ack across restart)", n, err)
	}

	checkReconciled(t, rig.drain())
	if records := rig.anlzSvc.Stats().Records; records != 3 {
		t.Errorf("analyzer records = %d, want 3 (dedup mark survived the restart)", records)
	}
}

// TestRestartRefusesOtherRolesWAL restarts a daemon of one role over the
// directory a daemon of the other wrote: the constructor must fail naming
// both kinds and leave every file as it found it, so the right role can still
// recover the reports.
func TestRestartRefusesOtherRolesWAL(t *testing.T) { forEachKind(t, testRestartRefusesOtherRolesWAL) }

func testRestartRefusesOtherRolesWAL(t *testing.T, kind core.BatchKind) {
	other := core.KindEnvelopes
	if kind == core.KindEnvelopes {
		other = core.KindBlinded
	}
	rig := newCrashRig(t, kind, EpochConfig{FlushAt: 1000})
	rig.submit(4, "kept-value")
	rig.svc.Abort()

	snapshot := func() map[string]string {
		files := make(map[string]string)
		entries, err := os.ReadDir(rig.cfg.WALDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(rig.cfg.WALDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	before := snapshot()
	svc, err := rig.startOn(rig.stage(other))
	if err == nil {
		svc.Abort()
		t.Fatalf("a stage ingesting %v started over a WAL of %v", other, kind)
	}
	for _, k := range []core.BatchKind{kind, other} {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("error %q does not name %v", err, k)
		}
	}
	if after := snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("the refused restart changed the directory: %d files before, %d after", len(before), len(after))
	}

	rig.start()
	if stats := rig.svc.Stats(); stats.RecoveredItems != 4 {
		t.Fatalf("the right role recovered %+v after the refusal, want the 4 reports", stats)
	}
	checkReconciled(t, rig.drain())
	if got := rig.histogram()["kept-value"]; got != 4 {
		t.Errorf("histogram = %d, want 4", got)
	}
}

// TestReconciliationWithDrops checks the accounting invariant when an epoch
// genuinely fails: the downstream refuses what the hop pushes (a stage that
// ingests envelopes, sent payloads), an answer no retry can change, so the
// accepted reports must all land in Dropped — and Unaccounted must still be
// zero at the barrier. This is the Stats-side debug assertion the Dropped
// field promises.
func TestReconciliationWithDrops(t *testing.T) {
	rig := newCrashRig(t, core.KindEnvelopes, EpochConfig{})
	refuser, err := Serve("127.0.0.1:0", rig.svc) // ingests envelopes, not payloads
	if err != nil {
		t.Fatal(err)
	}
	defer refuser.Close()
	svc, err := NewStageService(rig.stage(core.KindEnvelopes), []string{refuser.Addr().String()},
		EpochConfig{FlushAt: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Submit(0, 0, rig.batch(6, "drop-value")); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Drain(false); err == nil {
		t.Fatal("drain into a refusing downstream succeeded, want the push failure surfaced")
	}
	// The failed epoch is accounted; the next drain is a pure barrier.
	drained, err := svc.Drain(false)
	if err != nil {
		t.Fatal(err)
	}
	if drained.Dropped != 6 || drained.EpochsFailed != 1 {
		t.Fatalf("stats after failed epoch = %+v, want 6 dropped in 1 failed epoch", drained)
	}
	checkReconciled(t, drained)
	if st := rig.svc.Stats(); st.Accepted != 0 {
		t.Errorf("the refusing stage ingested %d reports", st.Accepted)
	}
}

// TestPushRidesOutDownstreamRestart: the analyzer goes down for about 1.2 s
// while a hop pushes an epoch, then listens again at the same address. A
// hop pushes the way a client submits — one sender, one redial policy of
// about 6 s — so the epoch must arrive exactly once: nothing dropped, no
// epoch failed, every report counted.
func TestPushRidesOutDownstreamRestart(t *testing.T) {
	const downFor = 1200 * time.Millisecond
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzSvc := NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv})
	anlzSrv := serveKillable(t, anlzSvc)
	anlzAddr := anlzSrv.addr()
	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shuffler.Shuffler{Priv: shufPriv, Rand: rand.New(rand.NewPCG(9, 11)), MinBatch: 1}
	svc, err := NewStageService(sh, []string{anlzAddr}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	enc := &encoder.Client{ShufflerKey: shufPriv.Public(), AnalyzerKey: anlzPriv.Public(), Rand: crand.Reader}
	const reports = 3
	envs := make([]core.Envelope, reports)
	for i := range envs {
		if envs[i], err = enc.Encode(core.Report{CrowdID: core.HashCrowdID("c:restart"), Data: []byte("restart-value")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Submit(crashRigStream, 1, core.Batch{Envelopes: envs}); err != nil {
		t.Fatal(err)
	}

	anlzSrv.kill()
	drained := make(chan error, 1)
	var stats ServiceStats
	go func() {
		var err error
		stats, err = svc.Drain(false)
		drained <- err
	}()
	time.Sleep(downFor)
	var l net.Listener
	for attempt := 0; attempt < 50; attempt++ {
		if l, err = Serve(anlzAddr, anlzSvc); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding the analyzer at %s: %v", anlzAddr, err)
	}
	defer l.Close()

	if err := <-drained; err != nil {
		t.Fatalf("drain across a %v downstream restart: %v", downFor, err)
	}
	if stats.Dropped != 0 || stats.EpochsFailed != 0 || stats.EpochsFlushed != 1 {
		t.Errorf("stats = %+v, want the one epoch flushed, nothing dropped or failed", stats)
	}
	checkReconciled(t, stats)
	if as := anlzSvc.Stats(); as.Records != reports || as.Ingests != 1 {
		t.Errorf("analyzer stats = %+v, want %d records in one ingest", as, reports)
	}
	if counts, _ := anlzSvc.Histogram(); counts["restart-value"] != reports {
		t.Errorf("histogram = %v, want %d restart-value", counts, reports)
	}
}

// TestSGXShufflerSurvivesBadEnvelope: at the SGX shuffler, as at the plain
// one, a report whose outer layer does not open costs only itself. Six
// honest reports and one with a flipped tag, then one drain: six reach the
// analyzer, one counts as undecryptable, and no epoch fails.
func TestSGXShufflerSurvivesBadEnvelope(t *testing.T) {
	testSGXShufflerSurvives(t, func(enc *encoder.Client, e *core.Envelope) error {
		e.Blob[len(e.Blob)-1] ^= 1
		return nil
	})
}

// TestSGXShufflerSurvivesOddSizedEnvelope: a report one byte longer than the
// epoch's others costs only itself too. It is set aside before the oblivious
// shuffle, which needs records of one size, and counts as undecryptable.
func TestSGXShufflerSurvivesOddSizedEnvelope(t *testing.T) {
	testSGXShufflerSurvives(t, func(enc *encoder.Client, e *core.Envelope) (err error) {
		*e, err = enc.Encode(core.Report{CrowdID: core.HashCrowdID("c:sgx"), Data: []byte("sgx+")})
		return err
	})
}

// testSGXShufflerSurvives submits seven reports of "sgx" to an SGX shuffler,
// the fifth of them spoiled, and drains: the six others reach the analyzer,
// the spoiled one counts as undecryptable, and no epoch fails.
func testSGXShufflerSurvives(t *testing.T, spoil func(enc *encoder.Client, e *core.Envelope) error) {
	rig := newCrashRig(t, core.KindEnvelopes, EpochConfig{})
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	sh, _, err := shuffler.NewSGXShuffler(ca, shuffler.Params{Seed: 3, MinBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewStageService(sh, []string{rig.anlz}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	enc := &encoder.Client{ShufflerKey: sh.PublicKey(), AnalyzerKey: rig.anlzPriv.Public(), Rand: crand.Reader}
	envs := make([]core.Envelope, 7)
	for i := range envs {
		if envs[i], err = enc.Encode(core.Report{CrowdID: core.HashCrowdID("c:sgx"), Data: []byte("sgx")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := spoil(enc, &envs[4]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(crashRigStream, 1, core.Batch{Envelopes: envs}); err != nil {
		t.Fatal(err)
	}
	stats, err := svc.Drain(false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EpochsFailed != 0 || stats.Dropped != 0 || stats.Cumulative.Undecryptable != 1 || stats.Cumulative.Forwarded != 6 {
		t.Fatalf("stats = %+v, want 6 forwarded, 1 undecryptable, no failed epoch", stats)
	}
	checkReconciled(t, stats)
	if got := rig.histogram(); got["sgx"] != 6 || len(got) != 1 {
		t.Fatalf("analyzer counted %v, want 6 of sgx", got)
	}
}

// TestForceDrainKeepsInFlightEpoch: a final drain drops a below-floor tail
// while the epoch before it is still mid-push, so the drop resolves a cut
// ahead of the one in flight. A crash then must not take the in-flight epoch
// with it: the restarted daemon re-pushes it and the analyzer counts all
// five reports, while the dropped tail stays dropped.
func TestForceDrainKeepsInFlightEpoch(t *testing.T) { forEachKind(t, testForceDrainKeepsInFlightEpoch) }

func testForceDrainKeepsInFlightEpoch(t *testing.T, kind core.BatchKind) {
	fault := &FaultPlan{Seed: 1, PDelay: 1, Delay: 400 * time.Millisecond, MaxFaults: 1}
	rig := newCrashRig(t, kind, EpochConfig{FlushAt: 5, Fault: fault})
	rig.svc.Close()
	rig.floor = 3
	rig.start()
	rig.submit(5, "inflight-value") // cuts an epoch; its push hangs in the fault delay
	time.Sleep(100 * time.Millisecond)
	rig.submit(2, "tail-value") // below the floor of 3
	drained := make(chan error, 1)
	go func() {
		_, err := rig.svc.Drain(true) // drops the tail, then waits behind the push
		drained <- err
	}()
	time.Sleep(100 * time.Millisecond)
	rig.svc.Abort() // crash with epoch 1 unresolved and the tail's drop logged
	<-drained

	rig.cfg.Fault = nil
	rig.start()
	if stats := rig.svc.Stats(); stats.RecoveredEpochs != 1 || stats.RecoveredItems != 5 {
		t.Fatalf("post-restart stats = %+v, want the in-flight epoch of 5 recovered", stats)
	}
	checkReconciled(t, rig.drain())
	if got := rig.histogram(); got["inflight-value"] != 5 || got["tail-value"] != 0 {
		t.Errorf("histogram = %v, want 5 inflight-value and no tail-value", got)
	}
}
