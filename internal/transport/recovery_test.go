package transport

import (
	crand "crypto/rand"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/faultnet"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
)

// crashRig is a two-party loopback deployment whose shuffler runs in a
// child process (child_test.go), so a test can crash it with a real SIGKILL
// and restart it over the same WAL directory, same keys, same address, same
// analyzer. kind picks the stage in front of the analyzer, and with it the
// item layout the engine and its WAL carry: the plain shuffler for client
// envelopes, hop 2 of the split chain for blinded ones. The rig talks to
// the child over the wire, as a daemon's upstream does.
type crashRig struct {
	t        *testing.T
	kind     core.BatchKind
	anlzSvc  *StageService
	anlz     string
	next     string // where the shuffler pushes: anlz, or a faultnet proxy in front of it
	anlzPriv *hybrid.PrivateKey
	shufPriv *hybrid.PrivateKey
	blindKP  *elgamal.KeyPair
	cfg      EpochConfig

	floor int // the stage's anonymity floor; 0 is 1

	proc *faultnet.Child // the running shuffler
	cl   *Client         // the rig's connection to it
	addr string          // the shuffler's address, kept across restarts
	seq  int64           // the rig's client: last (crashRigStream, seq) stamp submitted
}

// crashRigStream is the stream id the rig submits under, as a
// transport.Client would: every submission stamped, so the tests drive the
// one ingest path a daemon runs.
const crashRigStream = 4242

func newCrashRig(t *testing.T, kind core.BatchKind, cfg EpochConfig) *crashRig {
	t.Helper()
	return newFaultyCrashRig(t, kind, cfg, nil)
}

// newFaultyCrashRig is newCrashRig with the shuffler's link to the analyzer
// through a faultnet proxy under plan; a nil plan links them directly.
func newFaultyCrashRig(t *testing.T, kind core.BatchKind, cfg EpochConfig, plan *faultnet.Plan) *crashRig {
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
	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WALDir = t.TempDir()
	r := &crashRig{
		t:        t,
		kind:     kind,
		anlzSvc:  anlzSvc,
		anlz:     anlz,
		anlzPriv: anlzPriv,
		shufPriv: shufPriv,
		blindKP:  blindKP,
		cfg:      cfg,
		addr:     "127.0.0.1:0",
	}
	r.next = r.anlz
	if plan != nil {
		r.next = proxied(t, plan, r.anlz)[0]
	}
	r.start()
	return r
}

// start starts (or restarts, after a crash or a stop) the shuffler over the
// rig's WAL directory, at the address it had.
func (r *crashRig) start() {
	r.t.Helper()
	r.proc = startChild(r.t, r.spec())
	r.addr = r.proc.Addr
	r.cl = dialed(r.t, r.addr)
}

// spec is the shuffler's child spec.
func (r *crashRig) spec() childSpec {
	return childSpec{Kind: r.kind, Floor: r.floor, Priv: r.shufPriv.Bytes(), X: r.blindKP.X,
		Next: []string{r.next}, Listen: r.addr, Cfg: r.cfg}
}

// crash SIGKILLs the shuffler: no final cut, no drain, its WAL left as a
// dead process leaves it.
func (r *crashRig) crash() {
	r.t.Helper()
	r.cl.Close()
	if err := r.proc.Kill(); err != nil {
		r.t.Fatal(err)
	}
}

// stop shuts the shuffler down gracefully, as a daemon's SIGTERM does.
func (r *crashRig) stop() {
	r.t.Helper()
	r.cl.Close()
	if err := r.proc.Stop(); err != nil {
		r.t.Fatalf("graceful stop: %v", err)
	}
}

// stage builds the rig's stage for a kind in this process; both emit
// payloads for the analyzer.
func (r *crashRig) stage(kind core.BatchKind) shuffler.Stage {
	return crashStage(kind, false, r.floor, r.shufPriv, r.blindKP)
}

// proxied stands a faultnet proxy under plan in front of each target, for
// the test's lifetime, and returns the proxies' addresses in target order:
// a stage whose next tier is the result has plan on each outbound link.
func proxied(t testing.TB, plan *faultnet.Plan, targets ...string) []string {
	t.Helper()
	addrs := make([]string, len(targets))
	for i, target := range targets {
		px, err := faultnet.Listen(plan, target)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { px.Close() })
		addrs[i] = px.Addr()
	}
	return addrs
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
	r.submitAs(crashRigStream, r.seq, r.batch(n, value))
}

// submitAs sends b stamped (stream, pos), as an upstream hop's push is.
func (r *crashRig) submitAs(stream, pos int64, b core.Batch) {
	r.t.Helper()
	if err := r.cl.send(stream, pos, b); err != nil {
		r.t.Fatal(err)
	}
}

func (r *crashRig) stats() ServiceStats {
	r.t.Helper()
	stats, err := r.cl.Stats()
	if err != nil {
		r.t.Fatal(err)
	}
	return stats
}

func (r *crashRig) drain() ServiceStats {
	r.t.Helper()
	stats, err := r.cl.Drain()
	if err != nil {
		r.t.Fatal(err)
	}
	return stats
}

func (r *crashRig) histogram() map[string]int {
	r.t.Helper()
	counts, _, err := r.anlzSvc.Histogram()
	if err != nil {
		r.t.Fatal(err)
	}
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
	rig.crash()

	rig.start()
	stats := rig.stats()
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
	rig.stop()
	// The clean shutdown resolved everything; a further restart recovers
	// nothing and must not resurrect the delivered reports.
	rig.start()
	if stats = rig.stats(); stats.RecoveredItems != 0 {
		t.Errorf("recovery after clean close = %+v, want nothing", stats)
	}
	if got := rig.histogram()["pending-value"]; got != 7 {
		t.Errorf("histogram after second restart = %d, want still 7", got)
	}
}

// TestRestartResumesInFlightEpoch crashes a daemon while an epoch is cut and
// mid-push (the push held by an injected delay), and checks the restarted
// daemon re-pushes the epoch under its original (stream, epoch) id so the
// analyzer counts each report exactly once whether or not the original push
// landed.
func TestRestartResumesInFlightEpoch(t *testing.T) { forEachKind(t, testRestartResumesInFlightEpoch) }

func testRestartResumesInFlightEpoch(t *testing.T, kind core.BatchKind) {
	fault := &faultnet.Plan{Seed: 1, PDelay: 1, Delay: 400 * time.Millisecond, MaxFaults: 1}
	rig := newFaultyCrashRig(t, kind, EpochConfig{FlushAt: 5}, fault)
	rig.submit(5, "inflight-value") // cuts an epoch; the proxy holds its push
	untilTrue(t, "the push to reach the proxy", func() bool { return fault.Injected() == 1 })
	rig.crash() // crash with the epoch cut but unresolved

	rig.start()
	stats := rig.stats()
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
	fault := &faultnet.Plan{Seed: 1, PDropAck: 1}
	rig := newFaultyCrashRig(t, kind, EpochConfig{FlushAt: 4}, fault)
	rig.submit(4, "acklost-value")
	// Wait until the analyzer has taken the push (the ack was eaten).
	untilTrue(t, "the analyzer to see the push", func() bool { return rig.anlzSvc.Stats().Accepted == 4 })
	rig.crash() // crash during the redial backoff: delivered, unacked

	rig.next = rig.anlz // the successor's network is sound
	rig.start()
	stats := rig.stats()
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
	rig.submitAs(9, 1, batch)

	// The hop dies before flushing; the upstream never saw the ack and
	// retries the same (stream, epoch) against the restarted hop, which
	// acknowledges it without ingesting it again.
	rig.crash()
	rig.start()
	if stats := rig.stats(); stats.RecoveredItems != 3 || stats.Pending != 3 {
		t.Fatalf("post-restart stats = %+v, want the 3 forwarded reports pending", stats)
	}
	rig.submitAs(9, 1, batch)
	if stats := rig.stats(); stats.Accepted != 3 || stats.Pending != 3 {
		t.Fatalf("after the retried forward: %+v, want it acknowledged without re-ingesting", stats)
	}

	checkReconciled(t, rig.drain())
	if as, err := rig.anlzSvc.Drain(false); err != nil || as.Cumulative.Forwarded != 3 {
		t.Errorf("analyzer records = %d (%v), want 3 (dedup mark survived the restart)", as.Cumulative.Forwarded, err)
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
	rig.crash()

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
	svc, err := NewStageService(rig.stage(other), []string{rig.next}, rig.cfg)
	if err == nil {
		svc.Close()
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
	if stats := rig.stats(); stats.RecoveredItems != 4 {
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
	rig := newCrashRig(t, core.KindEnvelopes, EpochConfig{}) // ingests envelopes, not payloads
	svc, err := NewStageService(rig.stage(core.KindEnvelopes), []string{rig.addr},
		EpochConfig{FlushAt: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Submit(1, 1, rig.batch(6, "drop-value")); err != nil {
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
	if st := rig.stats(); st.Accepted != 0 {
		t.Errorf("the refusing stage ingested %d reports", st.Accepted)
	}
}

// TestPushRidesOutDownstreamRestart: the analyzer is out of reach for 1.2 s
// while a hop pushes an epoch — a partition window on the hop's link, which
// is how a downstream restart looks from upstream — and then answers again.
// A hop pushes the way a client submits — one sender, one redial policy of
// about 6 s — so the epoch must arrive exactly once: nothing dropped, no
// epoch failed, every report counted.
func TestPushRidesOutDownstreamRestart(t *testing.T) {
	const downFor = 1200 * time.Millisecond
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzSvc, anlz := serveAnalyzer(t, anlzPriv)
	down := &faultnet.Plan{Seed: 1, PPartition: 1, PartitionFor: downFor, MaxFaults: 1}
	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shuffler.Shuffler{Priv: shufPriv, Rand: rand.New(rand.NewPCG(9, 11)), MinBatch: 1}
	svc, err := NewStageService(sh, proxied(t, down, anlz), EpochConfig{})
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

	start := time.Now()
	stats, err := svc.Drain(false)
	if err != nil {
		t.Fatalf("drain across a %v downstream outage: %v", downFor, err)
	}
	if took := time.Since(start); took < downFor || down.Injected() != 1 {
		t.Errorf("drain took %v with %d faults injected, want the push held out for %v", took, down.Injected(), downFor)
	}
	if stats.Dropped != 0 || stats.EpochsFailed != 0 || stats.EpochsFlushed != 1 {
		t.Errorf("stats = %+v, want the one epoch flushed, nothing dropped or failed", stats)
	}
	checkReconciled(t, stats)
	if as, err := anlzSvc.Drain(false); err != nil || as.Cumulative.Forwarded != reports || as.EpochsFlushed != 1 {
		t.Errorf("analyzer stats = %+v, %v; want %d records in one epoch", as, err, reports)
	}
	if counts, _, _ := anlzSvc.Histogram(); counts["restart-value"] != reports {
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
	sh, err := shuffler.NewSGXShuffler(ca, shuffler.Params{Seed: 3, MinBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	key, err := hybrid.ParsePublicKey(sh.Quote().ReportData)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewStageService(sh, []string{rig.anlz}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	enc := &encoder.Client{ShufflerKey: key, AnalyzerKey: rig.anlzPriv.Public(), Rand: crand.Reader}
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
	fault := &faultnet.Plan{Seed: 1, PDelay: 1, Delay: 400 * time.Millisecond, MaxFaults: 1}
	rig := newFaultyCrashRig(t, kind, EpochConfig{FlushAt: 5}, fault)
	rig.stop()
	rig.floor = 3
	rig.start()
	rig.submit(5, "inflight-value") // cuts an epoch; the proxy holds its push
	untilTrue(t, "the push to reach the proxy", func() bool { return fault.Injected() == 1 })
	rig.submit(2, "tail-value") // below the floor of 3
	drainer := dialed(t, rig.addr)
	drained := make(chan error, 1)
	go func() {
		_, err := drainer.DrainMode(true) // drops the tail, then waits behind the push
		drained <- err
	}()
	// The drain's barrier queues behind the in-flight epoch only once the
	// tail's drop is logged.
	untilTrue(t, "the tail's drop", func() bool {
		st := rig.stats()
		return st.Dropped == 2 && st.QueuedEpochs == 2
	})
	rig.crash() // crash with epoch 1 unresolved and the tail's drop logged
	drainer.Close()
	<-drained

	rig.next = rig.anlz
	rig.start()
	if stats := rig.stats(); stats.RecoveredEpochs != 1 || stats.RecoveredItems != 5 {
		t.Fatalf("post-restart stats = %+v, want the in-flight epoch of 5 recovered", stats)
	}
	checkReconciled(t, rig.drain())
	if got := rig.histogram(); got["inflight-value"] != 5 || got["tail-value"] != 0 {
		t.Errorf("histogram = %v, want 5 inflight-value and no tail-value", got)
	}
}

// TestRestartAfterKillAtAnyInstant: a client streams stamped Submits to a
// WAL-backed shuffler that cuts an epoch every 4 reports and pushes it to
// the analyzer, while the test SIGKILLs the shuffler at instants drawn from
// faultSeed and restarts it at the same address each time. A kill can land
// anywhere in a running shuffler — mid-ingest, between a cut and its push,
// between a push and its ack record — and the client's same-stamp retries,
// the WAL and downstream dedup must still deliver every report exactly
// once: after the final drain the analyzer's counts equal the submitted
// counts, and the shuffler's ledger balances with nothing dropped.
func TestRestartAfterKillAtAnyInstant(t *testing.T) {
	const kills = 5
	seed := faultSeed(t, 0x4b11)
	rng := rand.New(rand.NewPCG(seed, 1))
	rig := newCrashRig(t, core.KindEnvelopes, EpochConfig{FlushAt: 4})
	cl := dialed(t, rig.addr)

	// A pool of batches of 1 to 3 reports, each of one value, submitted
	// round and round: a resubmitted batch is new reports to the pipeline.
	type report struct {
		batch core.Batch
		value string
	}
	pool := make([]report, 24)
	for i := range pool {
		pool[i].value = fmt.Sprintf("value-%d", i%5)
		pool[i].batch = rig.batch(1+i%3, pool[i].value)
	}
	want := make(map[string]int)
	stop := make(chan struct{})
	streamed := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				streamed <- nil
				return
			default:
			}
			r := pool[i%len(pool)]
			if err := cl.Submit(r.batch); err != nil {
				streamed <- fmt.Errorf("submit %d of %d reports: %v", i, r.batch.Len(), err)
				return
			}
			want[r.value] += r.batch.Len()
		}
	}()

	for k := 0; k < kills; k++ {
		time.Sleep(time.Duration(rng.IntN(250)) * time.Millisecond)
		rig.crash()
		rig.start()
	}
	close(stop)
	if err := <-streamed; err != nil {
		t.Fatal(err)
	}

	stats := rig.drain()
	checkReconciled(t, stats)
	if stats.Dropped != 0 || stats.EpochsFailed != 0 {
		t.Errorf("after %d kills: dropped %d, failed epochs %d (%s), want none", kills, stats.Dropped, stats.EpochsFailed, stats.LastError)
	}
	got, undec, err := rig.anlzSvc.Histogram()
	if err != nil || undec != 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("after %d kills the analyzer counted %v (%d undecryptable), want the submitted %v", kills, got, undec, want)
	}
	total := 0
	for _, n := range want {
		total += n
	}
	t.Logf("%d reports submitted across %d kills", total, kills)
}

// TestKillDuringWALReplay: a shuffler restarted over a WAL of thousands of
// batch records spends its start-up replaying them. SIGKILLs at instants
// drawn from faultSeed, each before the restarted child could print its
// address — mid-replay, or mid-way through the zeros of the segment the
// reopened log starts — must lose and duplicate nothing: the start after
// them drains to an analyzer that counts every submitted report exactly
// once, with the shuffler's ledger balanced and nothing dropped.
func TestKillDuringWALReplay(t *testing.T) {
	const records, kills = 3000, 5
	rng := rand.New(rand.NewPCG(faultSeed(t, 0x7e9a), 2))
	// Epochs of 1000 cut and resolve while the log fills, so the replay
	// skips resolved records as well as keeping pending ones.
	rig := newCrashRig(t, core.KindEnvelopes, EpochConfig{FlushAt: 1000})
	want := make(map[string]int)
	for i := 0; i < records; i++ {
		value := fmt.Sprintf("value-%d", i%7)
		rig.submit(1+i%2, value)
		want[value] += 1 + i%2
	}
	rig.crash()

	// One start run to its address times a whole replay; each kill then
	// lands inside that span of a fresh start.
	began := time.Now()
	rig.start()
	replay := time.Since(began)
	rig.crash()
	for k := 0; k < kills; k++ {
		c, err := faultnet.SpawnChild(t, rig.spec())
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(rng.Int64N(int64(replay))))
		if err := c.Kill(); err != nil {
			t.Fatal(err)
		}
	}

	segs, _ := filepath.Glob(filepath.Join(rig.cfg.WALDir, walSegmentPrefix+"-*.log"))
	rig.start()
	stats := rig.drain()
	checkReconciled(t, stats)
	if stats.Dropped != 0 || stats.EpochsFailed != 0 {
		t.Errorf("after %d kills in replay: dropped %d, failed epochs %d (%s), want none", kills, stats.Dropped, stats.EpochsFailed, stats.LastError)
	}
	got, undec, err := rig.anlzSvc.Histogram()
	if err != nil || undec != 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("after %d kills in replay the analyzer counted %v (%d undecryptable), want the submitted %v", kills, got, undec, want)
	}
	t.Logf("%d batch records; a start over them took %v; the kills left %d segments", records, replay, len(segs))
}

// TestHop1RestartAdmitsOnce: hop 1 blinds a batch when it keeps it, but its
// WAL holds the batch as it arrived, so a restarted hop 1 must blind what it
// recovers — once. A WAL-backed hop 1 in a child process is SIGKILLed while
// it holds an epoch of 6 cut but not acked (its push held at a proxy, which
// is then closed, so the push never lands) and 4 reports pending, and is
// restarted over its log; hop 2 thresholds at 3 over everything hop 1
// forwards. The histogram must be the one the same reports give without
// the crash: 5 of x and 5 of y. A recovered report left unblinded, or
// blinded twice, is a crowd of one at hop 2 and is suppressed.
func TestHop1RestartAdmitsOnce(t *testing.T) {
	want := map[string]int{"x": 5, "y": 5}
	for _, crash := range []bool{false, true} {
		if got := hop1Run(t, crash); !reflect.DeepEqual(got, want) {
			t.Errorf("crash %v: the analyzer counted %v, want %v", crash, got, want)
		}
	}
}

// hop1Run runs TestHop1RestartAdmitsOnce's chain once, with or without the
// crash, and returns the analyzer's histogram.
func hop1Run(t *testing.T, crash bool) map[string]int {
	t.Helper()
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzSvc, anlz := serveAnalyzer(t, anlzPriv)
	sec2, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := shuffler.NewStage("shuffler2", sec2, shuffler.Params{Threshold: shuffler.Threshold{Naive: 3}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := NewStageService(st2, []string{anlz}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc2.Close() })
	hop2 := serveService(t, svc2)
	alpha, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client := &encoder.BlindedClient{Shuffler1Blinding: alpha.H, Shuffler2Blinding: sec2.Blinding.H,
		Shuffler2Key: sec2.Priv.Public(), AnalyzerKey: anlzPriv.Public(), Rand: crand.Reader}
	batch := func(x, y int) core.Batch {
		var b core.Batch
		for i := 0; i < x+y; i++ {
			v := map[bool]string{true: "x", false: "y"}[i < x]
			env, err := client.Encode("c:"+v, []byte(v))
			if err != nil {
				t.Fatal(err)
			}
			b.Blinded = append(b.Blinded, env)
		}
		return b
	}

	// In the crash run the push of the first epoch waits at the proxy for a
	// minute, so the crash lands with the epoch cut and unresolved.
	plan := &faultnet.Plan{Seed: 1, PDelay: 1, MaxFaults: 1}
	if crash {
		plan.Delay = time.Minute
	}
	px, err := faultnet.Listen(plan, hop2)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	spec := childSpec{Kind: core.KindBlinded, Hop1: true, Floor: 1, Priv: anlzPriv.Bytes(), X: alpha.X,
		Next: []string{px.Addr()}, Listen: "127.0.0.1:0", Cfg: EpochConfig{WALDir: t.TempDir(), FlushAt: 6}}
	hop1 := startChild(t, spec)
	cl := dialed(t, hop1.Addr)
	if err := cl.Submit(batch(3, 3)); err != nil { // cuts the epoch
		t.Fatal(err)
	}
	untilTrue(t, "the push to reach the proxy", func() bool { return plan.Injected() == 1 })
	if err := cl.Submit(batch(2, 2)); err != nil { // pending
		t.Fatal(err)
	}
	if crash {
		cl.Close()
		if err := hop1.Kill(); err != nil {
			t.Fatal(err)
		}
		px.Close() // the held push dies with the link
		spec.Next = []string{hop2}
		hop1 = startChild(t, spec)
		cl = dialed(t, hop1.Addr)
		if st, err := cl.Stats(); err != nil || st.RecoveredEpochs != 1 || st.RecoveredItems != 10 {
			t.Fatalf("restart recovered %+v (%v), want the cut epoch of 6 and 4 pending", st, err)
		}
	}
	if _, err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := dialed(t, hop2).Drain(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := hop1.Stop(); err != nil {
		t.Fatal(err)
	}
	counts, _, err := anlzSvc.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// faultSeed derives a deterministic seed for a test's fault or kill
// schedule: def when run locally, a hash of PROCHLO_FAULT_SEED (CI sets it
// to the commit SHA) otherwise, so each commit draws a distinct schedule
// that its log reproduces.
func faultSeed(t *testing.T, def uint64) uint64 {
	s := os.Getenv("PROCHLO_FAULT_SEED")
	if s == "" {
		return def
	}
	h := fnv.New64a()
	h.Write([]byte(s))
	t.Logf("fault seed %#x (PROCHLO_FAULT_SEED=%q)", h.Sum64(), s)
	return h.Sum64()
}

// untilTrue polls cond every 5 ms for up to 5 s and fails the test naming
// what if it never holds.
func untilTrue(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
