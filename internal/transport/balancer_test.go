package transport

import (
	crand "crypto/rand"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/faultnet"
	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
)

// deadAddr reserves a loopback port and frees it: dialing it fails fast
// with connection-refused, the portable dead replica.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// killableServer serves a Service while tracking accepted connections, so
// a test can drop a live party's established connections (dropConns) and
// leave its listener up for redials.
type killableServer struct {
	l     net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func serveKillable(t *testing.T, svc Service) *killableServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &killableServer{l: l, conns: make(map[net.Conn]struct{})}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			go func() {
				serveConn(conn, svc)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
		}
	}()
	t.Cleanup(func() {
		s.l.Close()
		s.dropConns()
	})
	return s
}

func (s *killableServer) addr() string { return s.l.Addr().String() }

func (s *killableServer) dropConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// undialed builds a client whose connection dials on first use, so a
// replica that is down can stand in the replica set with nothing ever having
// reached it. The client is closed when the test ends.
func undialed(t *testing.T, addr string) *Client {
	t.Helper()
	cl := &Client{peerConn: &peerConn{addr: addr}}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// dialed dials addr, closing the client when the test ends.
func dialed(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// balance starts a balancer over clients and, when the test ends, stops its
// probes before the clients' own cleanups close them — the order
// RemotePipeline.Close keeps.
func balance(t *testing.T, reg *metrics.Registry, labels metrics.Labels, clients ...*Client) *Balancer {
	t.Helper()
	b := NewBalancer(clients, reg, labels)
	t.Cleanup(b.Close)
	return b
}

// useEntryPolicy runs the entry tier under p until the test ends. Call it
// before starting any balancer, so the policy is restored after they stop.
func useEntryPolicy(t *testing.T, p entryPolicy) {
	t.Helper()
	saved := entry
	entry = p
	t.Cleanup(func() { entry = saved })
}

// noProbes is the default policy with the probe loop idle for any test's
// lifetime: the breaker then moves only on submissions.
func noProbes() entryPolicy {
	p := entry
	p.probeEvery = time.Hour
	return p
}

// TestBalancerDialFailover pins the safe-failover rule's clean case: a
// replica whose connection cannot be dialed has ingested nothing, so the
// balancer must move the batch to the next replica and the fleet must count
// every report exactly once.
func TestBalancerDialFailover(t *testing.T) {
	useEntryPolicy(t, noProbes())
	rig := newStreamingRig(t, EpochConfig{})
	b := balance(t, nil, nil, undialed(t, deadAddr(t)), dialed(t, rig.shuf))

	envs := make([]core.Envelope, 5)
	for i := range envs {
		envs[i] = rig.envelope(t, "c:failover", "failover-value")
	}
	if err := b.Submit(core.Batch{Envelopes: envs}); err != nil {
		t.Fatalf("Submit with a dead first replica: %v", err)
	}
	bs := b.Stats()
	if bs.Failovers != 1 || bs.Submitted != int64(len(envs)) {
		t.Errorf("stats = %+v, want 1 failover and %d submitted", bs, len(envs))
	}

	if _, err := dialed(t, rig.shuf).Drain(false); err != nil {
		t.Fatal(err)
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
	if counts["failover-value"] != len(envs) {
		t.Errorf("count = %d, want %d (failover must not lose or duplicate)", counts["failover-value"], len(envs))
	}
}

// TestBalancerBreakerEjectsAndReadmits pins the half-open circuit breaker:
// probes against a dead replica trip the breaker and eject it, submissions
// concentrate on the survivor, and once the address answers a healthy
// Stats again the probe loop readmits it.
func TestBalancerBreakerEjectsAndReadmits(t *testing.T) {
	p := entry
	p.probeEvery, p.breakAfter = 10*time.Millisecond, 2
	useEntryPolicy(t, p)
	rig := newStreamingRig(t, EpochConfig{})
	downAddr := deadAddr(t)
	b := balance(t, nil, nil, undialed(t, downAddr), dialed(t, rig.shuf))

	waitFor := func(what string, cond func(BalancerStats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(b.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, b.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("breaker ejection", func(s BalancerStats) bool { return s.Healthy == 1 && s.Ejections >= 1 })

	// Graceful degradation: the survivor absorbs the whole stream without
	// the rotation ever selecting the ejected replica.
	envs := make([]core.Envelope, 4)
	for i := range envs {
		envs[i] = rig.envelope(t, "c:breaker", "breaker-value")
	}
	if err := b.Submit(core.Batch{Envelopes: envs}); err != nil {
		t.Fatalf("Submit with one replica ejected: %v", err)
	}

	// Revive the address (the same service behind a second listener — any
	// service whose Stats says healthy readmits) and watch the probe loop
	// close the breaker.
	revL, err := Serve(downAddr, rig.svc)
	if err != nil {
		t.Fatal(err)
	}
	defer revL.Close()
	waitFor("breaker readmission", func(s BalancerStats) bool { return s.Healthy == 2 && s.Readmits >= 1 })
}

// TestBalancerEjectsUnhealthyReplica: a replica that still answers but
// whose service is closed reports Healthy false in its Stats, and the probe
// must eject it as it ejects a dead address. Submissions then reach the
// survivor alone, without error and without a failover.
func TestBalancerEjectsUnhealthyReplica(t *testing.T) {
	shrinkRedial(t, 1, time.Millisecond)
	p := entry
	p.probeEvery, p.breakAfter = 10*time.Millisecond, 2
	useEntryPolicy(t, p)
	sick, well := newStreamingRig(t, EpochConfig{}), newStreamingRig(t, EpochConfig{})
	b := balance(t, nil, nil, dialed(t, sick.shuf), dialed(t, well.shuf))

	waitFor := func(what string, cond func(BalancerStats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(b.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, b.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("probes of two healthy replicas", func(s BalancerStats) bool { return s.Probes >= 4 })
	if s := b.Stats(); s.Healthy != 2 || s.Ejections != 0 {
		t.Fatalf("two healthy replicas: %+v, want both admitted", s)
	}

	// The service closes; its listener stays up and answers Stats.
	if err := sick.svc.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := dialed(t, sick.shuf).Stats(); err != nil || st.Healthy {
		t.Fatalf("Stats of the closed service = %+v, %v; want an unhealthy answer", st, err)
	}
	waitFor("the unhealthy replica's ejection", func(s BalancerStats) bool { return s.Healthy == 1 && s.Ejections == 1 })

	const batches = 4
	for i := 0; i < batches; i++ {
		if err := b.Submit(core.Batch{Envelopes: []core.Envelope{well.envelope(t, "c:unhealthy", "unhealthy-value")}}); err != nil {
			t.Fatalf("Submit %d with the unhealthy replica ejected: %v", i, err)
		}
	}
	if s := b.Stats(); s.Submitted != batches || s.Failovers != 0 {
		t.Errorf("stats = %+v, want %d submitted and no failover", s, batches)
	}
	if _, err := dialed(t, well.shuf).Drain(false); err != nil {
		t.Fatal(err)
	}
	counts, _, err := dialed(t, well.anlz).Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if counts["unhealthy-value"] != batches {
		t.Errorf("the survivor counted %d, want %d", counts["unhealthy-value"], batches)
	}
}

// TestBalancerAmbiguousErrorSurfaces pins the other half of the safety
// rule: when a replica's connection dies under an in-flight call, the batch
// may already sit in its write-ahead log, so after the client's own
// same-address retries exhaust, the balancer must surface the error rather
// than fail the batch over to a sibling (which could double-count when the
// replica, or its WAL-recovered successor, delivers it).
func TestBalancerAmbiguousErrorSurfaces(t *testing.T) {
	shrinkRedial(t, 1, time.Millisecond)
	useEntryPolicy(t, noProbes())
	rig := newStreamingRig(t, EpochConfig{})
	// Replica A's link loses every answer: the replica ingests the batch,
	// and the connection closes before the ack arrives. The severed call is
	// ambiguous, and so is each retry, until the redial budget exhausts.
	lossy := &faultnet.Plan{Seed: 1, PDropAck: 1}
	b := balance(t, nil, nil, dialed(t, proxied(t, lossy, rig.shuf)[0]), dialed(t, rig.shuf))

	env := rig.envelope(t, "c:ambiguous", "ambiguous-value")
	if err := b.Submit(core.Batch{Envelopes: []core.Envelope{env}}); err == nil {
		t.Fatal("Submit through a link that loses every ack succeeded, want a surfaced error")
	}
	if fo := b.Stats().Failovers; fo != 0 {
		t.Errorf("failovers = %d, want 0 (an ambiguous failure must never fail over)", fo)
	}
	if lossy.Injected() == 0 {
		t.Error("the lossy link injected no fault")
	}
}

// dropOnceShuffler ingests a Submit and then drops every connection before
// the ack can be written — a deterministic connection drop mid-Submit,
// after the live service accepted the batch.
type dropOnceShuffler struct {
	*StageService
	drop func()

	mu      sync.Mutex
	dropped bool
}

func (d *dropOnceShuffler) serveFrame(method uint8, body, dst []byte) ([]byte, error) {
	dst, err := d.StageService.serveFrame(method, body, dst)
	d.mu.Lock()
	first := !d.dropped && err == nil && method == methodSubmit
	if first {
		d.dropped = true
	}
	d.mu.Unlock()
	if first {
		d.drop()
	}
	return dst, err
}

// TestSubmitAllResumesAfterConnDrop pins the client's transient-retry
// contract: a connection dropped mid-Submit — after the service ingested
// the batch but before the ack arrived — must be retried on a fresh
// connection with the same (stream, seq) stamp and absorbed by the
// service's dedup, so the batch lands once without the caller resubmitting
// a single report.
func TestSubmitAllResumesAfterConnDrop(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{})
	wrapped := &dropOnceShuffler{StageService: rig.svc}
	srv := serveKillable(t, wrapped)
	wrapped.drop = srv.dropConns

	cl, err := Dial(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	envs := make([]core.Envelope, 6)
	for i := range envs {
		envs[i] = rig.envelope(t, "c:drop", "drop-value")
	}
	if err := cl.Submit(core.Batch{Envelopes: envs}); err != nil {
		t.Fatalf("Submit across a dropped connection: %v", err)
	}

	if stats := rig.svc.Stats(); stats.Accepted != int64(len(envs)) {
		t.Errorf("service accepted = %d, want %d (the stamped retry must dedup, not re-ingest)", stats.Accepted, len(envs))
	}
	if _, err := rig.svc.Drain(false); err != nil {
		t.Fatal(err)
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
	if counts["drop-value"] != len(envs) {
		t.Errorf("count = %d, want %d (no loss, no double count)", counts["drop-value"], len(envs))
	}
}

// slowOpenSink is the analyzer's stage with each Admit — its decryption —
// counted and slowed, to hold open the window a racing replay must not slip
// through.
type slowOpenSink struct {
	*shuffler.Sink
	opens atomic.Int64
}

func (s *slowOpenSink) Admit(in core.Batch) core.Batch {
	s.opens.Add(1)
	time.Sleep(10 * time.Millisecond)
	return s.Sink.Admit(in)
}

// TestForwardDedupConcurrentRace pins the fan-in dedup under the race the
// fleet makes routine: two upstream replicas (here, goroutines) pushing the
// same (stream, epoch) concurrently. Exactly one push may ingest; every
// racer must still be acked with the accepted count. The analyzer runs the
// same engine and dedup: racing deliveries of one epoch decrypt it once, the
// losers waiting for the winner instead of opening the batch only to discard
// it.
func TestForwardDedupConcurrentRace(t *testing.T) {
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := shuffler.NewStage("analyzer", shuffler.Secrets{Priv: anlzPriv}, shuffler.Params{})
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowOpenSink{Sink: sink.(*shuffler.Sink)}
	anlzSvc, err := NewStageService(slow, nil, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer anlzSvc.Close()
	anlzL, err := Serve("127.0.0.1:0", anlzSvc)
	if err != nil {
		t.Fatal(err)
	}
	defer anlzL.Close()

	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2Priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2 := &shuffler.Shuffler2{
		Blinding: blindKP, Priv: s2Priv,
		Rand: rand.New(rand.NewPCG(27, 31)), MinBatch: 1,
	}
	svc, err := NewStageService(s2, []string{anlzL.Addr().String()}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	benc := &encoder.BlindedClient{
		Shuffler2Blinding: blindKP.H,
		Shuffler2Key:      s2Priv.Public(),
		AnalyzerKey:       anlzPriv.Public(),
		Rand:              crand.Reader,
	}
	envs := make([]core.BlindedEnvelope, 5)
	for i := range envs {
		envs[i], err = benc.Encode("c:race", []byte("race-value"))
		if err != nil {
			t.Fatal(err)
		}
	}

	const racers = 8
	batch := core.Batch{Blinded: envs}
	var wg sync.WaitGroup
	errs := make([]error, racers)
	accepted := make([]int, racers)
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			accepted[g], errs[g] = svc.Submit(11, 1, batch)
		}(g)
	}
	wg.Wait()
	for g := 0; g < racers; g++ {
		if errs[g] != nil {
			t.Fatalf("racer %d: %v", g, errs[g])
		}
		if accepted[g] != len(envs) {
			t.Errorf("racer %d accepted = %d, want %d (idempotent ack)", g, accepted[g], len(envs))
		}
	}
	if pending := svc.Stats().Pending; pending != len(envs) {
		t.Fatalf("pending after %d racing forwards = %d, want %d", racers, pending, len(envs))
	}
	if _, err := svc.Drain(false); err != nil {
		t.Fatal(err)
	}
	if st, err := anlzSvc.Drain(false); err != nil || st.Cumulative.Forwarded != len(envs) {
		t.Errorf("analyzer records = %d (%v), want %d (exactly-once under the race)", st.Cumulative.Forwarded, err, len(envs))
	}

	opensBefore := slow.opens.Load()
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := anlzSvc.Submit(11, 2, core.Batch{Payloads: [][]byte{[]byte("not a ciphertext")}}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := slow.opens.Load() - opensBefore; n != 1 {
		t.Errorf("analyzer opened the raced epoch %d times, want once", n)
	}
	st, err := anlzSvc.Drain(false)
	if err != nil || st.EpochsFlushed != 2 || st.Accepted != int64(len(envs))+1 || st.Cumulative.Undecryptable != 1 {
		t.Errorf("analyzer stats after the race = %+v, %v; want 2 epochs and the 1 bad record counted once", st, err)
	}
}

// TestDrainForceReleasesBelowFloor pins the final-drain contract: a plain
// drain must preserve a below-floor epoch (the anonymity floor holds), and
// a forced drain must release it as Dropped — counted, reconciled, and
// never delivered — so a fleet shutting down for good leaves no report in
// limbo. A second forced drain is an empty barrier.
func TestDrainForceReleasesBelowFloor(t *testing.T) {
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
	stats, err := cl.Drain(false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pending != 3 || stats.Dropped != 0 {
		t.Fatalf("plain drain stats = %+v, want the below-floor epoch preserved", stats)
	}

	stats, err = cl.Drain(true)
	if err != nil {
		t.Fatalf("forced drain: %v", err)
	}
	if stats.Pending != 0 || stats.Dropped != 3 || stats.EpochsFlushed != 0 {
		t.Fatalf("forced drain stats = %+v, want 0 pending, 3 dropped, nothing flushed", stats)
	}
	if stats.Unaccounted != 0 {
		t.Fatalf("forced drain unaccounted = %d, want the dropped reports reconciled", stats.Unaccounted)
	}

	stats, err = cl.Drain(true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pending != 0 || stats.Dropped != 3 {
		t.Fatalf("second forced drain stats = %+v, want an idempotent barrier", stats)
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
	if counts["floor-value"] != 0 {
		t.Errorf("count = %d, want 0 (a force-dropped epoch must never be delivered)", counts["floor-value"])
	}
}

// TestHealthzLiveness pins the liveness bit of the one status call, which
// balancer probes and prochlod's /healthz read: Stats answers healthy until
// the service is closed, and unhealthy after.
func TestHealthzLiveness(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{})

	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reply, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Healthy {
		t.Error("Stats on a live service reports unhealthy")
	}
	if err := rig.svc.Close(); err != nil {
		t.Fatal(err)
	}
	if reply, err = cl.Stats(); err != nil {
		t.Fatal(err)
	}
	if reply.Healthy {
		t.Error("Stats on a closed service still reports healthy")
	}
}

// shrinkRedial makes every send give up after attempts redials from base
// until the test ends, for tests that must exhaust the budget quickly. Call
// it before starting any party, so the policy is restored after they stop.
func shrinkRedial(t *testing.T, attempts int, base time.Duration) {
	t.Helper()
	saved := redial
	redial = redialPolicy{attempts: attempts, base: base}
	t.Cleanup(func() { redial = saved })
}
