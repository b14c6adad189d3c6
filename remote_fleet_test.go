package prochlo_test

import (
	"bytes"
	crand "crypto/rand"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prochlo"
	"prochlo/internal/analyzer"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/group"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

// trackedServer serves one party while tracking every accepted
// connection, so a test can kill a replica the way kill -9 does: the
// listener and all established sockets die together. transport.Serve only
// closes the listener, which leaves old connections pointing at the dead
// service — fine when each phase re-dials, but a fleet pipeline's
// long-lived connections must instead see the connection sever and redial
// the WAL-recovered successor at the same address. It also counts the
// connections it accepted.
type trackedServer struct {
	l       net.Listener
	accepts atomic.Int64
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
}

func serveTracked(addr string, svc transport.Service) (*trackedServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &trackedServer{l: l, conns: make(map[net.Conn]struct{})}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			s.accepts.Add(1)
			s.mu.Lock()
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			go func() {
				transport.ServeConn(conn, svc)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
		}
	}()
	return s, nil
}

func (s *trackedServer) addr() string { return s.l.Addr().String() }

// kill severs the listener and every established connection at once.
func (s *trackedServer) kill() {
	s.l.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// serveTrackedAt binds svc at a concrete address, retrying briefly: a
// restarted replica must reclaim its predecessor's address so redialing
// peers find the successor.
func serveTrackedAt(addr string, svc transport.Service) (*trackedServer, error) {
	var srv *trackedServer
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if srv, err = serveTracked(addr, svc); err == nil {
			return srv, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, fmt.Errorf("rebinding %s: %w", addr, err)
}

// TestRemoteChainFleetCrashRestartSoak is the fleet acceptance run: the
// blinded chain deployed as 2 shuffler-1 replicas x 2 shuffler-2 partitions
// x 2 analyzer partitions, with the WAL enabled at every shuffler replica
// and seeded fault injection on the inter-tier links. Mid-run, a hop-1
// replica is crash-killed with an epoch pending and restarted over its WAL
// (the balancer must eject it, concentrate load on the survivor, and
// readmit the recovered successor), and the seeded fault plan crash-kills a
// hop-2 partition out from under an in-flight fan-out push (the upstream
// sink must redial the WAL-recovered successor and the partition's dedup
// must absorb any replay). The fleet-wide drain must still produce a
// histogram byte-identical to the uninterrupted in-process pipeline with
// zero drops and a balanced ledger at every replica.
//
// Thresholding is disabled for the same reason as the single-chain crash
// soak: a restart reseeds the stage RNG, and here partitioning additionally
// splits crowds across replicas — exactly-once delivery is the promise
// under test, not reproduction of random threshold draws.
func TestRemoteChainFleetCrashRestartSoak(t *testing.T) {
	const (
		seed    = 43
		reports = 240
		chunk   = 60
	)
	labels, data := sampleReports(reports)

	// Uninterrupted in-process reference. Without thresholding the
	// histogram is a pure multiset of the submitted reports, so epoch and
	// partition boundaries cannot change it — one flush suffices.
	p, err := prochlo.New(prochlo.WithSeed(seed), prochlo.WithMode(prochlo.ModeBlinded),
		prochlo.WithoutThreshold(), prochlo.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitBatch(labels, data); err != nil {
		t.Fatal(err)
	}
	ref, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	inProcess := ref.Histogram

	// Persistent parties and key material: both analyzer partitions share
	// one key, both shuffler-1 replicas one blinding exponent and both
	// shuffler-2 replicas the blinding and hybrid keys (as daemons sharing a
	// key file would); only shuffler processes die.
	anlzAddrs := startFleet(t, nil, 2, shuffler.Params{}, nil).Analyzers
	s1Sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	s2Sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	params := shuffler.Params{Seed: seed, MinBatch: 1}

	// Replica state, guarded by mu: the seeded kill hook mutates it from a
	// hop-1 flusher goroutine while the test goroutine reads it.
	var mu sync.Mutex
	s1svcs := make([]*transport.StageService, 2)
	s2svcs := make([]*transport.StageService, 2)
	s1Srvs := make([]*trackedServer, 2)
	s2Srvs := make([]*trackedServer, 2)
	s1WALs := [2]string{t.TempDir(), t.TempDir()}
	s2WALs := [2]string{t.TempDir(), t.TempDir()}

	// Seeded fault schedules, shared across restarts. CI derives the seed
	// from the commit SHA via PROCHLO_FAULT_SEED.
	fs := faultSeed(t, 0x7F17)
	s2Faults := [2]*transport.FaultPlan{
		// Replica 0's first analyzer push loses its ack: the redialed retry
		// must be absorbed by the analyzer's (stream, epoch) dedup.
		{Seed: fs + 2, PDropAck: 1, MaxFaults: 1},
		// Replica 1's first analyzer push opens a 100ms partition window;
		// the sink's backoff outlasts it and the retry goes through.
		{Seed: fs + 3, PPartition: 1, PartitionFor: 100 * time.Millisecond, MaxFaults: 1},
	}
	start2 := func(i int, addr string) error {
		svc, err := newStage("shuffler2", s2Sec, params, anlzAddrs,
			transport.EpochConfig{WALDir: s2WALs[i], Fault: s2Faults[i]})
		if err != nil {
			return err
		}
		srv, err := serveTrackedAt(addr, svc)
		if err != nil {
			return err
		}
		mu.Lock()
		s2svcs[i], s2Srvs[i] = svc, srv
		mu.Unlock()
		return nil
	}
	for i := range s2svcs {
		if err := start2(i, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	s2Addrs := []string{s2Srvs[0].addr(), s2Srvs[1].addr()}

	// The seeded whole-replica kill: the first fan-out push from hop-1
	// replica 0 crash-kills hop-2 partition 0 (listener and sockets sever,
	// engine aborts mid-epoch — kill -9) and restarts it over its WAL at
	// the same address. The failed push redials and lands on the successor.
	killS2 := func() {
		mu.Lock()
		srv, svc := s2Srvs[0], s2svcs[0]
		mu.Unlock()
		addr := srv.addr()
		srv.kill()
		svc.Abort()
		if err := start2(0, addr); err != nil {
			t.Errorf("restarting killed shuffler2 replica: %v", err)
		}
	}
	s1Faults := [2]*transport.FaultPlan{
		{Seed: fs, PKill: 1, MaxFaults: 1, Kill: killS2},
		// Replica 1's first two partition pushes are duplicated: the
		// per-partition (stream, epoch) dedup must absorb the replays.
		{Seed: fs + 1, PDup: 1, MaxFaults: 2},
	}
	start1 := func(i int, addr string) error {
		svc, err := newStage("shuffler1", s1Sec, params, s2Addrs,
			transport.EpochConfig{FlushAt: 1000, WALDir: s1WALs[i], Fault: s1Faults[i]})
		if err != nil {
			return err
		}
		srv, err := serveTrackedAt(addr, svc)
		if err != nil {
			return err
		}
		mu.Lock()
		s1svcs[i], s1Srvs[i] = svc, srv
		mu.Unlock()
		return nil
	}
	for i := range s1svcs {
		if err := start1(i, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	s1Addrs := []string{s1Srvs[0].addr(), s1Srvs[1].addr()}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, srv := range append(s1Srvs, s2Srvs...) {
			if srv != nil {
				srv.kill()
			}
		}
		for _, svc := range append(s1svcs, s2svcs...) {
			if svc != nil {
				svc.Close()
			}
		}
	}()

	// One long-lived fleet pipeline for the whole run — its connections,
	// the balancer, and the drain barrier all live through the replica
	// deaths, at the default probe cadence and breaker threshold.
	rp, err := prochlo.DialRemoteChainFleet(s1Addrs, s2Addrs, anlzAddrs,
		prochlo.WithRemoteWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	submit := func(at int) {
		t.Helper()
		if err := rp.SubmitBatch(labels[at:at+chunk], data[at:at+chunk]); err != nil {
			t.Fatalf("submitting chunk at %d: %v", at, err)
		}
	}
	waitBalancer := func(what string, cond func(transport.BalancerStats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(rp.BalancerStats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, rp.BalancerStats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Chunk 0 enters through hop-1 replica 0 (round-robin starts there) and
	// stays pending (FlushAt is beyond reach). Crash-kill the replica
	// mid-epoch; the health probes must trip the breaker and eject it.
	submit(0)
	mu.Lock()
	srv0, svc0 := s1Srvs[0], s1svcs[0]
	mu.Unlock()
	s1Addr0 := srv0.addr()
	srv0.kill()
	svc0.Abort()
	waitBalancer("ejection of the dead replica", func(bs transport.BalancerStats) bool {
		return bs.Healthy == 1
	})

	// Graceful degradation: with replica 0 ejected the survivor absorbs the
	// whole submission stream.
	submit(chunk)

	// Restart replica 0 over its WAL at the same address: it must recover
	// the killed epoch, and the probes must readmit it.
	if err := start1(0, s1Addr0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	svc0 = s1svcs[0]
	mu.Unlock()
	if st := svc0.Stats(); st.RecoveredItems != chunk {
		t.Fatalf("restarted hop-1 replica recovered %d items, want %d", st.RecoveredItems, chunk)
	}
	waitBalancer("readmission of the recovered replica", func(bs transport.BalancerStats) bool {
		return bs.Healthy == 2
	})

	// Chunk 2 lands back on the readmitted replica (on the connection the
	// readmitting probe redialed) and joins the recovered epoch; chunk 3
	// goes to replica 1.
	submit(2 * chunk)
	submit(3 * chunk)

	// Fleet-wide drain in chain order. Hop-1 replica 0's first push draws
	// the seeded kill of hop-2 partition 0; the drain barrier must ride out
	// the restart and still reconcile every replica's ledger.
	res, err := rp.Flush()
	if err != nil {
		t.Fatal(err)
	}

	if got, want := canonicalHistogram(res.Histogram), canonicalHistogram(inProcess); !bytes.Equal(got, want) {
		t.Errorf("fleet histogram differs from uninterrupted in-process run:\nfleet:\n%s\nin-process:\n%s", got, want)
	}
	if res.Undecryptable != 0 {
		t.Errorf("undecryptable = %d, want 0", res.Undecryptable)
	}

	fleet, err := rp.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	for ti, tier := range fleet {
		for ri, s := range tier {
			if s.Dropped != 0 || s.EpochsFailed != 0 {
				t.Errorf("hop %d replica %d: dropped=%d failed=%d (%s), want clean delivery",
					ti+1, ri, s.Dropped, s.EpochsFailed, s.LastError)
			}
			if s.Pending != 0 || s.QueuedEpochs != 0 {
				t.Errorf("hop %d replica %d: drain left pending=%d queued=%d", ti+1, ri, s.Pending, s.QueuedEpochs)
			}
			if s.Unaccounted != 0 {
				t.Errorf("hop %d replica %d: unaccounted = %d, want a balanced ledger", ti+1, ri, s.Unaccounted)
			}
		}
	}

	bs := rp.BalancerStats()
	if bs.Submitted != reports {
		t.Errorf("balancer submitted = %d, want %d", bs.Submitted, reports)
	}
	if bs.Ejections == 0 || bs.Readmits == 0 || bs.Healthy != 2 || bs.Probes == 0 {
		t.Errorf("balancer stats = %+v, want >=1 ejection, >=1 readmit, 2 healthy, probes running", bs)
	}
	for i, f := range append(s1Faults[:], s2Faults[:]...) {
		if f.Injected() == 0 {
			t.Errorf("fault plan %d injected no faults, want every link exercised", i)
		}
	}
}

// TestRemotePipelineDialsEachPartyOnce pins the one-connection-per-party
// rule: a fleet pipeline dials every party once, and its submissions,
// stats, drains and the balancer's health probes all travel on those
// connections. Each entry replica accepts exactly one connection, and no
// party accepts one after the dial returns, however long the pipeline runs.
func TestRemotePipelineDialsEachPartyOnce(t *testing.T) {
	labels, data := sampleReports(40)
	var srvs []*trackedServer
	serve := func(svc transport.Service) string {
		srv, err := serveTracked("127.0.0.1:0", svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.kill)
		srvs = append(srvs, srv)
		return srv.addr()
	}
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzAddr := serve(transport.NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv}))
	s2Sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	params := shuffler.Params{MinBatch: 1}
	s2svc, err := newStage("shuffler2", s2Sec, params, []string{anlzAddr}, transport.EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2svc.Close() })
	s2Addr := serve(s2svc)
	s1Sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	var s1Addrs []string
	for i := 0; i < 2; i++ {
		svc, err := newStage("shuffler1", s1Sec, params, []string{s2Addr}, transport.EpochConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		s1Addrs = append(s1Addrs, serve(svc))
	}
	entryReplicas := srvs[len(srvs)-2:]

	rp, err := prochlo.DialRemoteChainFleet(s1Addrs, []string{s2Addr}, []string{anlzAddr},
		prochlo.WithRemoteWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	atDial := make([]int64, len(srvs))
	for i, srv := range srvs {
		atDial[i] = srv.accepts.Load()
	}

	// Two submissions, one per entry replica, then stats and a drain.
	for at := 0; at < len(labels); at += len(labels) / 2 {
		if err := rp.SubmitBatch(labels[at:at+len(labels)/2], data[at:at+len(labels)/2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rp.Stats(); err != nil {
		t.Fatal(err)
	}
	res, err := rp.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.ShufflerStats.Received != len(labels) {
		t.Fatalf("hop 2 received %d reports, want %d", res.ShufflerStats.Received, len(labels))
	}
	// Idle through at least three probe rounds: a round probes every entry
	// replica, and the fourth has started only once three have finished.
	deadline := time.Now().Add(10 * time.Second)
	for rp.BalancerStats().Probes < int64(4*len(entryReplicas)) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for three probe rounds: %+v", rp.BalancerStats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	for i, srv := range entryReplicas {
		if n := srv.accepts.Load(); n != 1 {
			t.Errorf("entry replica %d accepted %d connections, want 1", i, n)
		}
	}
	for i, srv := range srvs {
		if n := srv.accepts.Load(); n != atDial[i] {
			t.Errorf("party %s accepted %d connections after the dial returned, want 0", srv.addr(), n-atDial[i])
		}
	}
}

// oneCrowd is n reports of one crowd, every one carrying the same value.
func oneCrowd(n int) (labels []string, data [][]byte) {
	for i := 0; i < n; i++ {
		labels, data = append(labels, "one-crowd"), append(data, []byte("one-value"))
	}
	return labels, data
}

// TestHop1ReplicasShareAlpha: the blinding exponent α is tier key material.
// A crowd of exactly T reports that enters half through each of two hop-1
// replicas must reach hop 2 as one pseudonym and pass a threshold of T; were
// each replica to blind with an α of its own, hop 2 would see two crowds of
// T/2 and drop both.
func TestHop1ReplicasShareAlpha(t *testing.T) {
	const T = 10
	labels, data := oneCrowd(T)
	f := startFleet(t, []transport.Tier{{Role: "shuffler1", Replicas: 2}, {Role: "shuffler2", Replicas: 1}}, 1,
		shuffler.Params{Threshold: shuffler.Threshold{Naive: T}}, nil)
	rp := dialFleet(t, f, prochlo.WithRemoteWorkers(1))
	for at := 0; at < T; at += T / 2 {
		if err := rp.SubmitBatch(labels[at:at+T/2], data[at:at+T/2]); err != nil {
			t.Fatal(err)
		}
	}
	fleet, err := rp.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	for ri, s := range fleet[0] {
		if s.Accepted != T/2 {
			t.Fatalf("hop-1 replica %d accepted %d reports, want %d (one half each)", ri, s.Accepted, T/2)
		}
	}
	res, err := rp.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Histogram["one-value"]; got != T {
		t.Errorf("analyzer counted %d of the crowd's %d reports, want all: the replicas split the crowd", got, T)
	}
}

// TestDialRefusesHop1ReplicasThatDisagree: clients encrypt C1 on the hop-1
// tier's public blinding key A, so a 2×1×1 fleet whose entry replicas start
// from two different key files would silently suppress every report that
// enters the odd replica (each reaches hop 2 as a crowd of one). The dial
// fetches A from every entry replica and refuses, naming both addresses. It
// refuses a key served without a valid proof of α too: a hop 1 that served
// Shuffler 2's Y, or 2Y, would compute C2 − C1 (or C2 − C1/2) = H(crowd) and
// read every crowd ID.
func TestDialRefusesHop1ReplicasThatDisagree(t *testing.T) {
	anlzAddrs := startFleet(t, nil, 1, shuffler.Params{}, nil).Analyzers
	s2Sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	serve := func(st shuffler.Stage, next []string) string {
		svc, err := transport.NewStageService(st, next, transport.EpochConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		srv, err := serveTracked("127.0.0.1:0", svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.kill)
		return srv.addr()
	}
	stage := func(role string, sec shuffler.Secrets) shuffler.Stage {
		st, err := shuffler.NewStage(role, sec, shuffler.Params{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	hop2 := serve(stage("shuffler2", s2Sec), anlzAddrs)
	hop1 := func() (string, shuffler.Secrets) {
		sec, err := shuffler.GenerateSecrets() // a key file of its own
		if err != nil {
			t.Fatal(err)
		}
		return serve(stage("shuffler1", sec), []string{hop2}), sec
	}
	a, aSec := hop1()
	b, _ := hop1()
	rp, err := prochlo.DialRemoteChainFleet([]string{a, b}, []string{hop2}, anlzAddrs)
	if err == nil {
		rp.Close()
		t.Fatal("dial accepted hop-1 replicas that serve different blinding keys")
	}
	if rp != nil || !strings.Contains(err.Error(), a) || !strings.Contains(err.Error(), b) ||
		!strings.Contains(err.Error(), "serve different blinding keys") {
		t.Fatalf("dial = %v, %v; want no pipeline and an error naming %s and %s", rp, err, a, b)
	}

	proof := aSec.Blinding.ProvenKey()
	proof = proof[len(proof)-64:]
	y2 := elgamal.NewPoint(group.Default(), group.Default().Add(s2Sec.Blinding.H.Element(), s2Sec.Blinding.H.Element()))
	for name, served := range map[string][]byte{
		"Y with A's proof":  append(s2Sec.Blinding.H.Compressed(), proof...),
		"2Y with A's proof": append(y2.Compressed(), proof...),
		"A with no proof":   aSec.Blinding.H.Bytes(),
		"the identity":      elgamal.Point{}.Bytes(),
	} {
		forged := serve(servedKeys{stage("shuffler1", aSec), served, nil}, []string{hop2})
		rp, err = prochlo.DialRemoteChainFleet([]string{forged}, []string{hop2}, anlzAddrs)
		if err == nil {
			rp.Close()
			t.Fatalf("dial accepted a hop 1 serving %s", name)
		}
		if want := "shuffler 1 blinding key: elgamal: "; rp != nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), forged) {
			t.Fatalf("%s: dial = %v, %v; want no pipeline and an error containing %q and %s", name, rp, err, want, forged)
		}
	}
}

// TestRestartedHop1KeepsItsAlpha: a hop-1 replica restarted from its tier's
// Secrets blinds with the α it blinded with before, so a crowd of T reports
// that straddles the restart is still one crowd of T at hop 2.
func TestRestartedHop1KeepsItsAlpha(t *testing.T) {
	const T = 10
	labels, data := oneCrowd(T)
	anlzAddrs := startFleet(t, nil, 1, shuffler.Params{}, nil).Analyzers
	s1Sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	s2Sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	params := shuffler.Params{Threshold: shuffler.Threshold{Naive: T}}
	s2svc, err := newStage("shuffler2", s2Sec, params, anlzAddrs, transport.EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2svc.Close() })
	s2srv, err := serveTracked("127.0.0.1:0", s2svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2srv.kill)
	start1 := func(addr string) (*transport.StageService, *trackedServer) {
		svc, err := newStage("shuffler1", s1Sec, params, []string{s2srv.addr()}, transport.EpochConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		srv, err := serveTrackedAt(addr, svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.kill)
		return svc, srv
	}
	svc, srv := start1("127.0.0.1:0")
	rp, err := prochlo.DialRemoteChainFleet([]string{srv.addr()}, []string{s2srv.addr()}, anlzAddrs,
		prochlo.WithRemoteWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if err := rp.SubmitBatch(labels[:T/2], data[:T/2]); err != nil {
		t.Fatal(err)
	}
	// The replica stops gracefully, draining its half into hop 2 (which cuts
	// only on a drain, so holds it), and a successor takes over its address.
	srv.kill()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	start1(srv.addr())
	if err := rp.SubmitBatch(labels[T/2:], data[T/2:]); err != nil {
		t.Fatal(err)
	}
	res, err := rp.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Histogram["one-value"]; got != T {
		t.Errorf("analyzer counted %d of the crowd's %d reports, want all: the restart changed α", got, T)
	}
}

// TestRestartedHop1WithAFreshAlpha: a hop-1 replica restarted without its
// key file blinds with a fresh α and serves a fresh A. The pipeline fetches A
// again once its entry connection redials, so a crowd submitted after the
// restart reaches the analyzer whole, as one submitted before it does. A
// batch that went out over the redialed connection still encrypted on the
// old A is an error, never a silent loss; resubmitted, it counts.
func TestRestartedHop1WithAFreshAlpha(t *testing.T) {
	const T = 10
	crowd := func(name string) (labels []string, data [][]byte) {
		for i := 0; i < T; i++ {
			labels, data = append(labels, name), append(data, []byte(name))
		}
		return labels, data
	}
	anlzAddrs := startFleet(t, nil, 1, shuffler.Params{}, nil).Analyzers
	s2Sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	params := shuffler.Params{Threshold: shuffler.Threshold{Naive: T}}
	s2svc, err := newStage("shuffler2", s2Sec, params, anlzAddrs, transport.EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2svc.Close() })
	s2srv, err := serveTracked("127.0.0.1:0", s2svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2srv.kill)
	start1 := func(addr string) (*transport.StageService, *trackedServer) {
		sec, err := shuffler.GenerateSecrets() // no key file: a fresh α per start
		if err != nil {
			t.Fatal(err)
		}
		svc, err := newStage("shuffler1", sec, params, []string{s2srv.addr()}, transport.EpochConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		srv, err := serveTrackedAt(addr, svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.kill)
		return svc, srv
	}
	svc, srv := start1("127.0.0.1:0")
	rp, err := prochlo.DialRemoteChainFleet([]string{srv.addr()}, []string{s2srv.addr()}, anlzAddrs,
		prochlo.WithRemoteWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if err := rp.SubmitBatch(crowd("before")); err != nil {
		t.Fatal(err)
	}
	srv.kill()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	start1(srv.addr())
	if err := rp.SubmitBatch(crowd("after")); err != nil {
		if !strings.Contains(err.Error(), "changed its blinding key") {
			t.Fatal(err)
		}
		if err := rp.SubmitBatch(crowd("after")); err != nil {
			t.Fatalf("resubmission on the fresh key: %v", err)
		}
	}
	res, err := rp.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"before", "after"} {
		if got := res.Histogram[name]; got != T {
			t.Errorf("analyzer counted %d of crowd %q's %d reports, want all", got, name, T)
		}
	}
}

// BenchmarkRemoteChainFleet measures the replicated chain end to end —
// balanced entry, partitioned fan-in, fleet drain — against the
// single-replica chain baseline (replicas=1 runs the same fleet code over
// one replica per tier).
func BenchmarkRemoteChainFleet(b *testing.B) {
	const batch = 500
	labels, data := sampleReports(batch)
	for _, replicas := range []int{1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := startFleet(b, chainTiers(replicas, transport.EpochConfig{}, transport.EpochConfig{}), replicas,
					shuffler.Params{Threshold: shuffler.Threshold{Noise: dp.PaperThresholdNoise}, MinBatch: 1}, nil)
				rp, err := prochlo.DialRemoteChainFleet(f.Tiers[0], f.Tiers[1], f.Analyzers)
				if err != nil {
					b.Fatal(err)
				}
				if err := rp.SubmitBatch(labels, data); err != nil {
					b.Fatal(err)
				}
				if _, err := rp.Flush(); err != nil {
					b.Fatal(err)
				}
				rp.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "us/report")
		})
	}
}
