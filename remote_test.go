package prochlo_test

import (
	"bytes"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"prochlo"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/faultnet"
	"prochlo/internal/metrics"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
	"prochlo/internal/workload"
)

// startFleet starts a loopback fleet for the test and stops it at cleanup.
// Seeded with prochlo.WithSeed's seed, its stages draw the streams the
// in-process pipeline's do.
func startFleet(tb testing.TB, tiers []transport.Tier, p shuffler.Params, reg *metrics.Registry) *transport.Fleet {
	tb.Helper()
	f, err := transport.StartFleet(tiers, p, reg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.Close)
	return f
}

// analyzerTier is a fleet's last tier: n analyzer partitions.
func analyzerTier(n int) transport.Tier { return transport.Tier{Role: "analyzer", Replicas: n} }

// startAnalyzers starts n analyzer partitions sharing one key, for tests
// that build the shuffler tiers in front of them themselves.
func startAnalyzers(tb testing.TB, n int) []string {
	return startFleet(tb, []transport.Tier{analyzerTier(n)}, shuffler.Params{}, nil).Tiers[0]
}

// plainFleet is one plain shuffler and one analyzer under the pipeline's
// default threshold.
func plainFleet(tb testing.TB, seed uint64, workers int, cfg transport.EpochConfig) *transport.Fleet {
	return startFleet(tb, []transport.Tier{{Role: "shuffler", Replicas: 1, Epochs: cfg}, analyzerTier(1)},
		shuffler.Params{Threshold: shuffler.Threshold{Noise: dp.PaperThresholdNoise}, Seed: seed, Workers: workers}, nil)
}

// chainTiers is the §4.3 split chain with replicas per tier: shuffler1
// replicas under s1, shuffler2 replicas under s2, and as many analyzer
// partitions.
func chainTiers(replicas int, s1, s2 transport.EpochConfig) []transport.Tier {
	return []transport.Tier{
		{Role: "shuffler1", Replicas: replicas, Epochs: s1},
		{Role: "shuffler2", Replicas: replicas, Epochs: s2},
		analyzerTier(replicas),
	}
}

// dialFleet returns a RemotePipeline entering f at its first tier: the
// single-shuffler dial for two tiers, the chain dial for three.
func dialFleet(tb testing.TB, f *transport.Fleet, opts ...prochlo.RemoteOption) *prochlo.RemotePipeline {
	tb.Helper()
	var rp *prochlo.RemotePipeline
	var err error
	if len(f.Tiers) == 2 {
		rp, err = prochlo.DialRemoteFleet(f.Tiers[0], f.Tiers[1], opts...)
	} else {
		rp, err = prochlo.DialRemoteChainFleet(f.Tiers[0], f.Tiers[1], f.Tiers[2], opts...)
	}
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rp.Close() })
	return rp
}

// newStage builds one replica of role as the fleet builder does, for the
// crash soaks, which restart replicas at fixed addresses over their WALs and
// so start each one themselves.
func newStage(role string, sec shuffler.Secrets, p shuffler.Params, next []string, cfg transport.EpochConfig) (*transport.StageService, error) {
	st, err := shuffler.NewStage(role, sec, p)
	if err != nil {
		return nil, err
	}
	return transport.NewStageService(st, next, cfg)
}

// proxied stands a faultnet proxy under plan in front of each target, for
// the test's lifetime, and returns the proxies' addresses in target order:
// a stage whose next tier is the result has plan on each outbound link, one
// schedule shared across them and across the stage's restarts.
func proxied(t *testing.T, plan *faultnet.Plan, targets ...string) []string {
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

// canonicalHistogram serializes a histogram deterministically so two runs
// can be compared byte for byte.
func canonicalHistogram(counts map[string]int) []byte {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&buf, "%q=%d\n", k, counts[k])
	}
	return buf.Bytes()
}

// sampleReports draws the word workload used by the daemons' demo clients.
func sampleReports(n int) (labels []string, data [][]byte) {
	words := workload.DefaultVocab.SampleWords(workload.NewRand(9), n)
	labels = make([]string, n)
	data = make([][]byte, n)
	for i, w := range words {
		word := workload.Word(w)
		labels[i] = word
		data[i] = []byte(word)
	}
	return labels, data
}

// TestRemotePipelineMatchesInProcess is the acceptance equivalence: a seeded
// end-to-end run through the daemons — batch RPC, auto-flush epochs, any
// worker count — must produce a histogram byte-identical
// to the in-process prochlo.SubmitBatch pipeline flushing the same chunks.
func TestRemotePipelineMatchesInProcess(t *testing.T) {
	const (
		seed    = 42
		reports = 360
		chunk   = 120
	)
	labels, data := sampleReports(reports)

	configs := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"workers2", 2},
		{"gomaxprocs", runtime.GOMAXPROCS(0)},
	}
	var want []byte
	var wantStats shuffler.Stats
	var wantUndec int
	for ci, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			// In-process reference: same seed, same chunk boundaries.
			p, err := prochlo.New(prochlo.WithSeed(seed), prochlo.WithWorkers(tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			inProcess := make(map[string]int)
			var inStats shuffler.Stats
			var inUndec int
			for at := 0; at < reports; at += chunk {
				if err := p.SubmitBatch(labels[at:at+chunk], data[at:at+chunk]); err != nil {
					t.Fatal(err)
				}
				res, err := p.Flush()
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range res.Histogram {
					inProcess[k] += v
				}
				inStats.Received += res.ShufflerStats.Received
				inStats.Undecryptable += res.ShufflerStats.Undecryptable
				inStats.Crowds += res.ShufflerStats.Crowds
				inStats.CrowdsForwarded += res.ShufflerStats.CrowdsForwarded
				inStats.Forwarded += res.ShufflerStats.Forwarded
				inUndec += res.Undecryptable
			}

			// Daemon deployment: auto-flush cuts an epoch per chunk (the
			// per-chunk Flush is the drain barrier pinning the boundary).
			rp := dialFleet(t, plainFleet(t, seed, tc.workers, transport.EpochConfig{FlushAt: chunk}),
				prochlo.WithRemoteWorkers(tc.workers))
			var remote *prochlo.Result
			for at := 0; at < reports; at += chunk {
				if err := rp.SubmitBatch(labels[at:at+chunk], data[at:at+chunk]); err != nil {
					t.Fatal(err)
				}
				if remote, err = rp.Flush(); err != nil {
					t.Fatal(err)
				}
			}

			gotHist := canonicalHistogram(remote.Histogram)
			wantHist := canonicalHistogram(inProcess)
			if !bytes.Equal(gotHist, wantHist) {
				t.Errorf("daemon histogram differs from in-process pipeline:\nremote:\n%s\nin-process:\n%s", gotHist, wantHist)
			}
			if remote.ShufflerStats != inStats {
				t.Errorf("daemon stats = %+v, in-process = %+v", remote.ShufflerStats, inStats)
			}
			if remote.Undecryptable != inUndec {
				t.Errorf("daemon undecryptable = %d, in-process = %d", remote.Undecryptable, inUndec)
			}
			stats, err := rp.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if stats.EpochsFlushed != reports/chunk {
				t.Errorf("epochs flushed = %d, want %d", stats.EpochsFlushed, reports/chunk)
			}

			// Every configuration must agree with the first, proving the
			// result is independent of the worker count.
			if ci == 0 {
				want, wantStats, wantUndec = wantHist, inStats, inUndec
			} else {
				if !bytes.Equal(gotHist, want) {
					t.Errorf("config %s histogram differs from %s", tc.name, configs[0].name)
				}
				if remote.ShufflerStats != wantStats || remote.Undecryptable != wantUndec {
					t.Errorf("config %s stats differ from %s", tc.name, configs[0].name)
				}
			}
		})
	}
}

// TestRemoteChainMatchesInProcess is the chain acceptance equivalence: a
// seeded end-to-end run through the networked two-hop chain — blinded batch
// submitted to the Shuffler 1 daemon, each epoch pushed to the Shuffler 2
// daemon as a Submit of its own, analyzer ingestion, auto-flush epochs, any worker count — must produce a
// histogram byte-identical to the in-process
// ModeBlinded pipeline flushing the same chunks.
func TestRemoteChainMatchesInProcess(t *testing.T) {
	const (
		seed    = 42
		reports = 360
		chunk   = 120
	)
	labels, data := sampleReports(reports)
	th := shuffler.Threshold{Noise: dp.PaperThresholdNoise}

	configs := []struct {
		name      string
		workers   int
		s2FlushAt int // 0: hop 2 cuts only on drain; chunk: auto-flush
	}{
		{"serial", 1, 0},
		{"workers2", 2, chunk},
		{"gomaxprocs", runtime.GOMAXPROCS(0), chunk},
	}
	var want []byte
	var wantStats shuffler.Stats
	var wantUndec int
	for ci, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			// In-process reference: same seed, same chunk boundaries.
			p, err := prochlo.New(prochlo.WithSeed(seed), prochlo.WithMode(prochlo.ModeBlinded),
				prochlo.WithWorkers(tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			inProcess := make(map[string]int)
			var inStats shuffler.Stats
			var inUndec int
			for at := 0; at < reports; at += chunk {
				if err := p.SubmitBatch(labels[at:at+chunk], data[at:at+chunk]); err != nil {
					t.Fatal(err)
				}
				res, err := p.Flush()
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range res.Histogram {
					inProcess[k] += v
				}
				inStats.Received += res.ShufflerStats.Received
				inStats.Undecryptable += res.ShufflerStats.Undecryptable
				inStats.Crowds += res.ShufflerStats.Crowds
				inStats.CrowdsForwarded += res.ShufflerStats.CrowdsForwarded
				inStats.Forwarded += res.ShufflerStats.Forwarded
				inUndec += res.Undecryptable
			}

			// Daemon chain: hop 1 auto-flushes an epoch per chunk; the
			// per-chunk Flush is the drain barrier pinning the boundary at
			// both hops.
			f := startFleet(t, chainTiers(1, transport.EpochConfig{FlushAt: chunk}, transport.EpochConfig{FlushAt: tc.s2FlushAt}),
				shuffler.Params{Threshold: th, Seed: seed, MinBatch: 1, Workers: tc.workers}, nil)
			rp := dialFleet(t, f, prochlo.WithRemoteWorkers(tc.workers))
			var remote *prochlo.Result
			for at := 0; at < reports; at += chunk {
				if err := rp.SubmitBatch(labels[at:at+chunk], data[at:at+chunk]); err != nil {
					t.Fatal(err)
				}
				if remote, err = rp.Flush(); err != nil {
					t.Fatal(err)
				}
			}

			gotHist := canonicalHistogram(remote.Histogram)
			wantHist := canonicalHistogram(inProcess)
			if !bytes.Equal(gotHist, wantHist) {
				t.Errorf("chain histogram differs from in-process pipeline:\nremote:\n%s\nin-process:\n%s", gotHist, wantHist)
			}
			if remote.ShufflerStats != inStats {
				t.Errorf("chain stats = %+v, in-process = %+v", remote.ShufflerStats, inStats)
			}
			if remote.Undecryptable != inUndec {
				t.Errorf("chain undecryptable = %d, in-process = %d", remote.Undecryptable, inUndec)
			}
			hops, err := rp.HopStats()
			if err != nil {
				t.Fatal(err)
			}
			if len(hops) != 2 {
				t.Fatalf("hop stats = %d entries, want 2", len(hops))
			}
			if hops[0].EpochsFlushed != reports/chunk || hops[1].EpochsFlushed != reports/chunk {
				t.Errorf("epochs flushed = %d/%d, want %d at both hops",
					hops[0].EpochsFlushed, hops[1].EpochsFlushed, reports/chunk)
			}
			if hops[0].Cumulative.Received != reports || hops[1].Cumulative.Received != reports {
				t.Errorf("cumulative received = %d/%d, want %d at both hops",
					hops[0].Cumulative.Received, hops[1].Cumulative.Received, reports)
			}

			// Every configuration must agree with the first, proving the
			// result is independent of the worker count and of hop 2's
			// epoch trigger.
			if ci == 0 {
				want, wantStats, wantUndec = wantHist, inStats, inUndec
			} else {
				if !bytes.Equal(gotHist, want) {
					t.Errorf("config %s histogram differs from %s", tc.name, configs[0].name)
				}
				if remote.ShufflerStats != wantStats || remote.Undecryptable != wantUndec {
					t.Errorf("config %s stats differ from %s", tc.name, configs[0].name)
				}
			}
		})
	}
}

// TestRemoteChainConcurrentSoak is the chain's -race soak: many goroutine
// clients ship blinded batches into hop 1 while epochs auto-flush across
// both hops underneath them, with hop 1 and hop 2 cutting at different
// boundaries so forwarded epochs interleave with client traffic. With
// thresholding disabled every accepted report must reach the analyzer
// exactly once — no drops, no double counts across chained epoch
// boundaries.
func TestRemoteChainConcurrentSoak(t *testing.T) {
	f := startFleet(t, chainTiers(1,
		transport.EpochConfig{FlushAt: 40},
		transport.EpochConfig{FlushAt: 48}), shuffler.Params{MinBatch: 1}, nil)
	const (
		goroutines = 8
		batches    = 6
		perBatch   = 7
		total      = goroutines * batches * perBatch
	)
	labels := make([]string, perBatch)
	data := make([][]byte, perBatch)
	for i := range labels {
		labels[i] = "crowd:soak"
		data[i] = []byte("soak-value")
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rp, err := prochlo.DialRemoteChainFleet(f.Tiers[0], f.Tiers[1], f.Tiers[2], prochlo.WithRemoteWorkers(1))
			if err != nil {
				errs[g] = err
				return
			}
			defer rp.Close()
			for b := 0; b < batches; b++ {
				if err := rp.SubmitBatch(labels, data); err != nil {
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

	rp := dialFleet(t, f, prochlo.WithRemoteWorkers(1))
	res, err := rp.Flush()
	if err != nil {
		t.Fatal(err)
	}
	hops, err := rp.HopStats()
	if err != nil {
		t.Fatal(err)
	}
	if hops[0].Accepted != total {
		t.Errorf("hop 1 accepted = %d, want %d", hops[0].Accepted, total)
	}
	for i, h := range hops {
		if h.Pending != 0 || h.QueuedEpochs != 0 {
			t.Errorf("hop %d drain left pending=%d queued=%d", i+1, h.Pending, h.QueuedEpochs)
		}
		if h.EpochsFailed != 0 {
			t.Errorf("hop %d epochs failed = %d (%s)", i+1, h.EpochsFailed, h.LastError)
		}
		if h.Dropped != 0 {
			t.Errorf("hop %d dropped = %d", i+1, h.Dropped)
		}
		if h.Cumulative.Received != total || h.Cumulative.Forwarded != total {
			t.Errorf("hop %d cumulative = %+v, want %d received and forwarded", i+1, h.Cumulative, total)
		}
	}
	if res.Histogram["soak-value"] != total {
		t.Errorf("histogram count = %d, want %d (no drops, no double counts)", res.Histogram["soak-value"], total)
	}
	if res.Undecryptable != 0 {
		t.Errorf("undecryptable = %d", res.Undecryptable)
	}
}

// faultSeed derives a deterministic fault-injection seed: def when run
// locally, a hash of PROCHLO_FAULT_SEED (CI sets it to the commit SHA) so
// every commit exercises a distinct but reproducible fault schedule.
func faultSeed(t *testing.T, def int64) int64 {
	s := os.Getenv("PROCHLO_FAULT_SEED")
	if s == "" {
		return def
	}
	h := fnv.New64a()
	h.Write([]byte(s))
	seed := int64(h.Sum64())
	t.Logf("fault seed %#x (PROCHLO_FAULT_SEED=%q)", seed, s)
	return seed
}

// TestRemoteChainCrashRestartSoak is the crash-safety acceptance run: the
// seeded two-hop chain runs with the WAL enabled at both hops and a seeded
// fault proxy on both inter-stage links, each shuffler hop runs in a child
// process that is SIGKILLed (no final cut, no drain, its sockets severed)
// and restarted over its WAL directory mid-epoch, and the drained histogram
// must still be byte-identical to the uninterrupted in-process pipeline:
// zero drops, zero double counts.
//
// Thresholding is disabled because a restart necessarily reseeds the stage
// RNG mid-run — crash recovery promises exactly-once delivery, not
// reproduction of the dead process's unspent random draws.
func TestRemoteChainCrashRestartSoak(t *testing.T) {
	const (
		seed    = 42
		reports = 240
		chunk   = 60
	)
	labels, data := sampleReports(reports)

	// Uninterrupted in-process reference over the same chunk boundaries.
	p, err := prochlo.New(prochlo.WithSeed(seed), prochlo.WithMode(prochlo.ModeBlinded),
		prochlo.WithoutThreshold(), prochlo.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	inProcess := make(map[string]int)
	for at := 0; at < reports; at += chunk {
		if err := p.SubmitBatch(labels[at:at+chunk], data[at:at+chunk]); err != nil {
			t.Fatal(err)
		}
		res, err := p.Flush()
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range res.Histogram {
			inProcess[k] += v
		}
	}

	// Persistent parties: the analyzer and every key survive the crashes;
	// only the hop processes die.
	anlzAddrs := startAnalyzers(t, 1)
	s1Sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	s2Sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	params := shuffler.Params{Seed: seed, MinBatch: 1}

	// Seeded fault schedules on proxies in front of each hop's next party,
	// shared across restarts: hop 1's first two forwards are duplicated
	// (hop 2's dedup must absorb them), hop 2's first analyzer push loses
	// its ack (the redialed retry must be deduplicated by the analyzer). CI
	// derives the seed from the commit SHA via PROCHLO_FAULT_SEED, so every
	// commit soaks a fresh schedule that is still reproducible from its log.
	fs := faultSeed(t, 0x5152)
	s1Fault := &faultnet.Plan{Seed: fs, PDup: 1, MaxFaults: 2}
	s2Fault := &faultnet.Plan{Seed: fs + 1, PDropAck: 1, MaxFaults: 1}
	s2Next := proxied(t, s2Fault, anlzAddrs...)
	s1WAL, s2WAL := t.TempDir(), t.TempDir()

	// Each start takes the dead hop's address, so the upstream proxy's next
	// connection finds the successor.
	var s1, s2 *faultnet.Child
	start2 := func(addr string) {
		var err error
		if s2, err = startChild(t, "shuffler2", s2Sec, params, s2Next, transport.EpochConfig{WALDir: s2WAL}, addr); err != nil {
			t.Fatal(err)
		}
	}
	var s1Next []string // hop 2's proxy, stood up once hop 2 listens
	start1 := func(addr string) {
		var err error
		if s1, err = startChild(t, "shuffler1", s1Sec, params, s1Next,
			transport.EpochConfig{FlushAt: 1000, WALDir: s1WAL}, addr); err != nil {
			t.Fatal(err)
		}
	}
	kill := func(c *faultnet.Child) {
		if err := c.Kill(); err != nil {
			t.Fatal(err)
		}
	}
	start2("127.0.0.1:0")
	s1Next = proxied(t, s1Fault, s2.Addr)
	start1("127.0.0.1:0")
	submit := func(at int) {
		rp, err := prochlo.DialRemoteChainFleet([]string{s1.Addr}, []string{s2.Addr}, anlzAddrs,
			prochlo.WithRemoteWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		defer rp.Close()
		if err := rp.SubmitBatch(labels[at:at+chunk], data[at:at+chunk]); err != nil {
			t.Fatal(err)
		}
	}

	// Chunk 0 is accepted by hop 1 and still pending (FlushAt is beyond
	// reach) when hop 1 dies; the restarted hop must recover it.
	submit(0)
	kill(s1)
	start1(s1.Addr)
	if stats := stageStats(t, s1.Addr); stats.RecoveredItems != chunk {
		t.Fatalf("hop 1 recovered %d items, want %d", stats.RecoveredItems, chunk)
	}

	// Chunk 1 joins the recovered epoch; draining hop 1 forwards both
	// chunks (duplicated by the fault plan) through hop 2 to the analyzer.
	submit(chunk)
	rp, err := prochlo.DialRemoteChainFleet([]string{s1.Addr}, []string{s2.Addr}, anlzAddrs,
		prochlo.WithRemoteWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Flush(); err != nil {
		t.Fatal(err)
	}
	rp.Close()

	// Chunk 2 is forwarded into hop 2 (which only cuts on drain) and left
	// pending there when hop 2 dies mid-epoch; the restarted hop must
	// recover both the reports and the forward-dedup marks.
	submit(2 * chunk)
	hop1, err := transport.Dial(s1.Addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = hop1.Drain(false)
	hop1.Close()
	if err != nil {
		t.Fatal(err)
	}
	kill(s2)
	start2(s2.Addr)
	if stats := stageStats(t, s2.Addr); stats.RecoveredItems != chunk {
		t.Fatalf("hop 2 recovered %d items, want %d", stats.RecoveredItems, chunk)
	}

	// The final chunk flows through both restarted hops; hop 1's sink
	// redials the successor hop 2 at the old address.
	submit(3 * chunk)
	rp, err = prochlo.DialRemoteChainFleet([]string{s1.Addr}, []string{s2.Addr}, anlzAddrs,
		prochlo.WithRemoteWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	remote, err := rp.Flush()
	if err != nil {
		t.Fatal(err)
	}

	if got, want := canonicalHistogram(remote.Histogram), canonicalHistogram(inProcess); !bytes.Equal(got, want) {
		t.Errorf("crash-restart histogram differs from uninterrupted in-process run:\nremote:\n%s\nin-process:\n%s", got, want)
	}
	hops, err := rp.HopStats()
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hops {
		if h.Dropped != 0 || h.EpochsFailed != 0 {
			t.Errorf("hop %d dropped=%d failed=%d (%s), want clean delivery", i+1, h.Dropped, h.EpochsFailed, h.LastError)
		}
		if h.Pending != 0 || h.QueuedEpochs != 0 {
			t.Errorf("hop %d drain left pending=%d queued=%d", i+1, h.Pending, h.QueuedEpochs)
		}
		if h.Unaccounted != 0 {
			t.Errorf("hop %d unaccounted = %d, want a balanced ledger", i+1, h.Unaccounted)
		}
	}
	if s1Fault.Injected() == 0 || s2Fault.Injected() == 0 {
		t.Errorf("fault plans injected %d/%d faults, want both active", s1Fault.Injected(), s2Fault.Injected())
	}
}

// sgxDaemon serves an SGX shuffler whose quote ca signs, pushing to anlz.
func sgxDaemon(t *testing.T, ca *sgx.CA, anlz []string) string {
	t.Helper()
	sh, err := shuffler.NewSGXShuffler(ca, shuffler.Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := transport.NewStageService(sh, anlz, transport.EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	l, err := transport.Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// TestRemoteSGXAttestation covers the networked ModeSGX deployment: the
// daemon serves a quote over its key, DialRemoteFleet with WithRemoteAttestation
// verifies it against the pinned CA before encoding, and a daemon without an
// enclave is refused.
func TestRemoteSGXAttestation(t *testing.T) {
	anlzAddrs := startAnalyzers(t, 1)
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := prochlo.DialRemoteFleet([]string{sgxDaemon(t, ca, anlzAddrs)}, anlzAddrs,
		prochlo.WithRemoteAttestation(ca.PublicKey()), prochlo.WithRemoteWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	pad := func(s string) []byte { // SGX requires uniform report sizes
		b := make([]byte, 32)
		copy(b, s)
		return b
	}
	labels, data := make([]string, 12), make([][]byte, 12)
	for i := range labels {
		labels[i], data[i] = "app:attested", pad("attested")
	}
	if err := rp.SubmitBatch(labels, data); err != nil {
		t.Fatal(err)
	}
	res, err := rp.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram[string(pad("attested"))] != 12 {
		t.Errorf("histogram = %v, want 12 attested", res.Histogram)
	}

	// A daemon without an enclave must be refused when the client demands
	// attestation.
	plain := plainFleet(t, 1, 1, transport.EpochConfig{})
	if _, err := prochlo.DialRemoteFleet(plain.Tiers[0], plain.Tiers[1], prochlo.WithRemoteAttestation(ca.PublicKey())); err == nil {
		t.Error("unattested daemon accepted under WithRemoteAttestation")
	}
}

// TestRemoteSGXAttestationRefusesForeignCA: the client pins the attestation
// CA's key, so a daemon whose quote another CA signed — a hostile daemon
// with a CA of its own, or a man in the middle — is refused, whatever key
// it would have served for that CA.
func TestRemoteSGXAttestationRefusesForeignCA(t *testing.T) {
	anlzAddrs := startAnalyzers(t, 1)
	pinned, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := prochlo.DialRemoteFleet([]string{sgxDaemon(t, foreign, anlzAddrs)}, anlzAddrs,
		prochlo.WithRemoteAttestation(pinned.PublicKey()))
	if err == nil {
		rp.Close()
		t.Fatal("a quote signed by a foreign CA was accepted")
	}
	if want := "sgx: quote signature invalid"; rp != nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("dial = %v, %v; want no pipeline and an error containing %q", rp, err, want)
	}
	if _, err := prochlo.DialRemoteFleet(nil, anlzAddrs, prochlo.WithRemoteAttestation(nil)); err == nil {
		t.Error("WithRemoteAttestation accepted no CA key")
	}
}

// p256Point is the P-256 base point in SEC1 uncompressed form: a well-formed
// public key on the paper's curve, which this build does not deploy.
const p256Point = "04" +
	"6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296" +
	"4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"

// servedKeys is a stage that serves fixed key bytes in place of its own.
type servedKeys struct {
	shuffler.Stage
	blinding, key []byte
}

func (s servedKeys) PublicKeys() (blinding, key []byte) { return s.blinding, s.key }

// quotedKeys is servedKeys with a quote over its key, served as an SGX
// stage serves its own.
type quotedKeys struct {
	servedKeys
	quote sgx.Quote
}

func (s quotedKeys) Quote() sgx.Quote { return s.quote }

// TestDialRefusesKeysOffTheDeployedGroup drives every key a dial fetches —
// shuffler, attested, hop-1 blinding, hop-2 blinding, hop-2 hybrid,
// analyzer — with a P-256 point.
// The key parsers decode ristretto255 alone, so the dial must fail, naming
// the key, and hand back no pipeline to encode a report with.
func TestDialRefusesKeysOffTheDeployedGroup(t *testing.T) {
	bad, err := hex.DecodeString(p256Point)
	if err != nil {
		t.Fatal(err)
	}
	good, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	goodBlind, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	goodKey, goodBlinding, goodHop1 := good.Public().Bytes(), goodBlind.H.Bytes(), goodBlind.ProvenKey()
	plain := &shuffler.Shuffler{Priv: good}
	anlzSvc, err := newStage("analyzer", shuffler.Secrets{Priv: good}, shuffler.Params{}, nil, transport.EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { anlzSvc.Close() })
	anlz := serveAt(t, "127.0.0.1:0", anlzSvc)
	goodAnlz := anlz.Addr().String()

	// keysAt serves the key bytes (and, when attested, a valid quote over
	// the key) from a stage that never sees a report. Clients fetch the
	// analyzer's key with the same Keys call, so it stands in for an
	// analyzer too.
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	keysAt := func(blinding, key []byte, attested bool) string {
		var st shuffler.Stage = servedKeys{plain, blinding, key}
		if attested {
			enclave := sgx.New(sgx.DefaultEPC, shuffler.SGXShufflerMeasurement)
			ca.Provision(enclave)
			quote, err := enclave.GenerateQuote(key)
			if err != nil {
				t.Fatal(err)
			}
			st = quotedKeys{servedKeys{plain, blinding, key}, quote}
		}
		svc, err := transport.NewStageService(st, []string{goodAnlz}, transport.EpochConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		l, err := transport.Serve("127.0.0.1:0", svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l.Addr().String()
	}
	badAnlz := keysAt(nil, bad, false)
	hop1 := keysAt(goodHop1, nil, false)
	fleet := func(shuf, anlz string, opts ...prochlo.RemoteOption) func() (*prochlo.RemotePipeline, error) {
		return func() (*prochlo.RemotePipeline, error) {
			return prochlo.DialRemoteFleet([]string{shuf}, []string{anlz}, opts...)
		}
	}
	chainFrom := func(hop1, hop2, anlz string) func() (*prochlo.RemotePipeline, error) {
		return func() (*prochlo.RemotePipeline, error) {
			return prochlo.DialRemoteChainFleet([]string{hop1}, []string{hop2}, []string{anlz})
		}
	}
	chain := func(hop2, anlz string) func() (*prochlo.RemotePipeline, error) { return chainFrom(hop1, hop2, anlz) }

	for _, tc := range []struct {
		name, key string
		dial      func() (*prochlo.RemotePipeline, error)
	}{
		{"fleet shuffler key", "shuffler key", fleet(keysAt(nil, bad, false), goodAnlz)},
		{"fleet attested key", "shuffler key", fleet(keysAt(nil, bad, true), goodAnlz, prochlo.WithRemoteAttestation(ca.PublicKey()))},
		{"fleet analyzer key", "analyzer key", fleet(keysAt(nil, goodKey, false), badAnlz)},
		{"chain hop-1 blinding key", "shuffler 1 blinding key", chainFrom(keysAt(append(bad, goodHop1[len(goodHop1)-64:]...), nil, false), keysAt(goodBlinding, goodKey, false), goodAnlz)},
		{"chain blinding key", "shuffler 2 blinding key", chain(keysAt(bad, goodKey, false), goodAnlz)},
		{"chain hybrid key", "shuffler 2 key", chain(keysAt(goodBlinding, bad, false), goodAnlz)},
		{"chain analyzer key", "analyzer key", chain(keysAt(goodBlinding, goodKey, false), badAnlz)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rp, err := tc.dial()
			if err == nil {
				rp.Close()
				t.Fatal("dial accepted a P-256 key")
			}
			want := tc.key + ": "
			if rp != nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "not a ristretto255 encoding") {
				t.Fatalf("dial = %v, %v; want no pipeline and an error containing %q and the parse refusal", rp, err, want)
			}
		})
	}
	// The same dials with every key on the deployed group go through.
	for _, dial := range []func() (*prochlo.RemotePipeline, error){
		fleet(keysAt(nil, goodKey, true), goodAnlz, prochlo.WithRemoteAttestation(ca.PublicKey())),
		chain(keysAt(goodBlinding, goodKey, false), goodAnlz),
	} {
		rp, err := dial()
		if err != nil {
			t.Fatalf("dial with ristretto255 keys: %v", err)
		}
		rp.Close()
	}
}

// TestFlushFailsAfterLostEpoch: an auto-flushed epoch whose push outlives
// the sender's redial budget while the analyzer is unreachable is dropped,
// and the cumulative histogram is short by it for good. Once the analyzer is
// back, Flush must say so — on the pipeline that submitted the reports and
// on one dialed only after the loss — once each.
func TestFlushFailsAfterLostEpoch(t *testing.T) {
	anlzAddrs := startAnalyzers(t, 1)
	// Every attempt of the first push dies at the proxy; then the link heals.
	down := &faultnet.Plan{Seed: 1, PError: 1, MaxFaults: 1 + transport.DefaultClientRedials}
	sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := newStage("shuffler", sec, shuffler.Params{MinBatch: 1}, proxied(t, down, anlzAddrs...),
		transport.EpochConfig{FlushAt: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	l, err := transport.Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dial := func() *prochlo.RemotePipeline {
		rp, err := prochlo.DialRemoteFleet([]string{l.Addr().String()}, anlzAddrs, prochlo.WithRemoteWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rp.Close() })
		return rp
	}
	submit := func(rp *prochlo.RemotePipeline, value string) {
		t.Helper()
		labels := []string{"crowd:lost", "crowd:lost", "crowd:lost", "crowd:lost"}
		data := [][]byte{[]byte(value), []byte(value), []byte(value), []byte(value)}
		if err := rp.SubmitBatch(labels, data); err != nil {
			t.Fatal(err)
		}
	}

	rp := dial()
	submit(rp, "lost") // fills FlushAt: the epoch's push fails every redial
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := rp.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.EpochsFailed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the push never failed: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	late := dial()
	for _, tc := range []struct {
		name string
		rp   *prochlo.RemotePipeline
	}{{"the submitting pipeline", rp}, {"a pipeline dialed after the loss", late}} {
		if _, err := tc.rp.Flush(); err == nil || !strings.Contains(err.Error(), "hop 1 lost reports since the last flush: 4 dropped, 1 epochs failed") {
			t.Errorf("%s: Flush after the lost epoch = %v, want the loss reported", tc.name, err)
		}
		if _, err := tc.rp.Flush(); err != nil {
			t.Errorf("%s: the next Flush = %v, want the loss reported once", tc.name, err)
		}
	}
	// The analyzer answers again: a later epoch is counted and no loss is
	// reported.
	submit(rp, "kept")
	res, err := rp.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram["kept"] != 4 || res.Histogram["lost"] != 0 {
		t.Errorf("histogram = %v, want the 4 kept reports alone", res.Histogram)
	}
}

// TestStatsAsksTheEntryTierAlone: Stats reports the entry tier, so it calls
// the entry tier's replicas alone. With every call to hop 2 failing — the
// client reaches it through a proxy, then closed — Stats still answers, with
// hop 1's counts.
func TestStatsAsksTheEntryTierAlone(t *testing.T) {
	f := startFleet(t, chainTiers(1, transport.EpochConfig{}, transport.EpochConfig{}), shuffler.Params{Seed: 3}, nil)
	px, err := faultnet.Listen(&faultnet.Plan{Seed: 1}, f.Tiers[1][0])
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	rp, err := prochlo.DialRemoteChainFleet(f.Tiers[0], []string{px.Addr()}, f.Tiers[2], prochlo.WithRemoteWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if err := rp.SubmitBatch([]string{"c", "c", "c"}, [][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	px.Close()
	if st, err := rp.Stats(); err != nil || st.Accepted != 3 || st.Pending != 3 {
		t.Fatalf("Stats with hop 2 unreachable = %+v, %v; want hop 1's 3 accepted, pending", st, err)
	}
}
