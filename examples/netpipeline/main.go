// Networked pipeline: the ESA parties of Figure 1 as long-lived services
// exchanging frames over loopback TCP — the same wiring cmd/prochlod runs
// across machines. Three topologies are demonstrated:
//
// The default is the single-shuffler deployment: a fleet of clients ships
// whole batches of nested-encrypted reports per round trip (Submit), epochs
// auto-flush to the analyzer whenever occupancy reaches -flush-at, and the
// analyzer's histogram accumulates across epochs.
//
// With -chain, the §4.3 split-shuffler chain runs instead: clients submit
// blinded envelopes to a Shuffler 1 daemon, which blinds, shuffles, and
// forwards each epoch to a Shuffler 2 daemon (Forward), which thresholds on
// blinded pseudonyms and pushes the survivors to the analyzer — three
// mutually distrusting services, none of which sees both who reported and
// what was reported.
//
// With -fleet, every hop of the chain is a replica pair (2 shuffler1 ×
// 2 shuffler2 × 2 analyzer partitions): submissions enter through a
// health-checked balancer over the hop-1 replicas, each envelope carries
// its crowd's owning hop-2 partition so the thresholding replica sees the
// whole crowd regardless of entry replica, and the analyzer partitions'
// histograms merge at drain. The run ends with the balancer's failover
// counters and the fleet-wide drain barrier.
package main

import (
	"bufio"
	"bytes"
	crand "crypto/rand"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"strconv"
	"strings"

	"prochlo"
	"prochlo/internal/analyzer"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

// reg is the shared metrics registry when -metrics-addr is set; nil
// disables instrumentation everywhere it is threaded (the zero-cost path).
var reg *metrics.Registry

// epochCfg builds a stage's epoch config, carrying the shared registry and
// a role/replica label pair the way cmd/prochlod labels its own series.
func epochCfg(role string, replica, flushAt int) transport.EpochConfig {
	return transport.EpochConfig{
		FlushAt: flushAt,
		Metrics: reg,
		MetricsLabels: metrics.Labels{
			"role": role, "replica": strconv.Itoa(replica),
		},
	}
}

func main() {
	workers := flag.Int("workers", 0, "worker pool size per stage (0 = GOMAXPROCS, 1 = serial)")
	reports := flag.Int("reports", 240, "reports to submit")
	flushAt := flag.Int("flush-at", 100, "epoch auto-flush threshold")
	chain := flag.Bool("chain", false, "run the §4.3 split-shuffler chain (Shuffler1 -> Shuffler2 -> analyzer) instead of the single shuffler")
	fleet := flag.Bool("fleet", false, "run the chain as a 2x2x2 replica fleet with a balanced entry tier and partitioned fan-in")
	metricsAddr := flag.String("metrics-addr", "", "serve every party's metrics at /metrics on this address and print a gauge sample after the drain (empty disables)")
	flag.Parse()

	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		ms, err := metrics.Serve(*metricsAddr, reg, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	}

	var rp *prochlo.RemotePipeline
	switch {
	case *fleet:
		rp = dialChain(2, *workers, *flushAt)
	case *chain:
		rp = dialChain(1, *workers, *flushAt)
	default:
		rp = dialSingle(*workers, *flushAt)
	}
	defer rp.Close()

	labels := make([]string, *reports)
	data := make([][]byte, *reports)
	for i := range labels {
		labels[i] = "cfg:dark-mode"
		data[i] = []byte("dark-mode")
	}
	if err := rp.SubmitBatch(labels, data); err != nil {
		log.Fatal(err)
	}

	stats, err := rp.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mid-stream: %d pending, %d epochs auto-flushed, %d queued\n",
		stats.Pending, stats.EpochsFlushed, stats.QueuedEpochs)

	// Drain the chain in hop order and read the cumulative histogram.
	res, err := rp.Flush()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shuffler cumulative: %+v\n", res.ShufflerStats)
	fmt.Println("analyzer histogram:", res.Histogram)
	if *fleet {
		bs := rp.BalancerStats()
		fmt.Printf("entry balancer: %d/%d replicas healthy, %d failovers, %d ejections, %d probes\n",
			bs.Healthy, bs.Replicas, bs.Failovers, bs.Ejections, bs.Probes)
		// DrainAll already ran under Flush; a second barrier is idempotent
		// and shows the fleet-wide reconciliation invariant directly.
		stats, err := rp.DrainAll(false)
		if err != nil {
			log.Fatal(err)
		}
		for t, tier := range stats {
			for i, s := range tier {
				fmt.Printf("hop %d replica %d: accepted=%d forwarded=%d dropped=%d unaccounted=%d\n",
					t+1, i, s.Accepted, s.Cumulative.Forwarded, s.Dropped, s.Unaccounted)
			}
		}
	}
	if reg != nil {
		fmt.Println("post-drain gauge sample:")
		var buf bytes.Buffer
		if _, err := reg.WriteTo(&buf); err != nil {
			log.Fatal(err)
		}
		for sc := bufio.NewScanner(&buf); sc.Scan(); {
			line := sc.Text()
			if strings.HasPrefix(line, "prochlo_epoch_occupancy") ||
				strings.HasPrefix(line, "prochlo_unaccounted_reports") ||
				strings.HasPrefix(line, "prochlo_balancer_healthy_replicas") ||
				strings.HasPrefix(line, "prochlo_analyzer_records") {
				fmt.Println(" ", line)
			}
		}
	}
}

// serve starts one party on an ephemeral loopback port and returns its
// address; the listeners live for the rest of the process.
func serve(svc transport.Service) string {
	l, err := transport.Serve("127.0.0.1:0", svc)
	if err != nil {
		log.Fatal(err)
	}
	return l.Addr().String()
}

// serveAnalyzers starts n analyzer partitions sharing one key (as prochlod
// daemons would via one -key-file).
func serveAnalyzers(n, workers int) []string {
	priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	var addrs []string
	for i := 0; i < n; i++ {
		svc := transport.NewAnalyzerService(&analyzer.Analyzer{Priv: priv, Workers: workers}, priv.Public().Bytes())
		if reg != nil {
			svc.RegisterMetrics(reg, metrics.Labels{"role": "analyzer", "replica": strconv.Itoa(i)})
		}
		addrs = append(addrs, serve(svc))
	}
	return addrs
}

// dialSingle wires the single-shuffler topology: one streaming shuffler
// daemon auto-flushing epochs to the analyzer through a bounded in-flight
// queue, and a RemotePipeline playing the client fleet.
func dialSingle(workers, flushAt int) *prochlo.RemotePipeline {
	anlzAddrs := serveAnalyzers(1, workers)
	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	sh := &shuffler.Shuffler{
		Priv:      shufPriv,
		Threshold: shuffler.Threshold{Noise: dp.PaperThresholdNoise},
		Rand:      rand.New(rand.NewPCG(17, 19)),
		Workers:   workers,
	}
	shufSvc, err := transport.NewStageService(sh, transport.Keys{Key: shufPriv.Public().Bytes()},
		anlzAddrs, epochCfg("shuffler", 0, flushAt))
	if err != nil {
		log.Fatal(err)
	}
	shufAddrs := []string{serve(shufSvc)}
	fmt.Println("analyzer:", anlzAddrs, " shuffler:", shufAddrs)

	rp, err := prochlo.DialRemoteFleet(shufAddrs, anlzAddrs, prochlo.WithRemoteWorkers(workers))
	if err != nil {
		log.Fatal(err)
	}
	return rp
}

// dialChain wires the split-shuffler chain with every hop a tier of the
// given replica count. Replicas of a key-holding tier share key material:
// every analyzer partition decrypts with one key, every shuffler2 replica
// holds the same blinding and hybrid keys (shuffler1 holds none — the
// RemotePipeline fetches the chain's keys from hop 2). Every hop-1 replica
// fans out to every hop-2 partition, and every hop-2 replica to every
// analyzer partition.
func dialChain(replicas, workers, flushAt int) *prochlo.RemotePipeline {
	anlzAddrs := serveAnalyzers(replicas, workers)

	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	s2Priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	s2Keys := transport.Keys{Blinding: blindKP.H.Bytes(), Key: s2Priv.Public().Bytes()}
	var s2Addrs []string
	for i := 0; i < replicas; i++ {
		s2 := &shuffler.Shuffler2{
			Blinding:  blindKP,
			Priv:      s2Priv,
			Threshold: shuffler.Threshold{Noise: dp.PaperThresholdNoise},
			Rand:      rand.New(rand.NewPCG(23, 29+uint64(i))),
			MinBatch:  1,
			Workers:   workers,
		}
		s2Svc, err := transport.NewStageService(s2, s2Keys,
			anlzAddrs, epochCfg("shuffler2", i, flushAt))
		if err != nil {
			log.Fatal(err)
		}
		s2Addrs = append(s2Addrs, serve(s2Svc))
	}

	var s1Addrs []string
	for i := 0; i < replicas; i++ {
		s1, err := shuffler.NewShuffler1(rand.New(rand.NewPCG(31, 37+uint64(i))))
		if err != nil {
			log.Fatal(err)
		}
		s1.Workers = workers
		s1Svc, err := transport.NewStageService(s1, transport.Keys{},
			s2Addrs, epochCfg("shuffler1", i, flushAt))
		if err != nil {
			log.Fatal(err)
		}
		s1Addrs = append(s1Addrs, serve(s1Svc))
	}
	fmt.Println("shuffler1:", s1Addrs, " shuffler2:", s2Addrs, " analyzers:", anlzAddrs)

	rp, err := prochlo.DialRemoteChainFleet(s1Addrs, s2Addrs, anlzAddrs,
		prochlo.WithRemoteWorkers(workers),
		prochlo.WithRemoteMetrics(reg, map[string]string{"tier": "entry"}))
	if err != nil {
		log.Fatal(err)
	}
	return rp
}
