// Networked pipeline: the ESA parties of Figure 1 as long-lived services
// exchanging frames over loopback TCP — the same wiring cmd/prochlod runs
// across machines. Three topologies are demonstrated:
//
// The default is the single-shuffler deployment: a fleet of clients ships
// whole batches of nested-encrypted reports, one Submit frame each; epochs
// auto-flush to the analyzer whenever occupancy reaches -flush-at, and the
// analyzer's histogram accumulates across epochs.
//
// With -chain, the §4.3 split-shuffler chain runs instead: clients submit
// blinded envelopes to a Shuffler 1 daemon, which blinds, shuffles, and
// pushes each epoch to a Shuffler 2 daemon (a Submit of its own, stamped with
// the epoch), which thresholds on blinded pseudonyms and pushes the survivors
// to the analyzer — three mutually distrusting services, none of which sees
// both who reported and what was reported.
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
	"flag"
	"fmt"
	"log"
	"strings"

	"prochlo"
	"prochlo/internal/dp"
	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

func main() {
	workers := flag.Int("workers", 0, "worker pool size per stage (0 = GOMAXPROCS, 1 = serial)")
	reports := flag.Int("reports", 240, "reports to submit")
	flushAt := flag.Int("flush-at", 100, "epoch auto-flush threshold")
	chain := flag.Bool("chain", false, "run the §4.3 split-shuffler chain (Shuffler1 -> Shuffler2 -> analyzer) instead of the single shuffler")
	fleet := flag.Bool("fleet", false, "run the chain as a 2x2x2 replica fleet with a balanced entry tier and partitioned fan-in")
	metricsAddr := flag.String("metrics-addr", "", "serve every party's metrics at /metrics on this address and print a gauge sample after the drain (empty disables)")
	flag.Parse()

	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		ms, err := metrics.Serve(*metricsAddr, reg, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	}

	// Every party is shuffler.NewStage's stage for its role; replicas of a
	// tier share its keys (the RemotePipeline fetches shuffler1's blinding
	// key from every hop-1 replica and the chain's other keys from hop 2),
	// each hop-1 replica fans out to every hop-2 partition and each
	// thresholding replica to every analyzer partition. The fixed seed makes
	// every run print the same histogram.
	epochs := transport.EpochConfig{FlushAt: *flushAt}
	tiers, replicas := []transport.Tier{{Role: "shuffler", Replicas: 1, Epochs: epochs}}, 1
	if *fleet {
		replicas = 2
	}
	if *chain || *fleet {
		tiers = []transport.Tier{
			{Role: "shuffler1", Replicas: replicas, Epochs: epochs},
			{Role: "shuffler2", Replicas: replicas, Epochs: epochs},
		}
	}
	f, err := transport.StartFleet(tiers, replicas, shuffler.Params{
		Threshold: shuffler.Threshold{Noise: dp.PaperThresholdNoise}, Seed: 17, Workers: *workers,
	}, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	fmt.Println("shuffler tiers:", f.Tiers, " analyzers:", f.Analyzers)

	opts := []prochlo.RemoteOption{prochlo.WithRemoteWorkers(*workers),
		prochlo.WithRemoteMetrics(reg, map[string]string{"tier": "entry"})}
	var rp *prochlo.RemotePipeline
	if len(f.Tiers) == 1 {
		rp, err = prochlo.DialRemoteFleet(f.Tiers[0], f.Analyzers, opts...)
	} else {
		rp, err = prochlo.DialRemoteChainFleet(f.Tiers[0], f.Tiers[1], f.Analyzers, opts...)
	}
	if err != nil {
		log.Fatal(err)
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
