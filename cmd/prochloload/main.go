// Command prochloload is the macro-scale load generator for a PROCHLO
// deployment: K concurrent client goroutines offer encoded report batches
// to a shuffler fleet in closed- or open-loop mode and emit one structured
// JSON (or CSV) result row — throughput, latency percentiles, and the
// fleet's reconciliation ledger — per fleet shape.
//
// Two ways to point it at a fleet:
//
//   - -loopback RxSxA spins up a complete blinded-chain fleet in-process
//     over loopback TCP (R shuffler1 replicas, S shuffler2 replicas, A
//     analyzer partitions — e.g. -loopback 2x2x2), runs the load against
//     it, drains, and asserts Unaccounted == 0. Use -sweep to run several
//     shapes in one invocation and get a throughput-vs-fleet-size curve.
//   - -shuffler1/-shuffler2/-analyzer take comma-separated addresses of
//     already-running prochlod daemons (omit -shuffler2 for the
//     single-shuffler topology).
//
// With -metrics-addr the harness serves the loopback fleet's combined
// /metrics endpoint while the run is in progress, so a scrape shows epoch
// occupancy, in-flight pushes, and balancer health live. See
// docs/OPERATIONS.md for the full flag and metrics reference, and
// EXPERIMENTS.md for walkthroughs.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"prochlo"
	"prochlo/internal/crypto/group"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/load"
	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

// row is the emitted result record: the load.Result measurement plus the
// fleet shape and the drain-time reconciliation ledger.
type row struct {
	Fleet string `json:"fleet"`
	load.Result
	Accepted    int64 `json:"accepted"`
	Dropped     int64 `json:"dropped"`
	Unaccounted int64 `json:"unaccounted"`
	Records     int   `json:"analyzer_records"`
}

func rowCSVHeader() []string {
	return append(append([]string{"fleet"}, load.CSVHeader()...),
		"accepted", "dropped", "unaccounted", "analyzer_records")
}

func (r row) csvRecord() []string {
	return append(append([]string{r.Fleet}, r.Result.CSVRecord()...),
		strconv.FormatInt(r.Accepted, 10), strconv.FormatInt(r.Dropped, 10),
		strconv.FormatInt(r.Unaccounted, 10), strconv.Itoa(r.Records))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("prochloload: ")

	var (
		loopback  = flag.String("loopback", "", "spin up an in-process fleet of shape RxSxA (shuffler1 x shuffler2 x analyzer replicas), e.g. 2x2x2; mutually exclusive with -shuffler1")
		sweep     = flag.String("sweep", "", "comma-separated list of loopback shapes to run in sequence (e.g. 1x1x1,2x2x2), one result row each")
		s1Addrs   = flag.String("shuffler1", "", "comma-separated addresses of running shuffler1 (or single-shuffler) daemons")
		s2Addrs   = flag.String("shuffler2", "", "comma-separated addresses of running shuffler2 daemons (empty = single-shuffler topology)")
		anlzAddrs = flag.String("analyzer", "", "comma-separated addresses of running analyzer daemons")

		clients   = flag.Int("clients", 4, "concurrent client goroutines")
		batches   = flag.Int("batches", 8, "batches per client")
		batchSize = flag.Int("batch-size", 100, "reports per batch")
		rate      = flag.Float64("rate", 0, "open-loop target offered load in reports/sec fleet-wide (0 = closed loop)")
		values    = flag.Int("values", 8, "distinct report values (and crowd labels); keep values*threshold below the epoch size or every crowd is filtered out")
		dist      = flag.String("dist", "uniform", "report value distribution: uniform or zipf")
		zipfS     = flag.Float64("zipf-s", 1.5, "zipf skew exponent (> 1)")
		seed      = flag.Uint64("seed", 1, "workload seed: same seed, same offered value stream")
		warmup    = flag.Float64("warmup", 0.125, "fraction of each client's batches excluded from the measured window")

		workers     = flag.Int("workers", 0, "worker pool size per loopback stage and client encoder (0 = GOMAXPROCS)")
		flushAt     = flag.Int("flush-at", 400, "epoch auto-flush threshold of the loopback services")
		metricsAddr = flag.String("metrics-addr", "", "serve the loopback fleet's combined /metrics + /healthz endpoint on this address during the run")
		format      = flag.String("format", "json", "result row format: json (one object per line) or csv (header + rows)")
		outPath     = flag.String("out", "-", "write result rows to this file (- = stdout)")
	)
	flag.Parse()

	cfg := load.Config{
		Clients: *clients, Batches: *batches, BatchSize: *batchSize,
		Rate: *rate, Values: *values, Dist: *dist, ZipfS: *zipfS,
		Seed: *seed, Warmup: *warmup,
	}

	out := io.Writer(os.Stdout)
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}

	shapes, external := planRuns(*loopback, *sweep, *s1Addrs)
	var rows []row
	if external {
		r, err := runExternal(cfg, *s1Addrs, *s2Addrs, *anlzAddrs, *workers)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, r)
	} else {
		var reg *metrics.Registry
		var srv *metrics.Server
		if *metricsAddr != "" {
			reg = metrics.NewRegistry()
			group.RegisterMetrics(reg)
			hybrid.RegisterMetrics(reg)
			var err error
			if srv, err = metrics.Serve(*metricsAddr, reg, nil); err != nil {
				log.Fatal(err)
			}
			defer srv.Close()
			log.Printf("metrics on http://%s/metrics", srv.Addr())
		}
		for _, shape := range shapes {
			r, err := runLoopback(cfg, shape, *workers, *flushAt, reg)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, r)
		}
	}

	if err := emit(out, *format, rows); err != nil {
		log.Fatal(err)
	}
}

// planRuns resolves the -loopback/-sweep/-shuffler1 flags into a list of
// loopback shapes or the external mode.
func planRuns(loopback, sweep, s1 string) (shapes []string, external bool) {
	switch {
	case s1 != "":
		if loopback != "" || sweep != "" {
			log.Fatal("-shuffler1 is mutually exclusive with -loopback/-sweep")
		}
		return nil, true
	case sweep != "":
		return strings.Split(sweep, ","), false
	case loopback != "":
		return []string{loopback}, false
	default:
		return []string{"2x2x2"}, false
	}
}

// parseShape parses an RxSxA fleet shape like "2x2x2".
func parseShape(shape string) (s1, s2, anlz int, err error) {
	parts := strings.Split(strings.TrimSpace(shape), "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("fleet shape %q: want RxSxA, e.g. 2x2x2", shape)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		if dims[i], err = strconv.Atoi(p); err != nil || dims[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("fleet shape %q: bad dimension %q", shape, p)
		}
	}
	return dims[0], dims[1], dims[2], nil
}

// startLoopback starts the in-process blinded-chain fleet of one RxSxA
// shape. Replicas of a tier share its secrets, as prochlod daemons sharing a
// -key-file do, and draw StageRand(seed, role), as seeded prochlod daemons
// do, so a seeded run is reproducible end to end. With reg set every party
// registers its metrics under {role, replica} labels.
func startLoopback(shape string, workers, flushAt int, seed uint64, reg *metrics.Registry) (*transport.Fleet, error) {
	s1N, s2N, anlzN, err := parseShape(shape)
	if err != nil {
		return nil, err
	}
	epochs := transport.EpochConfig{FlushAt: flushAt}
	return transport.StartFleet([]transport.Tier{
		{Role: "shuffler1", Replicas: s1N, Epochs: epochs},
		{Role: "shuffler2", Replicas: s2N, Epochs: epochs},
		{Role: "analyzer", Replicas: anlzN},
	}, shuffler.Params{
		Threshold: shuffler.Threshold{Noise: dp.PaperThresholdNoise},
		Seed:      seed, MinBatch: 1, Workers: workers,
	}, reg)
}

// runLoopback spins up one fleet shape, drives the load through a balanced
// RemotePipeline, drains, and folds the reconciliation ledger into the row.
func runLoopback(cfg load.Config, shape string, workers, flushAt int, reg *metrics.Registry) (row, error) {
	fleet, err := startLoopback(shape, workers, flushAt, cfg.Seed, reg)
	if err != nil {
		return row{}, err
	}
	defer fleet.Close()

	opts := []prochlo.RemoteOption{prochlo.WithRemoteWorkers(workers)}
	if reg != nil {
		opts = append(opts, prochlo.WithRemoteMetrics(reg, map[string]string{"tier": "entry"}))
	}
	rp, err := prochlo.DialRemoteChainFleet(fleet.Tiers[0], fleet.Tiers[1], fleet.Tiers[2], opts...)
	if err != nil {
		return row{}, err
	}
	defer rp.Close()

	log.Printf("fleet %s: %d clients x %d batches x %d reports", shape, cfg.Clients, cfg.Batches, cfg.BatchSize)
	res, err := load.Run(rp, cfg)
	if err != nil {
		return row{}, err
	}
	r := row{Fleet: shape, Result: res}
	if err := drainLedger(rp, &r); err != nil {
		return row{}, err
	}
	return r, nil
}

// runExternal drives an already-running deployment and drains it for the
// ledger. The daemons keep running; only their current epochs are flushed.
func runExternal(cfg load.Config, s1, s2, anlz string, workers int) (row, error) {
	split := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, ",")
	}
	s1A, s2A, anlzA := split(s1), split(s2), split(anlz)
	if len(s1A) == 0 || len(anlzA) == 0 {
		return row{}, fmt.Errorf("external mode needs -shuffler1 and -analyzer (got %q, %q)", s1, anlz)
	}
	var (
		rp  *prochlo.RemotePipeline
		err error
	)
	if len(s2A) > 0 {
		rp, err = prochlo.DialRemoteChainFleet(s1A, s2A, anlzA, prochlo.WithRemoteWorkers(workers))
	} else {
		rp, err = prochlo.DialRemoteFleet(s1A, anlzA, prochlo.WithRemoteWorkers(workers))
	}
	if err != nil {
		return row{}, err
	}
	defer rp.Close()

	res, err := load.Run(rp, cfg)
	if err != nil {
		return row{}, err
	}
	shape := fmt.Sprintf("%dx%dx%d", len(s1A), len(s2A), len(anlzA))
	r := row{Fleet: shape, Result: res}
	if err := drainLedger(rp, &r); err != nil {
		return row{}, err
	}
	return r, nil
}

// drainLedger runs the fleet-wide drain barrier and folds every replica's
// ledger into the row. Unaccounted must be 0 on every replica once the
// barrier returns; the row carries the sum so a leak is visible in the
// emitted data, not only in logs.
func drainLedger(rp *prochlo.RemotePipeline, r *row) error {
	tiers, err := rp.DrainAll(false)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	// The analyzer count comes from the merged histogram (Flush re-runs the
	// drain barrier, which is idempotent after DrainAll). Against long-lived
	// daemons this is cumulative over the daemon's lifetime, like every
	// other ledger column.
	fres, err := rp.Flush()
	if err != nil {
		return fmt.Errorf("histogram: %w", err)
	}
	for _, n := range fres.Histogram {
		r.Records += n
	}
	for _, tier := range tiers {
		for _, s := range tier {
			r.Dropped += s.Dropped
			r.Unaccounted += s.Unaccounted
		}
	}
	// Accepted is meaningful at the entry tier only (inner hops count
	// forwarded epochs, not client reports).
	if len(tiers) > 0 {
		for _, s := range tiers[0] {
			r.Accepted += s.Accepted
		}
	}
	return nil
}

// emit writes the rows in the selected format.
func emit(w io.Writer, format string, rows []row) error {
	switch format {
	case "json":
		enc := json.NewEncoder(w)
		for _, r := range rows {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		return nil
	case "csv":
		cw := csv.NewWriter(w)
		if err := cw.Write(rowCSVHeader()); err != nil {
			return err
		}
		for _, r := range rows {
			if err := cw.Write(r.csvRecord()); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	default:
		return fmt.Errorf("unknown -format %q (want json or csv)", format)
	}
}
