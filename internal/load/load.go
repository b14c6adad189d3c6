// Package load is the macro-scale load harness: it drives a PROCHLO
// pipeline with K concurrent client goroutines submitting encoded report
// batches, and reports latency percentiles, throughput and the fleet's
// reconciliation ledger.
//
// Two pacing modes:
//
//   - Closed loop (Config.Rate == 0): every client submits its next batch
//     as soon as the previous one is acknowledged. Measures the system's
//     saturated capacity.
//   - Open loop (Config.Rate > 0): batches are launched on a fixed
//     schedule targeting Rate reports/second fleet-wide, and each batch's
//     latency is measured from its *scheduled* send time — so a stalled
//     server inflates the tail instead of silently slowing the offered
//     load (the coordinated-omission correction).
//
// Report values are drawn per client from a seeded uniform or Zipf
// distribution over Config.Values distinct values, so a seeded run offers
// a reproducible workload and the analyzer histogram is predictable.
// cmd/prochloload wraps this package in a CLI that can also spin up a
// whole loopback fleet; see docs/OPERATIONS.md for the flag reference.
package load

import (
	"errors"
	"fmt"
	"math"
	randv1 "math/rand"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Submitter accepts one batch of client reports: labels[i] is report i's
// crowd label and data[i] its payload. Both *prochlo.Pipeline and
// *prochlo.RemotePipeline satisfy it with their SubmitBatch methods, and
// both are safe for the concurrent use this harness makes of them.
type Submitter interface {
	SubmitBatch(labels []string, data [][]byte) error
}

// Distribution names for Config.Dist.
const (
	DistUniform = "uniform"
	DistZipf    = "zipf"
)

// Config parameterizes one load run. The zero value is not runnable; at
// minimum set Clients, Batches, and BatchSize.
type Config struct {
	// Clients is the number of concurrent client goroutines.
	Clients int
	// Batches is how many batches each client submits.
	Batches int
	// BatchSize is the number of reports per batch.
	BatchSize int
	// Rate is the fleet-wide target offered load in reports/second;
	// 0 selects closed-loop pacing (submit as fast as acks return).
	Rate float64
	// Values is the number of distinct report values (and crowd labels)
	// drawn from; 0 selects 16.
	Values int
	// Dist selects the value distribution: DistUniform (default) or
	// DistZipf.
	Dist string
	// ZipfS is the Zipf skew exponent (must be > 1); 0 selects 1.5.
	ZipfS float64
	// Seed makes the offered workload reproducible: each client derives
	// its value stream from (Seed, client index).
	Seed uint64
	// Warmup is the fraction (0..1) of each client's batches excluded
	// from the measured window, so connection setup and cold epochs do
	// not pollute the percentiles.
	Warmup float64
}

// withDefaults validates cfg and fills the documented defaults.
func (c Config) withDefaults() (Config, error) {
	if c.Clients <= 0 || c.Batches <= 0 || c.BatchSize <= 0 {
		return c, fmt.Errorf("load: Clients, Batches, BatchSize must be positive (got %d, %d, %d)",
			c.Clients, c.Batches, c.BatchSize)
	}
	if c.Values <= 0 {
		c.Values = 16
	}
	if c.Dist == "" {
		c.Dist = DistUniform
	}
	if c.Dist != DistUniform && c.Dist != DistZipf {
		return c, fmt.Errorf("load: unknown distribution %q (want %s or %s)", c.Dist, DistUniform, DistZipf)
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.5
	}
	if c.ZipfS <= 1 {
		return c, fmt.Errorf("load: ZipfS must be > 1, got %v", c.ZipfS)
	}
	if c.Warmup < 0 || c.Warmup >= 1 {
		return c, fmt.Errorf("load: Warmup must be in [0, 1), got %v", c.Warmup)
	}
	if c.Rate < 0 {
		return c, fmt.Errorf("load: Rate must be >= 0, got %v", c.Rate)
	}
	return c, nil
}

// Result is one run's structured outcome — the JSON/CSV row the harness
// emits, one per fleet shape of a sweep.
type Result struct {
	Clients    int     `json:"clients"`
	Batches    int     `json:"batches"`
	BatchSize  int     `json:"batch_size"`
	Dist       string  `json:"dist"`
	Seed       uint64  `json:"seed"`
	OpenLoop   bool    `json:"open_loop"`
	TargetRate float64 `json:"target_rate,omitempty"`

	// Reports is the number of reports submitted and acknowledged inside
	// the measured (post-warmup) window; Errors counts failed batch
	// submissions in that window.
	Reports int64 `json:"reports"`
	Errors  int64 `json:"errors"`
	// DurationSec spans the measured window (first scheduled post-warmup
	// send to last acknowledgment); Throughput is Reports/DurationSec.
	DurationSec float64 `json:"duration_sec"`
	Throughput  float64 `json:"throughput_rps"`
	// Batch-submission latency percentiles over the measured window, in
	// milliseconds. Open-loop latencies are measured from the scheduled
	// send time.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// CSVHeader is the column list matching CSVRecord, stable across runs so
// rows from different invocations concatenate into one sheet.
func CSVHeader() []string {
	return []string{
		"clients", "batches", "batch_size", "dist", "seed", "open_loop",
		"target_rate", "reports", "errors", "duration_sec",
		"throughput_rps", "p50_ms", "p95_ms", "p99_ms", "max_ms",
	}
}

// CSVRecord renders the result as one CSV row in CSVHeader order.
func (r Result) CSVRecord() []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	return []string{
		strconv.Itoa(r.Clients), strconv.Itoa(r.Batches), strconv.Itoa(r.BatchSize),
		r.Dist, strconv.FormatUint(r.Seed, 10), strconv.FormatBool(r.OpenLoop),
		f(r.TargetRate), strconv.FormatInt(r.Reports, 10), strconv.FormatInt(r.Errors, 10),
		f(r.DurationSec), f(r.Throughput), f(r.P50Ms), f(r.P95Ms), f(r.P99Ms), f(r.MaxMs),
	}
}

// Quantile returns the q-quantile (0 < q <= 1) of samples by the
// nearest-rank method — the value at rank ceil(q*n) of the sorted stream,
// never an interpolated value that no request actually experienced. The
// input is not modified. NaN for an empty stream or q out of range.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 || q <= 0 || q > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// valueStream draws a client's report values from the configured seeded
// distribution.
type valueStream struct {
	values int
	uni    *rand.Rand
	zipf   *randv1.Zipf
}

func newValueStream(cfg Config, client int) *valueStream {
	vs := &valueStream{values: cfg.Values}
	if cfg.Dist == DistZipf {
		// math/rand/v2 has no Zipf generator; the v1 generator is
		// seeded per client, so streams stay deterministic.
		src := randv1.NewSource(int64(cfg.Seed)*1_000_003 + int64(client))
		vs.zipf = randv1.NewZipf(randv1.New(src), cfg.ZipfS, 1, uint64(cfg.Values-1))
	} else {
		vs.uni = rand.New(rand.NewPCG(cfg.Seed, uint64(client)))
	}
	return vs
}

func (v *valueStream) next() int {
	if v.zipf != nil {
		return int(v.zipf.Uint64())
	}
	return v.uni.IntN(v.values)
}

// batch materializes one batch of crowd labels and payloads.
func (v *valueStream) batch(n int) ([]string, [][]byte) {
	labels := make([]string, n)
	data := make([][]byte, n)
	for i := 0; i < n; i++ {
		val := v.next()
		labels[i] = fmt.Sprintf("crowd:%03d", val)
		data[i] = []byte(fmt.Sprintf("value-%03d", val))
	}
	return labels, data
}

// clientResult is one goroutine's measured window.
type clientResult struct {
	lat       []float64 // seconds, post-warmup successful batches
	reports   int64
	errors    int64
	measStart time.Time
	measEnd   time.Time
}

// Run drives s with cfg.Clients concurrent clients and returns the
// measured Result. Batch submission errors are counted, not fatal — a
// loaded fleet sheds load via backpressure and the run keeps offering —
// but a window in which nothing succeeded returns an error.
func Run(s Submitter, cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	warmup := int(float64(cfg.Batches) * cfg.Warmup)
	if warmup >= cfg.Batches {
		warmup = cfg.Batches - 1
	}
	// Open loop: each client launches a batch every interval, offsetting
	// clients evenly so the fleet-wide schedule hits cfg.Rate.
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(cfg.BatchSize*cfg.Clients) / cfg.Rate * float64(time.Second))
	}

	results := make([]clientResult, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			vs := newValueStream(cfg, c)
			offset := time.Duration(0)
			if interval > 0 {
				offset = interval * time.Duration(c) / time.Duration(cfg.Clients)
			}
			for b := 0; b < cfg.Batches; b++ {
				labels, data := vs.batch(cfg.BatchSize)
				var sent time.Time
				if interval > 0 {
					sent = start.Add(offset + interval*time.Duration(b))
					if d := time.Until(sent); d > 0 {
						time.Sleep(d)
					}
				} else {
					sent = time.Now()
				}
				if b == warmup {
					res.measStart = sent
				}
				err := s.SubmitBatch(labels, data)
				done := time.Now()
				if b < warmup {
					continue
				}
				if err != nil {
					res.errors++
					continue
				}
				res.lat = append(res.lat, done.Sub(sent).Seconds())
				res.reports += int64(cfg.BatchSize)
				res.measEnd = done
			}
		}(c)
	}
	wg.Wait()

	out := Result{
		Clients:    cfg.Clients,
		Batches:    cfg.Batches,
		BatchSize:  cfg.BatchSize,
		Dist:       cfg.Dist,
		Seed:       cfg.Seed,
		OpenLoop:   cfg.Rate > 0,
		TargetRate: cfg.Rate,
	}
	var lat []float64
	var first, last time.Time
	for i := range results {
		r := &results[i]
		lat = append(lat, r.lat...)
		out.Reports += r.reports
		out.Errors += r.errors
		if !r.measStart.IsZero() && (first.IsZero() || r.measStart.Before(first)) {
			first = r.measStart
		}
		if r.measEnd.After(last) {
			last = r.measEnd
		}
	}
	if len(lat) == 0 {
		return out, errors.New("load: no batch succeeded inside the measured window")
	}
	out.DurationSec = last.Sub(first).Seconds()
	if out.DurationSec > 0 {
		out.Throughput = float64(out.Reports) / out.DurationSec
	}
	out.P50Ms = Quantile(lat, 0.50) * 1000
	out.P95Ms = Quantile(lat, 0.95) * 1000
	out.P99Ms = Quantile(lat, 0.99) * 1000
	out.MaxMs = Quantile(lat, 1.00) * 1000
	return out, nil
}
