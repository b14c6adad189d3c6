package load_test

import (
	"fmt"
	"sync/atomic"

	"prochlo/internal/load"
)

// countingSubmitter stands in for a *prochlo.RemotePipeline: any type with
// a concurrency-safe SubmitBatch satisfies load.Submitter.
type countingSubmitter struct{ reports atomic.Int64 }

func (c *countingSubmitter) SubmitBatch(labels []string, data [][]byte) error {
	c.reports.Add(int64(len(labels)))
	return nil
}

// ExampleRun drives a submitter with four seeded clients and reads the
// measured (post-warmup) report count off the structured result. Against a
// real fleet the submitter would be prochlo.DialRemoteChainFleet's pipeline.
func ExampleRun() {
	var sink countingSubmitter
	res, err := load.Run(&sink, load.Config{
		Clients:   4,
		Batches:   5,
		BatchSize: 50,
		Seed:      42,
		Warmup:    0.2, // first batch per client excluded from the window
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("offered:", sink.reports.Load())
	fmt.Println("measured:", res.Reports)
	fmt.Println("dist:", res.Dist)
	// Output:
	// offered: 1000
	// measured: 800
	// dist: uniform
}

// ExampleQuantile shows the nearest-rank percentile math the harness
// applies to its latency stream.
func ExampleQuantile() {
	latenciesMs := []float64{12, 7, 9, 31, 8, 10, 11, 9, 8, 250}
	fmt.Println("p50:", load.Quantile(latenciesMs, 0.50))
	fmt.Println("p99:", load.Quantile(latenciesMs, 0.99))
	// Output:
	// p50: 9
	// p99: 250
}
