package prochlo_test

import (
	"fmt"
	"sort"

	"prochlo"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

// ExamplePipeline_SubmitBatch runs the whole ESA chain in process: a
// seeded pipeline encodes a batch of nested-encrypted reports, the
// shuffler thresholds crowds (here a naive T=3 for a deterministic
// output), and the analyzer's histogram counts only the crowd that
// cleared the threshold — the two-report "light" crowd is dropped before
// the analyzer ever sees it.
func ExamplePipeline_SubmitBatch() {
	p, err := prochlo.New(
		prochlo.WithSeed(5),
		prochlo.WithNaiveThreshold(3),
		prochlo.WithMinBatch(1),
	)
	if err != nil {
		panic(err)
	}
	labels := []string{
		"cfg:dark-mode", "cfg:dark-mode", "cfg:dark-mode",
		"cfg:dark-mode", "cfg:dark-mode",
		"cfg:light", "cfg:light",
	}
	data := [][]byte{
		[]byte("dark"), []byte("dark"), []byte("dark"),
		[]byte("dark"), []byte("dark"),
		[]byte("light"), []byte("light"),
	}
	if err := p.SubmitBatch(labels, data); err != nil {
		panic(err)
	}
	res, err := p.Flush()
	if err != nil {
		panic(err)
	}
	keys := make([]string, 0, len(res.Histogram))
	for k := range res.Histogram {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s: %d\n", k, res.Histogram[k])
	}
	fmt.Println("crowds dropped:", res.ShufflerStats.Crowds-res.ShufflerStats.CrowdsForwarded)
	// Output:
	// dark: 5
	// crowds dropped: 1
}

// ExampleDialRemoteFleet runs the replicated single-shuffler deployment
// over loopback TCP: two shuffler replicas sharing one key pair (as
// prochlod daemons share a -key-file) push to two analyzer partitions
// sharing another, and the client handle balances submissions across the
// entry replicas and merges the partitions' histograms at query time.
func ExampleDialRemoteFleet() {
	fleet, err := transport.StartFleet([]transport.Tier{{Role: "shuffler", Replicas: 2}, {Role: "analyzer", Replicas: 2}},
		shuffler.Params{Threshold: shuffler.Threshold{Naive: 20}, MinBatch: 1}, nil)
	if err != nil {
		panic(err)
	}
	defer fleet.Close()

	rp, err := prochlo.DialRemoteFleet(fleet.Tiers[0], fleet.Tiers[1])
	if err != nil {
		panic(err)
	}
	defer rp.Close()

	labels := make([]string, 60)
	data := make([][]byte, 60)
	for i := range labels {
		labels[i] = "cfg:dark-mode"
		data[i] = []byte("dark-mode")
	}
	if err := rp.SubmitBatch(labels, data); err != nil {
		panic(err)
	}
	res, err := rp.Flush()
	if err != nil {
		panic(err)
	}
	fmt.Println("dark-mode:", res.Histogram["dark-mode"])
	fmt.Println("undecryptable:", res.Undecryptable)
	// Output:
	// dark-mode: 60
	// undecryptable: 0
}
