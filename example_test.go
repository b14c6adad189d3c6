package prochlo_test

import (
	crand "crypto/rand"
	"fmt"
	"sort"

	"prochlo"
	"prochlo/internal/analyzer"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
	"prochlo/internal/workload"
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
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		panic(err)
	}
	var anlzAddrs []string
	for i := 0; i < 2; i++ {
		svc := transport.NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv}, anlzPriv.Public().Bytes())
		l, err := transport.Serve("127.0.0.1:0", svc)
		if err != nil {
			panic(err)
		}
		defer l.Close()
		anlzAddrs = append(anlzAddrs, l.Addr().String())
	}

	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		panic(err)
	}
	var shufAddrs []string
	for i := 0; i < 2; i++ {
		sh := &shuffler.Shuffler{
			Priv:      shufPriv,
			Threshold: shuffler.Threshold{Naive: 20},
			Rand:      workload.NewRand(uint64(80 + i)),
			MinBatch:  1,
		}
		svc, err := transport.NewStageService(sh, transport.Keys{Key: shufPriv.Public().Bytes()},
			anlzAddrs, transport.EpochConfig{})
		if err != nil {
			panic(err)
		}
		defer svc.Close()
		l, err := transport.Serve("127.0.0.1:0", svc)
		if err != nil {
			panic(err)
		}
		defer l.Close()
		shufAddrs = append(shufAddrs, l.Addr().String())
	}

	rp, err := prochlo.DialRemoteFleet(shufAddrs, anlzAddrs)
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
