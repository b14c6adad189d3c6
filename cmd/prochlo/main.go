// Command prochlo runs the ESA pipeline as networked services. Roles:
//
//	prochlo -role analyzer -listen 127.0.0.1:7101
//	prochlo -role shuffler -listen 127.0.0.1:7100 -analyzer 127.0.0.1:7101 ...
//	prochlo -role client   -shuffler 127.0.0.1:7100 ...
//	prochlo -role demo     (all three in one process over loopback)
//
// The analyzer prints its key so the operator can embed it in clients; in
// the demo role everything is wired automatically and a word histogram is
// collected end to end.
package main

import (
	crand "crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/signal"
	"sort"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
	"prochlo/internal/workload"
)

func main() {
	role := flag.String("role", "demo", "analyzer | shuffler | client | demo")
	listen := flag.String("listen", "127.0.0.1:0", "service listen address")
	analyzerAddr := flag.String("analyzer", "127.0.0.1:7101", "analyzer address (shuffler role)")
	shufflerAddr := flag.String("shuffler", "127.0.0.1:7100", "shuffler address (client role)")
	analyzerKeyHex := flag.String("analyzer-key", "", "analyzer public key, hex (client role)")
	reports := flag.Int("reports", 2000, "reports to submit (client/demo roles)")
	thresholdT := flag.Int("threshold", 20, "crowd threshold T")
	workers := flag.Int("workers", 0, "worker pool size per stage (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	switch *role {
	case "analyzer":
		runAnalyzer(*listen, *workers)
	case "shuffler":
		runShuffler(*listen, *analyzerAddr, *thresholdT, *workers)
	case "client":
		runClient(*shufflerAddr, *analyzerKeyHex, *reports, *workers)
	case "demo":
		runDemo(*reports, *thresholdT, *workers)
	default:
		fmt.Fprintln(os.Stderr, "unknown role", *role)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prochlo:", err)
	os.Exit(1)
}

func runAnalyzer(listen string, workers int) {
	priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		fatal(err)
	}
	svc := transport.NewAnalyzerService(&analyzer.Analyzer{Priv: priv, Workers: workers}, priv.Public().Bytes())
	l, err := transport.Serve(listen, svc)
	if err != nil {
		fatal(err)
	}
	fmt.Println("analyzer listening on", l.Addr())
	fmt.Println("analyzer public key:", hex.EncodeToString(priv.Public().Bytes()))
	wait()
}

func runShuffler(listen, analyzerAddr string, t, workers int) {
	priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		fatal(err)
	}
	sh := &shuffler.Shuffler{
		Priv:      priv,
		Threshold: shuffler.Threshold{Noise: dp.ThresholdNoise{T: t, D: 10, Sigma: 2}},
		Rand:      newRand(),
		Workers:   workers,
	}
	svc, err := transport.NewStageService(sh, core.KindEnvelopes, transport.Keys{Key: priv.Public().Bytes()},
		[]string{analyzerAddr}, transport.SinkAnalyzer, transport.EpochConfig{})
	if err != nil {
		fatal(err)
	}
	l, err := transport.Serve(listen, svc)
	if err != nil {
		fatal(err)
	}
	fmt.Println("shuffler listening on", l.Addr(), "forwarding to", analyzerAddr)
	wait()
	// Graceful shutdown: drain any pending epoch to the analyzer.
	l.Close()
	if err := svc.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "prochlo: drain:", err)
	}
}

func runClient(shufflerAddr, analyzerKeyHex string, reports, workers int) {
	keyBytes, err := hex.DecodeString(analyzerKeyHex)
	if err != nil {
		fatal(fmt.Errorf("bad -analyzer-key: %w", err))
	}
	anlzKey, err := hybrid.ParsePublicKey(keyBytes)
	if err != nil {
		fatal(err)
	}
	cl, err := transport.Dial(shufflerAddr)
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	keys, err := cl.Keys()
	if err != nil {
		fatal(err)
	}
	shufKey, err := hybrid.ParsePublicKey(keys.Key)
	if err != nil {
		fatal(err)
	}
	enc := &encoder.Client{ShufflerKey: shufKey, AnalyzerKey: anlzKey, Rand: crand.Reader}
	envs, err := encodeWords(enc, reports, workers)
	if err != nil {
		fatal(err)
	}
	// A long-lived daemon's failure counter is cumulative; remember the
	// high-water mark so only failures during THIS run are fatal.
	before, err := cl.Stats()
	if err != nil {
		fatal(err)
	}
	// Whole batches per RPC round trip instead of one trip per report; the
	// shuffler's epoch backpressure is handled by splitting and backoff.
	if n, err := cl.SubmitAll(envs, transport.DefaultSubmitRetries, transport.DefaultSubmitDelay); err != nil {
		fatal(fmt.Errorf("after %d of %d reports accepted: %w", n, len(envs), err))
	}
	// Drain rather than Flush: against a streaming daemon some epochs have
	// already auto-flushed, and Drain pushes the remainder and reports the
	// cumulative selectivity.
	stats, err := cl.Drain()
	if err != nil {
		fatal(err)
	}
	if stats.EpochsFailed > before.EpochsFailed {
		fatal(fmt.Errorf("%d epochs failed to reach the analyzer during this run (last error: %s)",
			stats.EpochsFailed-before.EpochsFailed, stats.LastError))
	}
	fmt.Printf("submitted %d reports; %d epochs flushed; shuffler stats: %+v\n",
		reports, stats.EpochsFlushed, stats.Cumulative)
}

func runDemo(reports, t, workers int) {
	// Analyzer.
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		fatal(err)
	}
	anlzSvc := transport.NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv, Workers: workers}, anlzPriv.Public().Bytes())
	anlzL, err := transport.Serve("127.0.0.1:0", anlzSvc)
	if err != nil {
		fatal(err)
	}
	defer anlzL.Close()

	// Shuffler.
	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		fatal(err)
	}
	sh := &shuffler.Shuffler{
		Priv:      shufPriv,
		Threshold: shuffler.Threshold{Noise: dp.ThresholdNoise{T: t, D: 10, Sigma: 2}},
		Rand:      newRand(),
		Workers:   workers,
	}
	shufSvc, err := transport.NewStageService(sh, core.KindEnvelopes, transport.Keys{Key: shufPriv.Public().Bytes()},
		[]string{anlzL.Addr().String()}, transport.SinkAnalyzer, transport.EpochConfig{})
	if err != nil {
		fatal(err)
	}
	defer shufSvc.Close()
	shufL, err := transport.Serve("127.0.0.1:0", shufSvc)
	if err != nil {
		fatal(err)
	}
	defer shufL.Close()
	fmt.Println("demo: analyzer", anlzL.Addr(), "| shuffler", shufL.Addr())

	// Client fleet.
	cl, err := transport.Dial(shufL.Addr().String())
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	keys, err := cl.Keys()
	if err != nil {
		fatal(err)
	}
	shufKey, err := hybrid.ParsePublicKey(keys.Key)
	if err != nil {
		fatal(err)
	}
	enc := &encoder.Client{ShufflerKey: shufKey, AnalyzerKey: anlzPriv.Public(), Rand: crand.Reader}
	envs, err := encodeWords(enc, reports, workers)
	if err != nil {
		fatal(err)
	}
	// One batch RPC for the whole fleet instead of one round trip per report.
	if n, err := cl.SubmitAll(envs, transport.DefaultSubmitRetries, transport.DefaultSubmitDelay); err != nil {
		fatal(fmt.Errorf("after %d of %d reports accepted: %w", n, len(envs), err))
	}
	stats, err := cl.Flush()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("shuffler: %d received, %d crowds, %d forwarded crowds, %d reports forwarded\n",
		stats.Received, stats.Crowds, stats.CrowdsForwarded, stats.Forwarded)

	// Query the analyzer (DialAnalyzer bounds the connect with the default
	// dial timeout).
	ac, err := transport.DialAnalyzer(anlzL.Addr().String())
	if err != nil {
		fatal(err)
	}
	defer ac.Close()
	counts, _, err := ac.Histogram()
	if err != nil {
		fatal(err)
	}
	type kv struct {
		k string
		v int
	}
	var top []kv
	for k, v := range counts {
		top = append(top, kv{k, v})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].v > top[j].v })
	if len(top) > 10 {
		top = top[:10]
	}
	fmt.Println("top words reaching the analyzer (crowds below threshold never arrive):")
	for _, e := range top {
		fmt.Printf("  %-12s %d\n", e.k, e.v)
	}
}

// encodeWords samples the demo word workload and encodes it on the worker
// pool via the batch encoder — the client fleet's reports are independent,
// so encoding scales with cores.
func encodeWords(enc *encoder.Client, reports, workers int) ([]core.Envelope, error) {
	words := workload.DefaultVocab.SampleWords(workload.NewRand(1), reports)
	batch := make([]core.Report, len(words))
	for i, w := range words {
		word := workload.Word(w)
		batch[i] = core.Report{CrowdID: core.HashCrowdID(word), Data: []byte(word)}
	}
	return enc.EncodeBatch(batch, workers)
}

func newRand() *rand.Rand {
	var b [16]byte
	crand.Read(b[:])
	return rand.New(rand.NewPCG(
		uint64(b[0])|uint64(b[1])<<8|uint64(b[2])<<16,
		uint64(b[8])|uint64(b[9])<<8|uint64(b[10])<<16))
}

func wait() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}
