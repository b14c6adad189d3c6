// Command prochlod runs one ESA party as a long-lived daemon — the
// deployment shape of Figure 1, where the stages are distinct services
// absorbing continuous report traffic. Any stage of the chain is selected
// by flags; every shuffler-role daemon forwards to the -next hop:
//
//	prochlod -role analyzer  -listen 127.0.0.1:7101
//	prochlod -role shuffler  -listen 127.0.0.1:7100 -next 127.0.0.1:7101 \
//	         -flush-at 2000 -epoch 10s -max-pending 4000
//
// or the §4.3 split-shuffler chain, where two mutually distrusting daemons
// threshold on blinded crowd IDs (clients enter at shuffler1, which
// forwards each blinded-and-shuffled epoch to shuffler2, which thresholds
// and forwards to the analyzer):
//
//	prochlod -role analyzer  -listen 127.0.0.1:7101
//	prochlod -role shuffler2 -listen 127.0.0.1:7102 -next 127.0.0.1:7101 -flush-at 2000
//	prochlod -role shuffler1 -listen 127.0.0.1:7103 -next 127.0.0.1:7102 -flush-at 2000
//
// Every shuffler-role daemon streams: submissions accumulate as pending
// chunks, an epoch is cut and processed whenever occupancy reaches
// -flush-at or the -epoch timer fires, and processed epochs are pushed to
// the -next hop asynchronously through an in-flight queue of two. When the
// queue is full and occupancy reaches -max-pending, submissions fail with a
// retryable "epoch full" error — backpressure instead of unbounded growth,
// and it composes across a chain: a congested downstream hop pushes back on
// its upstream, which pushes back on clients. A hop pushes an epoch the way
// a client submits: one redial policy (eight attempts, about 6 s) rides out
// a short restart of the -next hop, and a refusal fails the epoch at once.
//
// -wal-dir makes a shuffler-role daemon crash-safe: every accepted batch is
// fsynced to the write-ahead log, with its dedup stamp, before it is acked,
// and a restarted daemon recovers the directory — re-ingesting pending
// reports and re-pushing in-flight epochs under the same (stream, epoch) ids
// so the downstream dedup absorbs the replay. Pair -wal-dir with -key-file,
// which persists the daemon's private keys across restarts (created 0600 on
// first start): without it a restarted daemon draws fresh keys and every
// recovered report is undecryptable. SIGINT or SIGTERM shuts down
// gracefully: the listener closes, the final epoch is drained downstream, and
// only then does the process exit.
//
// Any hop can also run as a replicated fleet: a comma-separated -next lists
// the downstream tier's replicas in partition order (the same order on
// every replica of this tier, because the order is the partition map): a
// shuffler1 daemon splits each epoch by the client-stamped crowd partition
// and pushes each slice to its owning shuffler2 replica, and a thresholding
// hop spreads its output across the analyzer partitions by content hash.
// Replicas of a key-holding tier share keys via one -key-file:
//
//	prochlod -role shuffler2 -listen 127.0.0.1:7102 -key-file s2.key \
//	         -next 127.0.0.1:7110,127.0.0.1:7111
//
// Clients connect with prochlo.DialRemoteFleet (single shuffler tier,
// optionally -sgx attested) or prochlo.DialRemoteChainFleet (split chain)
// and submit whole batches per round trip; see examples/netpipeline for a
// loopback walkthrough of the topologies.
package main

import (
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"math/rand/v2"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"prochlo/internal/analyzer"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/group"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/metrics"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

func main() {
	role := flag.String("role", "", "party to run: shuffler | shuffler1 | shuffler2 | analyzer")
	listen := flag.String("listen", "127.0.0.1:0", "service listen address")
	next := flag.String("next", "127.0.0.1:7101", "downstream hop address: the analyzer for shuffler/shuffler2, the shuffler2 daemon for shuffler1; a comma-separated list fans out to a partitioned downstream tier, its replicas in partition order (identical on every replica of this tier)")
	workers := flag.Int("workers", 0, "worker pool size per stage (0 = GOMAXPROCS, 1 = serial)")
	sgxMode := flag.Bool("sgx", false, "shuffler role only: run inside a simulated SGX enclave (oblivious Stash Shuffle, key served with an attestation quote)")

	thresholdT := flag.Int("threshold", 20, "crowd threshold T (0 disables thresholding)")
	noiseD := flag.Float64("noise-d", 10, "randomized-threshold drop mean D (§3.5)")
	noiseSigma := flag.Float64("noise-sigma", 2, "randomized-threshold sigma (0 = naive threshold)")
	minBatch := flag.Int("min-batch", shuffler.DefaultMinBatch, "minimum envelopes per processed epoch (the anonymity floor)")
	seed := flag.Uint64("seed", 0, "deterministic batch RNG seed (0 = cryptographically random); stages derive independent per-role streams, so a seeded chain reproduces the in-process pipeline")

	flushAt := flag.Int("flush-at", 0, "auto-flush when occupancy reaches this many envelopes (0 = off)")
	epochInterval := flag.Duration("epoch", 0, "auto-flush epoch interval (0 = no timer)")
	maxPending := flag.Int("max-pending", 0, "occupancy cap before submissions get a retryable epoch-full error (0 = 2*flush-at); must fit the upstream hop's epochs in a chain")
	keyFile := flag.String("key-file", "", "persist the daemon's private keys at this path (created on first start, 0600): a restarted daemon decrypts the reports it recovers from -wal-dir; empty generates fresh keys per process")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: accepted reports are persisted before they are acked and recovered on restart (empty disables durability; pair with -key-file or recovered reports are undecryptable)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text metrics at /metrics and a liveness probe at /healthz on this address (empty disables; see docs/OPERATIONS.md for the catalog)")
	flag.Parse()

	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		group.RegisterMetrics(reg)
	}
	cfg := transport.EpochConfig{
		FlushAt:       *flushAt,
		Interval:      *epochInterval,
		MaxPending:    *maxPending,
		WALDir:        *walDir,
		Metrics:       reg,
		MetricsLabels: metrics.Labels{"role": *role},
	}
	o := shufflerOpts{
		listen: *listen, nexts: splitAddrs(*next),
		workers: *workers, thresholdT: *thresholdT, minBatch: *minBatch,
		noiseD: *noiseD, noiseSigma: *noiseSigma,
		seed: *seed, sgx: *sgxMode,
		keyFile:     *keyFile,
		cfg:         cfg,
		metricsAddr: *metricsAddr,
		metricsReg:  reg,
	}

	switch *role {
	case "analyzer":
		runAnalyzer(*listen, *workers, *keyFile, *metricsAddr, reg)
	case "shuffler":
		runShuffler(o)
	case "shuffler1":
		runShuffler1(o)
	case "shuffler2":
		runShuffler2(o)
	default:
		fmt.Fprintln(os.Stderr, "prochlod: -role must be shuffler, shuffler1, shuffler2, or analyzer")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prochlod:", err)
	os.Exit(1)
}

// serveMetrics starts the /metrics + /healthz endpoint when -metrics-addr
// is set. The /healthz status is driven by the same Healthz call the
// balancers probe, so an HTTP liveness check and a wire liveness check
// never disagree. Returns a nil server when disabled.
func serveMetrics(addr string, reg *metrics.Registry, healthz func() transport.HealthzReply) *metrics.Server {
	if addr == "" || reg == nil {
		return nil
	}
	ms, err := metrics.Serve(addr, reg, func() bool { return healthz().Healthy })
	if err != nil {
		fatal(err)
	}
	fmt.Printf("metrics on http://%s/metrics (liveness at /healthz)\n", ms.Addr())
	return ms
}

func runAnalyzer(listen string, workers int, keyFile string, metricsAddr string, reg *metrics.Registry) {
	priv, _, err := loadKeys(keyFile, false)
	if err != nil {
		fatal(err)
	}
	svc := transport.NewAnalyzerService(&analyzer.Analyzer{Priv: priv, Workers: workers}, priv.Public().Bytes())
	if reg != nil {
		svc.RegisterMetrics(reg, metrics.Labels{"role": "analyzer"})
	}
	ms := serveMetrics(metricsAddr, reg, svc.Healthz)
	l, err := transport.Serve(listen, svc)
	if err != nil {
		fatal(err)
	}
	fmt.Println("prochlod analyzer listening on", l.Addr())
	fmt.Println("analyzer public key:", hex.EncodeToString(priv.Public().Bytes()))
	waitForSignal()
	l.Close()
	if ms != nil {
		ms.Close()
	}
	fmt.Println("prochlod analyzer: shut down")
}

type shufflerOpts struct {
	listen                        string
	nexts                         []string // downstream tier replicas in partition order
	workers, thresholdT, minBatch int
	noiseD, noiseSigma            float64
	seed                          uint64
	sgx                           bool
	keyFile                       string
	cfg                           transport.EpochConfig
	metricsAddr                   string
	metricsReg                    *metrics.Registry
}

// splitAddrs parses a comma-separated address list, dropping empty entries.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// nextList formats the downstream tier for log lines.
func (o shufflerOpts) nextList() string { return strings.Join(o.nexts, ",") }

// deployedScalar decodes one hex line of a key file and refuses a scalar
// outside the deployed group's scalar field. The file holds bare scalars, so
// the range is all it shows of the group a key was made for: a file written
// for P-256 (order near 2^256) carries a scalar above the ristretto255 order
// (near 2^252) fifteen times in sixteen, and is refused here; one that
// happens to fit is indistinguishable from a ristretto255 key and loads as
// one.
func deployedScalar(path, line string) ([]byte, error) {
	b, err := hex.DecodeString(line)
	if err != nil {
		return nil, fmt.Errorf("key file %s: %w", path, err)
	}
	if g := group.Default(); new(big.Int).SetBytes(b).Cmp(g.Order()) >= 0 {
		return nil, fmt.Errorf("key file %s: key is on another group (its scalar is outside the %s scalar field, as most P-256 scalars are), this build deploys %s",
			path, g.Name(), g.Name())
	}
	return b, nil
}

// loadKeys reads the daemon's long-lived secrets from path, generating and
// persisting them (0600, atomic rename) on first start. The file holds hex
// scalars, one per line: the hybrid decryption key, plus the El Gamal
// blinding secret when wantBlinding (the shuffler2 role). An empty path
// generates ephemeral keys — fine until the daemon must decrypt reports it
// recovered from a WAL written by its predecessor.
func loadKeys(path string, wantBlinding bool) (*hybrid.PrivateKey, *elgamal.KeyPair, error) {
	if path != "" {
		if raw, err := os.ReadFile(path); err == nil {
			lines := strings.Fields(string(raw))
			want := 1
			if wantBlinding {
				want = 2
			}
			if len(lines) != want {
				return nil, nil, fmt.Errorf("key file %s: %d keys, want %d", path, len(lines), want)
			}
			kb, err := deployedScalar(path, lines[0])
			if err != nil {
				return nil, nil, err
			}
			priv, err := hybrid.ParsePrivateKey(kb)
			if err != nil {
				return nil, nil, fmt.Errorf("key file %s: %w", path, err)
			}
			var blind *elgamal.KeyPair
			if wantBlinding {
				xb, err := deployedScalar(path, lines[1])
				if err != nil {
					return nil, nil, err
				}
				if blind, err = elgamal.NewKeyPair(new(big.Int).SetBytes(xb)); err != nil {
					return nil, nil, fmt.Errorf("key file %s: %w", path, err)
				}
			}
			fmt.Println("loaded daemon keys from", path)
			return priv, blind, nil
		} else if !os.IsNotExist(err) {
			return nil, nil, err
		}
	}
	priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		return nil, nil, err
	}
	var blind *elgamal.KeyPair
	if wantBlinding {
		if blind, err = elgamal.GenerateKeyPair(crand.Reader); err != nil {
			return nil, nil, err
		}
	}
	if path != "" {
		body := hex.EncodeToString(priv.Bytes()) + "\n"
		if wantBlinding {
			body += hex.EncodeToString(blind.X.Bytes()) + "\n"
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(body), 0o600); err != nil {
			return nil, nil, err
		}
		if err := os.Rename(tmp, path); err != nil {
			return nil, nil, err
		}
		fmt.Println("generated daemon keys at", path)
	}
	return priv, blind, nil
}

// threshold builds the crowd-thresholding config from the flags.
func (o shufflerOpts) threshold() shuffler.Threshold {
	switch {
	case o.thresholdT > 0 && o.noiseSigma > 0:
		return shuffler.Threshold{Noise: dp.ThresholdNoise{T: o.thresholdT, D: o.noiseD, Sigma: o.noiseSigma}}
	case o.thresholdT > 0:
		return shuffler.Threshold{Naive: o.thresholdT}
	}
	return shuffler.Threshold{}
}

// stageRand derives the role's deterministic batch RNG; see shuffler.StageRand.
func stageRand(seed uint64, stage string) *rand.Rand {
	rng, err := shuffler.StageRand(seed, stage)
	if err != nil {
		fatal(err)
	}
	return rng
}

// serveStage serves svc, exposes /metrics when -metrics-addr is set, and on
// SIGINT/SIGTERM drains it gracefully: stop accepting, flush the final epoch
// downstream, then exit.
func serveStage(role string, o shufflerOpts, svc *transport.StageService) {
	printEpochs(svc.Config())
	if st := svc.Stats(); st.RecoveredItems > 0 {
		fmt.Printf("prochlod %s: recovered %d reports (%d in-flight epochs, %d pending) from the WAL\n",
			role, st.RecoveredItems, st.RecoveredEpochs, st.Pending)
	}
	ms := serveMetrics(o.metricsAddr, o.metricsReg, svc.Healthz)
	l, err := transport.Serve(o.listen, svc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("prochlod %s listening on %v\n", role, l.Addr())
	waitForSignal()
	l.Close()
	if ms != nil {
		defer ms.Close()
	}
	if err := svc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "prochlod %s: drain: %v\n", role, err)
	}
	fmt.Printf("prochlod %s: drained and shut down\n", role)
}

// printEpochs prints a service's effective epoch configuration (defaults
// and clamps applied), not the raw flags. The in-flight queue is the
// engine's fixed two epochs.
func printEpochs(cfg transport.EpochConfig) {
	if cfg.FlushAt > 0 || cfg.Interval > 0 {
		fmt.Printf("epochs: flush-at %d, interval %v, max-pending %d, in-flight 2\n",
			cfg.FlushAt, cfg.Interval, cfg.MaxPending)
	} else {
		fmt.Println("epochs: cut by Drain only")
	}
}

func runShuffler(o shufflerOpts) {
	rng := stageRand(o.seed, "shuffler")
	var svc *transport.StageService
	if o.sgx {
		if o.keyFile != "" {
			fatal(errors.New("-key-file is incompatible with -sgx: the enclave owns its key and attests it per process"))
		}
		ca, err := sgx.NewCA()
		if err != nil {
			fatal(err)
		}
		sh, quote, err := shuffler.NewSGXShuffler(ca, o.threshold(), rng)
		if err != nil {
			fatal(err)
		}
		sh.Seed = o.seed
		sh.MinBatch = o.minBatch
		sh.Workers = o.workers
		svc = newStage(sh, transport.Keys{Key: quote.ReportData}, o)
		if err := svc.SetAttestation(quote, ca.PublicKey()); err != nil {
			fatal(err)
		}
		fmt.Println("sgx: key attested, measurement", hex.EncodeToString(shuffler.SGXShufflerMeasurement[:8]))
	} else {
		priv, _, err := loadKeys(o.keyFile, false)
		if err != nil {
			fatal(err)
		}
		sh := &shuffler.Shuffler{
			Priv:      priv,
			Threshold: o.threshold(),
			Rand:      rng,
			MinBatch:  o.minBatch,
			Workers:   o.workers,
		}
		svc = newStage(sh, transport.Keys{Key: priv.Public().Bytes()}, o)
	}
	fmt.Println("forwarding to analyzer at", o.nextList())
	serveStage("shuffler", o, svc)
}

func runShuffler1(o shufflerOpts) {
	s1, err := shuffler.NewShuffler1(stageRand(o.seed, "shuffler1"))
	if err != nil {
		fatal(err)
	}
	s1.MinBatch = o.minBatch
	s1.Workers = o.workers
	svc := newStage(s1, transport.Keys{}, o)
	fmt.Println("forwarding blinded epochs to shuffler2 at", o.nextList())
	serveStage("shuffler1", o, svc)
}

func runShuffler2(o shufflerOpts) {
	priv, blindKP, err := loadKeys(o.keyFile, true)
	if err != nil {
		fatal(err)
	}
	s2 := &shuffler.Shuffler2{
		Blinding:  blindKP,
		Priv:      priv,
		Threshold: o.threshold(),
		Rand:      stageRand(o.seed, "shuffler2"),
		// The chain's entry hop enforces the anonymity floor on client
		// traffic; this hop must accept whatever hop 1 forwards.
		MinBatch: 1,
		Workers:  o.workers,
	}
	keys := transport.Keys{Blinding: blindKP.H.Bytes(), Key: priv.Public().Bytes()}
	svc := newStage(s2, keys, o)
	fmt.Println("forwarding to analyzer at", o.nextList())
	fmt.Println("blinding public key:", hex.EncodeToString(keys.Blinding))
	fmt.Println("shuffler2 public key:", hex.EncodeToString(keys.Key))
	serveStage("shuffler2", o, svc)
}

// newStage builds the role's stage service over the -next tier.
func newStage(st shuffler.Stage, keys transport.Keys, o shufflerOpts) *transport.StageService {
	svc, err := transport.NewStageService(st, keys, o.nexts, o.cfg)
	if err != nil {
		fatal(err)
	}
	return svc
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
