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
// recovered report is undecryptable. An -sgx daemon takes neither: its
// enclave draws a fresh key per process, so no WAL could be reopened.
// SIGINT or SIGTERM shuts down gracefully: the listener closes, the final
// epoch is drained downstream, and only then does the process exit.
//
// Any hop can also run as a replicated fleet: a comma-separated -next lists
// the downstream tier's replicas in partition order (the same order on
// every replica of this tier, because the order is the partition map): a
// shuffler1 daemon splits each epoch by the client-stamped crowd partition
// and pushes each slice to its owning shuffler2 replica, and a thresholding
// hop spreads its output across the analyzer partitions by content hash.
// Replicas of a tier share keys via one -key-file (shuffler1's holds the
// blinding exponent α, whose public key A = αG clients encrypt on; a client
// refuses to dial replicas that serve different ones). A shuffler1 with
// -wal-dir needs its -key-file, or its recovered reports would be blinded
// with a fresh α:
//
//	prochlod -role shuffler2 -listen 127.0.0.1:7102 -key-file s2.key \
//	         -next 127.0.0.1:7110,127.0.0.1:7111
//
// Clients connect with prochlo.DialRemoteFleet (single shuffler tier,
// optionally -sgx attested: the client pins the attestation CA key the
// daemon prints) or prochlo.DialRemoteChainFleet (split chain)
// and submit whole batches per round trip; see examples/netpipeline for a
// loopback walkthrough of the topologies.
package main

import (
	"crypto/x509"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/big"
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
	sgxMode := flag.Bool("sgx", false, "shuffler role only, without -key-file or -wal-dir: run inside a simulated SGX enclave (oblivious Stash Shuffle, key served with an attestation quote)")

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
		reg = newRegistry()
	}
	o := stageOpts{
		listen: *listen, nexts: splitAddrs(*next), sgx: *sgxMode, keyFile: *keyFile,
		cfg: transport.EpochConfig{
			FlushAt:       *flushAt,
			Interval:      *epochInterval,
			MaxPending:    *maxPending,
			WALDir:        *walDir,
			Metrics:       reg,
			MetricsLabels: metrics.Labels{"role": *role},
		},
		metricsAddr: *metricsAddr,
		metricsReg:  reg,
	}
	p := shuffler.Params{Seed: *seed, MinBatch: *minBatch, Workers: *workers}
	switch {
	case *thresholdT > 0 && *noiseSigma > 0:
		p.Threshold.Noise = dp.ThresholdNoise{T: *thresholdT, D: *noiseD, Sigma: *noiseSigma}
	case *thresholdT > 0:
		p.Threshold.Naive = *thresholdT
	}

	switch *role {
	case "analyzer":
		runAnalyzer(*listen, *workers, *keyFile, *metricsAddr, reg)
	case "shuffler", "shuffler1", "shuffler2":
		runStage(*role, p, o)
	default:
		fmt.Fprintln(os.Stderr, "prochlod: -role must be shuffler, shuffler1, shuffler2, or analyzer")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prochlod:", err)
	os.Exit(1)
}

// newRegistry is the registry behind -metrics-addr, holding from the start
// the series every role exports: the crypto kernels the process selected.
func newRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	group.RegisterMetrics(reg)
	hybrid.RegisterMetrics(reg)
	return reg
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
	sec, err := loadKeys(keyFile, false)
	if err != nil {
		fatal(err)
	}
	svc := transport.NewAnalyzerService(&analyzer.Analyzer{Priv: sec.Priv, Workers: workers})
	if reg != nil {
		svc.RegisterMetrics(reg, metrics.Labels{"role": "analyzer"})
	}
	ms := serveMetrics(metricsAddr, reg, svc.Healthz)
	l, err := transport.Serve(listen, svc)
	if err != nil {
		fatal(err)
	}
	fmt.Println("prochlod analyzer listening on", l.Addr())
	fmt.Println("analyzer public key:", hex.EncodeToString(sec.Priv.Public().Bytes()))
	waitForSignal()
	l.Close()
	if ms != nil {
		ms.Close()
	}
	fmt.Println("prochlod analyzer: shut down")
}

// stageOpts is what a shuffler role's daemon needs beyond its stage's Params.
type stageOpts struct {
	listen, keyFile, metricsAddr string
	nexts                        []string // downstream tier replicas in partition order
	sgx                          bool
	cfg                          transport.EpochConfig
	metricsReg                   *metrics.Registry
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

// deployedScalar decodes one hex line of a key file and refuses a scalar
// that is not below the ristretto255 group order. The file holds bare
// scalars, so the range is all it shows of the group a key was made for: a
// key written for another group with a larger order, such as P-256 (the
// paper's curve, order near 2^256 against ristretto255's 2^252), is refused
// here fifteen times in sixteen.
func deployedScalar(path, line string) ([]byte, error) {
	b, err := hex.DecodeString(line)
	if err != nil {
		return nil, fmt.Errorf("key file %s: %w", path, err)
	}
	if new(big.Int).SetBytes(b).Cmp(group.Default().Order()) >= 0 {
		return nil, fmt.Errorf("key file %s: scalar is not below the ristretto255 group order; this build deploys ristretto255 alone, so a key made for another group cannot load", path)
	}
	return b, nil
}

// loadKeys reads the daemon's long-lived secrets from path, generating and
// persisting them (0600, atomic rename) on first start. The file holds hex
// scalars, one per line: the hybrid decryption key, plus, when wantBlinding,
// the El Gamal secret — shuffler2's crowd-ID key or shuffler1's α (shuffler1
// leaves the first line unused). An empty path generates ephemeral keys —
// fine until the daemon must decrypt reports it recovered from a WAL written
// by its predecessor, or a shuffler1 must blind as its tier does.
func loadKeys(path string, wantBlinding bool) (shuffler.Secrets, error) {
	want := 1
	if wantBlinding {
		want = 2
	}
	if path != "" {
		if raw, err := os.ReadFile(path); err == nil {
			lines := strings.Fields(string(raw))
			if len(lines) != want {
				return shuffler.Secrets{}, fmt.Errorf("key file %s: %d keys, want %d", path, len(lines), want)
			}
			kb, err := deployedScalar(path, lines[0])
			if err != nil {
				return shuffler.Secrets{}, err
			}
			var sec shuffler.Secrets
			if sec.Priv, err = hybrid.ParsePrivateKey(kb); err != nil {
				return shuffler.Secrets{}, fmt.Errorf("key file %s: %w", path, err)
			}
			if wantBlinding {
				xb, err := deployedScalar(path, lines[1])
				if err != nil {
					return shuffler.Secrets{}, err
				}
				if sec.Blinding, err = elgamal.NewKeyPair(new(big.Int).SetBytes(xb)); err != nil {
					return shuffler.Secrets{}, fmt.Errorf("key file %s: %w", path, err)
				}
			}
			fmt.Println("loaded daemon keys from", path)
			return sec, nil
		} else if !os.IsNotExist(err) {
			return shuffler.Secrets{}, err
		}
	}
	sec, err := shuffler.GenerateSecrets()
	if err != nil || path == "" {
		return sec, err
	}
	lines := []string{hex.EncodeToString(sec.Priv.Bytes()), hex.EncodeToString(sec.Blinding.X.Bytes())}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strings.Join(lines[:want], "\n")+"\n"), 0o600); err != nil {
		return shuffler.Secrets{}, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return shuffler.Secrets{}, err
	}
	fmt.Println("generated daemon keys at", path)
	return sec, nil
}

// serveStage serves svc, exposes /metrics when -metrics-addr is set, and on
// SIGINT/SIGTERM drains it gracefully: stop accepting, flush the final epoch
// downstream, then exit.
func serveStage(role string, o stageOpts, svc *transport.StageService) {
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

// buildStage builds a shuffler role's stage: the one shuffler.NewStage builds
// from the role, its tier's secrets in -key-file and the flags — or, with
// -sgx, a shuffler that makes and attests its key in an enclave.
func buildStage(role string, p shuffler.Params, o stageOpts) (st shuffler.Stage, ca *sgx.CA, quote sgx.Quote, err error) {
	if o.sgx {
		if role != "shuffler" || o.keyFile != "" || o.cfg.WALDir != "" {
			return nil, nil, quote, errors.New("-sgx runs the shuffler role without -key-file or -wal-dir: the enclave owns its key and attests it per process, so no other process could open the reports a WAL keeps")
		}
		if ca, err = sgx.NewCA(); err != nil {
			return nil, nil, quote, err
		}
		st, quote, err = shuffler.NewSGXShuffler(ca, p)
		return st, ca, quote, err
	}
	if role == "shuffler1" && o.cfg.WALDir != "" && o.keyFile == "" {
		return nil, nil, quote, errors.New("-role shuffler1 -wal-dir needs -key-file: clients encrypt on the tier's public blinding key, so a restart that drew a fresh α would reduce every report the WAL recovered to a suppressed crowd of one")
	}
	sec, err := loadKeys(o.keyFile, role != "shuffler")
	if err != nil {
		return nil, nil, quote, err
	}
	st, err = shuffler.NewStage(role, sec, p)
	return st, nil, quote, err
}

// runStage runs a shuffler role, serving the keys its stage holds and
// pushing its epochs to the -next tier.
func runStage(role string, p shuffler.Params, o stageOpts) {
	st, ca, quote, err := buildStage(role, p, o)
	if err != nil {
		fatal(err)
	}
	svc, err := transport.NewStageService(st, o.nexts, o.cfg)
	if err != nil {
		fatal(err)
	}
	if ca != nil {
		der, err := x509.MarshalPKIXPublicKey(ca.PublicKey())
		if err != nil {
			fatal(err)
		}
		svc.SetAttestation(quote)
		fmt.Println("sgx: key attested, measurement", hex.EncodeToString(shuffler.SGXShufflerMeasurement[:8]))
		fmt.Println("sgx: attestation CA key (PKIX, pin it in clients):", hex.EncodeToString(der))
	}
	blinding, key := st.PublicKeys()
	if blinding != nil {
		fmt.Println("blinding public key:", hex.EncodeToString(blinding))
	}
	if key != nil {
		fmt.Printf("%s public key: %x\n", role, key)
	}
	_, emits := st.Kinds()
	fmt.Printf("forwarding %v to %s\n", emits, strings.Join(o.nexts, ","))
	serveStage(role, o, svc)
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
