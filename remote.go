package prochlo

import (
	"crypto/ecdsa"
	crand "crypto/rand"
	"errors"
	"fmt"
	"sync"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

// RemotePipeline is the networked counterpart of Pipeline: it plays the
// client fleet against long-lived stage daemons (cmd/prochlod or the
// transport services directly), fetching the stage keys from the daemons,
// encoding locally, and shipping whole batches per round trip. It holds one
// connection per party, dialed once: submissions, health probes, stats,
// drains and key fetches share it, and it redials itself after a break.
// Submission transparently retries the entry hop's retryable "epoch full"
// backpressure error; Flush drains every hop's epoch queue in chain order
// and returns the analyzer's cumulative histogram.
//
// All three shuffler deployments are supported by the dial functions:
// DialRemoteFleet speaks to a plain shuffler tier (ModePlain),
// DialRemoteFleet with WithRemoteAttestation verifies an SGX daemon's quote
// before trusting its key (ModeSGX), and DialRemoteChainFleet enters the
// §4.3 split-shuffler chain at the Shuffler 1 tier (ModeBlinded).
//
// Every hop is a replica set — a single daemon is a fleet of one.
// Submissions enter through a health-checked balancer that spreads batches
// across the entry replicas' connections and fails over on provably
// non-ingesting errors; blinded envelopes are stamped with
// their crowd's owning hop-2 partition so every replica of a crowd meets
// at the partition that thresholds it; and the analyzer tier is sharded by
// content hash, its partition histograms merged at query time. Replicas of
// a tier must share key material (start them from one key file) — except
// the SGX deployment, whose attestation binds the key to a single enclave
// and therefore forbids replication of the attested tier.
//
// A seeded daemon deployment is equivalent to the in-process pipeline: for
// the same reports submitted in the same order and epochs cut at the same
// boundaries, the analyzer's histogram is byte-identical to Pipeline.Flush's
// at every worker count — including across the networked two-hop chain (see
// TestRemotePipelineMatchesInProcess and TestRemoteChainMatchesInProcess).
//
// Client resume semantics are unchanged by daemon-side durability
// (EpochConfig.WALDir): a partially accepted SubmitBatch still reports the
// accepted prefix so the fleet resumes at the rejection point, and a daemon
// that crashed and restarted over its WAL redelivers every accepted report
// exactly once — the client neither resubmits nor deduplicates. Reconnecting
// after a daemon restart is an ordinary Dial; see
// TestRemoteChainCrashRestartSoak for the full kill-and-restart exercise.
type RemotePipeline struct {
	workers int
	// attestCA is the attestation CA key WithRemoteAttestation pins; nil
	// means the deployment is not attested.
	attestCA *ecdsa.PublicKey
	// reg and labels are where the entry balancer registers its series
	// (WithRemoteMetrics); a nil reg registers nothing.
	reg    *metrics.Registry
	labels metrics.Labels
	// partitions is the hop-2 replica count of a chain fleet; blinded
	// envelopes are stamped with PartitionOf(crowd, partitions) so hop-1
	// replicas route each crowd to its owning thresholding partition.
	partitions int
	// failedSeen is each replica's EpochsFailed count already surfaced to
	// the caller, so a transient failure errors one Flush instead of every
	// later one. Indexed [tier][replica], like tiers.
	failedSeen [][]int

	enc  *encoder.Client        // ModePlain / ModeSGX
	benc *encoder.BlindedClient // ModeBlinded
	// tiers are the shuffler daemons in chain order — tiers[0] is the entry
	// hop's replica set — and Flush drains them front to back so each
	// tier's final epochs reach the next before that tier is drained.
	tiers [][]*transport.Client
	// entry balances submissions across tiers[0]'s clients; see
	// transport.Balancer for the failover safety rule.
	entry *transport.Balancer
	anlzs []*transport.AnalyzerClient

	// bencMu guards benc and hop1Dials, the entry tier's dial count when
	// Shuffler 1's blinding key was last fetched (see blindedClient).
	bencMu    sync.Mutex
	hop1Dials int
}

// RemoteOption configures a RemotePipeline.
type RemoteOption func(*RemotePipeline) error

// WithRemoteWorkers sets the client-side encoding worker count: n <= 0
// selects GOMAXPROCS, 1 forces the serial reference path.
func WithRemoteWorkers(n int) RemoteOption {
	return func(r *RemotePipeline) error {
		r.workers = n
		return nil
	}
}

// WithRemoteAttestation makes DialRemoteFleet require and verify the
// shuffler daemon's SGX quote (§4.1.1): the quote must be signed by ca, the
// attestation CA's key the caller obtained out of band (prochlod -sgx prints
// it), and carry the expected code measurement; the attested key from the
// quote is then used for encoding instead of the unauthenticated Keys call —
// the networked ModeSGX deployment. Dialing fails if the daemon serves no
// quote or one another CA signed, and a fleet dial fails if the attested
// tier has more than one replica (the quote binds the key to one enclave).
func WithRemoteAttestation(ca *ecdsa.PublicKey) RemoteOption {
	return func(r *RemotePipeline) error {
		if ca == nil {
			return errors.New("prochlo: WithRemoteAttestation needs the attestation CA's key")
		}
		r.attestCA = ca
		return nil
	}
}

// BalancerStats and ServiceStats alias their internal/transport
// definitions so that importers of this module can name the stats types
// returned by BalancerStats, Stats, FleetStats, and DrainAll (the transport
// package itself is not importable from outside the module).
type (
	BalancerStats = transport.BalancerStats
	ServiceStats  = transport.ServiceStats
)

// MetricsRegistry aliases the internal metrics registry so in-module
// binaries (cmd/prochlod, cmd/prochloload) can share one registry between
// their services and the entry balancer; see internal/metrics.
type MetricsRegistry = metrics.Registry

// WithRemoteMetrics registers the entry balancer's health gauges and
// failover counters (the prochlo_balancer_* series) on reg, labeled with
// labels.
func WithRemoteMetrics(reg *MetricsRegistry, labels map[string]string) RemoteOption {
	return func(r *RemotePipeline) error {
		r.reg = reg
		r.labels = metrics.Labels(labels)
		return nil
	}
}

// newRemotePipeline applies options over the defaults.
func newRemotePipeline(opts []RemoteOption) (*RemotePipeline, error) {
	r := &RemotePipeline{}
	for _, o := range opts {
		if err := o(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// dialTiers connects every shuffler replica tier by tier and the analyzer
// partitions, and starts the entry balancer over tiers[0]'s connections,
// cleaning up on partial failure.
func (r *RemotePipeline) dialTiers(tierAddrs [][]string, analyzerAddrs []string) error {
	for t, addrs := range tierAddrs {
		if len(addrs) == 0 {
			r.Close()
			return fmt.Errorf("prochlo: hop %d has no replica addresses", t+1)
		}
		r.tiers = append(r.tiers, nil)
		for _, addr := range addrs {
			cl, err := transport.Dial(addr)
			if err != nil {
				r.Close()
				return fmt.Errorf("prochlo: dial shuffler %s: %w", addr, err)
			}
			r.tiers[t] = append(r.tiers[t], cl)
		}
	}
	if len(analyzerAddrs) == 0 {
		r.Close()
		return errors.New("prochlo: no analyzer addresses")
	}
	for _, addr := range analyzerAddrs {
		anlz, err := transport.DialAnalyzer(addr)
		if err != nil {
			r.Close()
			return fmt.Errorf("prochlo: dial analyzer %s: %w", addr, err)
		}
		r.anlzs = append(r.anlzs, anlz)
	}
	r.entry = transport.NewBalancer(r.tiers[0], r.reg, r.labels)
	return nil
}

// baselineFailures snapshots each replica's cumulative failure counter so
// Flush only surfaces failures that happen after this client connected.
func (r *RemotePipeline) baselineFailures() {
	r.failedSeen = make([][]int, len(r.tiers))
	for t, tier := range r.tiers {
		r.failedSeen[t] = make([]int, len(tier))
		for i, cl := range tier {
			if stats, err := cl.Stats(); err == nil {
				r.failedSeen[t][i] = stats.EpochsFailed
			}
		}
	}
}

// firstOf runs fetch against each replica of a tier until one answers —
// replicas of a tier share key material, so any reachable one is
// authoritative — returning the last error if none does.
func firstOf[T any](tier []*transport.Client, fetch func(*transport.Client) (T, error)) (T, error) {
	var out T
	var err error
	for _, cl := range tier {
		if out, err = fetch(cl); err == nil {
			return out, nil
		}
	}
	return out, err
}

// deployedKey parses a hybrid public key a daemon served; what names it in
// the error.
func deployedKey(what string, b []byte) (*hybrid.PublicKey, error) {
	key, err := hybrid.ParsePublicKey(b)
	if err != nil {
		return nil, fmt.Errorf("prochlo: %s: %w", what, err)
	}
	return key, nil
}

// analyzerKey fetches and parses the analyzer fleet's public key from the
// first reachable partition (partitions share the key).
func (r *RemotePipeline) analyzerKey() (*hybrid.PublicKey, error) {
	var keys transport.Keys
	var err error
	for _, anlz := range r.anlzs {
		if keys, err = anlz.Keys(); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("prochlo: analyzer key: %w", err)
	}
	return deployedKey("analyzer key", keys.Key)
}

// DialRemoteFleet connects to a single-shuffler deployment — the shuffler
// tier's replicas and the analyzer tier's partitions — and fetches their
// public keys, returning a pipeline handle ready to encode and submit
// (ModePlain; add WithRemoteAttestation for ModeSGX). Submissions are
// balanced across the shuffler replicas with health-checked failover, and
// the analyzer partitions' histograms are merged at query time. The
// shuffler replicas must share one key pair and push to the same analyzer
// partition list (cmd/prochlod: -key-file and a comma-separated -next). The
// analyzer connections are used only for key fetch and histogram queries —
// report data flows exclusively through the shufflers, preserving the ESA
// trust split.
func DialRemoteFleet(shufflerAddrs, analyzerAddrs []string, opts ...RemoteOption) (*RemotePipeline, error) {
	r, err := newRemotePipeline(opts)
	if err != nil {
		return nil, err
	}
	if r.attestCA != nil && len(shufflerAddrs) != 1 {
		return nil, errors.New("prochlo: an attested SGX tier cannot be replicated (the quote binds the key to one enclave)")
	}
	if err := r.dialTiers([][]string{shufflerAddrs}, analyzerAddrs); err != nil {
		return nil, err
	}
	var shufKeyBytes []byte
	if r.attestCA != nil {
		shufKeyBytes, err = r.tiers[0][0].Attestation(r.attestCA, shuffler.SGXShufflerMeasurement)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("prochlo: shuffler attestation: %w", err)
		}
	} else {
		keys, kerr := firstOf(r.tiers[0], (*transport.Client).Keys)
		if kerr != nil {
			r.Close()
			return nil, fmt.Errorf("prochlo: shuffler key: %w", kerr)
		}
		shufKeyBytes = keys.Key
	}
	shufKey, err := deployedKey("shuffler key", shufKeyBytes)
	if err != nil {
		r.Close()
		return nil, err
	}
	anlzKey, err := r.analyzerKey()
	if err != nil {
		r.Close()
		return nil, err
	}
	r.enc = &encoder.Client{ShufflerKey: shufKey, AnalyzerKey: anlzKey, Rand: crand.Reader}
	r.baselineFailures()
	return r, nil
}

// DialRemoteChainFleet connects to the §4.3 split-shuffler chain — the
// Shuffler 1 tier clients submit to, which serves its public blinding key
// A = αG, the Shuffler 2 tier that serves the chain's El Gamal key and
// hybrid key, and the analyzer tier — returning a ModeBlinded pipeline
// handle. Reports enter at Shuffler 1 and flow shuffler1 -> shuffler2 ->
// analyzer as the daemons' epoch pushes, each a Submit frame like a client
// batch; the Shuffler 2 and analyzer connections carry only key fetches,
// drain barriers, and histogram queries. Clients enter through a balancer
// over the hop-1 replicas, each blinded envelope is stamped with its crowd's
// owning hop-2 partition (core.PartitionOf(crowd, len(shuffler2Addrs))) so a
// crowd's reports meet at the replica that thresholds them no matter which
// hop-1 replica they entered through, and the analyzer partitions'
// histograms are merged at query time. Each tier's replicas must share one
// key file (cmd/prochlod: -key-file): the dial fetches A from every hop-1
// replica, verifies its proof of α, and refuses replicas that serve
// different keys. After an entry connection redials, SubmitBatch fetches A
// again, so a replica restarted with a fresh α splits only the crowds that
// straddle the restart.
func DialRemoteChainFleet(shuffler1Addrs, shuffler2Addrs, analyzerAddrs []string, opts ...RemoteOption) (*RemotePipeline, error) {
	r, err := newRemotePipeline(opts)
	if err != nil {
		return nil, err
	}
	if r.attestCA != nil {
		r.Close()
		return nil, errors.New("prochlo: attestation applies to the SGX deployment, not the blinded chain")
	}
	r.partitions = len(shuffler2Addrs)
	if err := r.dialTiers([][]string{shuffler1Addrs, shuffler2Addrs}, analyzerAddrs); err != nil {
		return nil, err
	}
	r.hop1Dials = entryDials(r.tiers[0])
	hop1, err := hop1Key(r.tiers[0], false)
	if err != nil {
		r.Close()
		return nil, err
	}
	keys, err := firstOf(r.tiers[1], (*transport.Client).Keys)
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("prochlo: shuffler 2 keys: %w", err)
	}
	blinding, err := elgamal.ParsePoint(keys.Blinding)
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("prochlo: shuffler 2 blinding key: %w", err)
	}
	s2Key, err := deployedKey("shuffler 2 key", keys.Key)
	if err != nil {
		r.Close()
		return nil, err
	}
	anlzKey, err := r.analyzerKey()
	if err != nil {
		r.Close()
		return nil, err
	}
	r.benc = &encoder.BlindedClient{
		Shuffler1Blinding: hop1,
		Shuffler2Blinding: blinding,
		Shuffler2Key:      s2Key,
		AnalyzerKey:       anlzKey,
		Rand:              crand.Reader,
	}
	r.baselineFailures()
	return r, nil
}

// hop1Key fetches Shuffler 1's blinding key A from every replica of the
// entry tier; with skipDown set it skips a replica it cannot reach, and
// returns the zero Point if none answers. It refuses a key whose proof of α
// fails (elgamal.ParseProvenKey): clients encrypt C1 on A, so a hop 1 that
// served a point whose log it does not know, such as a multiple of Shuffler
// 2's key, could unmask C2 and read the crowd IDs. It refuses replicas that
// serve different keys too: the reports entering the odd replica would be
// encrypted on an A whose α that replica does not blind with, and each would
// reach hop 2 as a crowd of one, suppressed.
func hop1Key(tier []*transport.Client, skipDown bool) (elgamal.Point, error) {
	var first elgamal.Point
	var firstAddr string
	for _, cl := range tier {
		keys, err := cl.Keys()
		if skipDown && transport.IsTransient(err) {
			continue
		}
		var a elgamal.Point
		if err == nil {
			a, err = elgamal.ParseProvenKey(keys.Blinding)
		}
		if err != nil {
			return elgamal.Point{}, fmt.Errorf("prochlo: shuffler 1 blinding key: %w (served by %s)", err, cl.Addr())
		}
		if firstAddr == "" {
			first, firstAddr = a, cl.Addr()
		} else if !a.Equal(first) {
			return elgamal.Point{}, fmt.Errorf("prochlo: shuffler 1 replicas %s and %s serve different blinding keys (start every replica of a tier from one key file)", firstAddr, cl.Addr())
		}
	}
	return first, nil
}

// entryDials sums the connections a tier's clients have dialed.
func entryDials(tier []*transport.Client) int {
	n := 0
	for _, cl := range tier {
		n += cl.Dials()
	}
	return n
}

// blindedClient returns the chain's encoder (nil outside ModeBlinded) and the
// entry tier's dial count it is current for. A hop-1 replica restarted
// without its -key-file blinds with a fresh α, and reports still encrypted on
// the old A would each reach hop 2 as a crowd of one. So once an entry
// connection was redialed, the key is fetched again from the replicas that
// answer, and clients encrypt on the key the tier now serves: only the crowds
// that straddle the restart split, as any change of α splits them.
func (r *RemotePipeline) blindedClient() (*encoder.BlindedClient, int, error) {
	r.bencMu.Lock()
	defer r.bencMu.Unlock()
	if r.benc == nil {
		return nil, 0, nil
	}
	dials := entryDials(r.tiers[0])
	if dials == r.hop1Dials {
		return r.benc, dials, nil
	}
	a, err := hop1Key(r.tiers[0], true)
	if err != nil {
		return nil, 0, err
	}
	if a.IsInfinity() { // no replica answered: keep the key, ask again next time
		return r.benc, dials, nil
	}
	if old := r.benc; !a.Equal(old.Shuffler1Blinding) {
		r.benc = &encoder.BlindedClient{
			Shuffler1Blinding: a,
			Shuffler2Blinding: old.Shuffler2Blinding,
			Shuffler2Key:      old.Shuffler2Key,
			AnalyzerKey:       old.AnalyzerKey,
			Rand:              old.Rand,
		}
	}
	r.hop1Dials = dials
	return r.benc, dials, nil
}

// stampPartitions routes each blinded envelope to its crowd's owning hop-2
// partition. Only the client knows the crowd label in the clear, so the
// stamp must be applied before submission; it deliberately leaks the
// partition index (log2(partitions) bits of the crowd hash) to the chain,
// the price of partitioned fan-in.
func (r *RemotePipeline) stampPartitions(envs []core.BlindedEnvelope, labels []string) {
	if r.partitions <= 1 {
		return
	}
	for i := range envs {
		envs[i].Partition = core.PartitionOf(core.HashCrowdID(labels[i]), r.partitions)
	}
}

// SubmitBatch encodes a batch of reports on the worker pool and ships the
// envelopes to the chain's entry tier through the balancer, retrying the
// retryable backpressure error with backoff and failing over between entry
// replicas on provably non-ingesting errors.
func (r *RemotePipeline) SubmitBatch(labels []string, data [][]byte) error {
	benc, dials, err := r.blindedClient()
	if err != nil {
		return err
	}
	batch, err := encodeBatch(r.enc, benc, labels, data, r.workers)
	if err != nil || len(labels) == 0 {
		return err
	}
	r.stampPartitions(batch.Blinded, labels)
	n, err := r.entry.SubmitAll(batch)
	if err == nil && benc != nil && entryDials(r.tiers[0]) != dials {
		// An entry connection redialed between the key check and the ack:
		// if hop 1 came back with another key, the batch may have reached it
		// encrypted on the old one.
		if now, _, kerr := r.blindedClient(); kerr == nil && now != benc {
			return fmt.Errorf("prochlo: shuffler 1 changed its blinding key while this batch was in flight (a replica restarted without its -key-file?): if the batch reached the restarted replica, its %d reports were encrypted on the old key and hop 2 sees each as a crowd of one", len(labels))
		}
	}
	if err != nil && n > 0 {
		// The accepted prefix is ingested; resubmitting the whole batch
		// would double-count it. Tell the caller exactly where to resume.
		return fmt.Errorf("prochlo: batch partially submitted (%d of %d reports accepted): %w", n, len(labels), err)
	}
	return err
}

// aggregateStats sums a tier's per-replica stats into one tier-level view:
// counters add, LastError keeps the first non-empty replica error.
func aggregateStats(tier []transport.ServiceStats) transport.ServiceStats {
	var agg transport.ServiceStats
	for _, s := range tier {
		agg.Pending += s.Pending
		agg.QueuedEpochs += s.QueuedEpochs
		agg.EpochsFlushed += s.EpochsFlushed
		agg.EpochsFailed += s.EpochsFailed
		agg.Accepted += s.Accepted
		agg.Rejected += s.Rejected
		agg.Dropped += s.Dropped
		agg.Unaccounted += s.Unaccounted
		agg.RecoveredItems += s.RecoveredItems
		agg.RecoveredEpochs += s.RecoveredEpochs
		agg.Cumulative.Received += s.Cumulative.Received
		agg.Cumulative.Undecryptable += s.Cumulative.Undecryptable
		agg.Cumulative.Crowds += s.Cumulative.Crowds
		agg.Cumulative.CrowdsForwarded += s.Cumulative.CrowdsForwarded
		agg.Cumulative.Forwarded += s.Cumulative.Forwarded
		if agg.LastError == "" {
			agg.LastError = s.LastError
		}
	}
	return agg
}

// Stats fetches the entry tier's aggregate occupancy and epoch counters: the
// first element of HopStats.
func (r *RemotePipeline) Stats() (transport.ServiceStats, error) {
	hops, err := r.HopStats()
	if err != nil {
		return transport.ServiceStats{}, err
	}
	return hops[0], nil
}

// BalancerStats snapshots the entry balancer's failover and breaker
// counters.
func (r *RemotePipeline) BalancerStats() transport.BalancerStats {
	return r.entry.Stats()
}

// HopStats fetches every hop's aggregate stats in chain order — per-hop
// observability for chained deployments. Replicated tiers are summed; use
// FleetStats for the per-replica view.
func (r *RemotePipeline) HopStats() ([]transport.ServiceStats, error) {
	fleet, err := r.FleetStats()
	if err != nil {
		return nil, err
	}
	out := make([]transport.ServiceStats, len(fleet))
	for t, tier := range fleet {
		out[t] = aggregateStats(tier)
	}
	return out, nil
}

// FleetStats fetches every replica's stats, indexed [tier][replica].
func (r *RemotePipeline) FleetStats() ([][]transport.ServiceStats, error) {
	out := make([][]transport.ServiceStats, len(r.tiers))
	for t, tier := range r.tiers {
		out[t] = make([]transport.ServiceStats, len(tier))
		for i, cl := range tier {
			s, err := cl.Stats()
			if err != nil {
				return nil, fmt.Errorf("prochlo: hop %d replica %d stats: %w", t+1, i, err)
			}
			out[t][i] = s
		}
	}
	return out, nil
}

// drainReplica drains one replica and surfaces its newly failed epochs and
// accounting leaks exactly once.
func (r *RemotePipeline) drainReplica(t, i int, force bool) (transport.ServiceStats, error) {
	stats, err := r.tiers[t][i].DrainMode(force)
	if err != nil {
		// The failed forced epoch is already in EpochsFailed; mark it seen
		// so the next Flush does not report the same failure twice.
		if s, serr := r.tiers[t][i].Stats(); serr == nil && s.EpochsFailed > r.failedSeen[t][i] {
			r.failedSeen[t][i] = s.EpochsFailed
		}
		return stats, err
	}
	if stats.EpochsFailed > r.failedSeen[t][i] {
		// The histogram would silently omit the failed epochs' reports;
		// surface the loss like the in-process Pipeline.Flush surfaces
		// processing errors — but only once per failure, so a transient
		// outage does not poison every later Flush.
		newly := stats.EpochsFailed - r.failedSeen[t][i]
		r.failedSeen[t][i] = stats.EpochsFailed
		return stats, fmt.Errorf("prochlo: hop %d replica %d: %d epochs failed to reach the next stage (last error: %s)",
			t+1, i, newly, stats.LastError)
	}
	if stats.Unaccounted != 0 {
		// At a drain barrier every accepted report must be counted
		// downstream, dropped, or pending — anything else is a leak in the
		// exactly-once machinery, worth failing loudly over.
		return stats, fmt.Errorf("prochlo: hop %d replica %d: %d accepted reports unaccounted for after drain",
			t+1, i, stats.Unaccounted)
	}
	return stats, nil
}

// DrainAll drains the whole fleet in chain order — every replica of a tier
// is drained before the next tier, so each tier's final epochs reach the
// next tier's ingestion before that tier cuts — and returns every
// replica's post-drain stats, indexed [tier][replica]. A replica that is
// mid-restart is retried under the transport's one redial policy (drains are
// idempotent), so a crash-recovering fleet still reaches the barrier; the
// recovered replica's stats appear in its slot. Force additionally
// releases below-floor final epochs as Dropped (counted, reconciled)
// instead of leaving them pending — the final drain of a deployment
// shutting down for good.
//
// Every replica is drained even when one fails; the first error is
// returned alongside the full stats. A successful DrainAll guarantees
// fleet-wide Unaccounted == 0: each replica's accepted reports are all
// either counted downstream, dropped, or pending.
func (r *RemotePipeline) DrainAll(force bool) ([][]transport.ServiceStats, error) {
	out := make([][]transport.ServiceStats, len(r.tiers))
	var firstErr error
	for t := range r.tiers {
		out[t] = make([]transport.ServiceStats, len(r.tiers[t]))
		for i := range r.tiers[t] {
			stats, err := r.drainReplica(t, i, force)
			out[t][i] = stats
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return out, firstErr
}

// histogram merges the analyzer partitions' histograms; counts sum, so the
// merge is deterministic regardless of how the fleet spread the records.
func (r *RemotePipeline) histogram() (map[string]int, int, error) {
	counts := make(map[string]int)
	undec := 0
	for i, anlz := range r.anlzs {
		c, u, err := anlz.Histogram()
		if err != nil {
			return nil, 0, fmt.Errorf("prochlo: analyzer partition %d histogram: %w", i, err)
		}
		for k, v := range c {
			counts[k] += v
		}
		undec += u
	}
	return counts, undec, nil
}

// Flush drains the fleet in chain order (DrainAll) and returns the
// analyzer partitions' merged cumulative result. ShufflerStats sums the
// thresholding tier's selectivity over all epochs flushed so far, so under
// auto-flush Flush reports the whole deployment's trajectory, not one
// epoch's.
func (r *RemotePipeline) Flush() (*Result, error) {
	stats, err := r.DrainAll(false)
	if err != nil {
		return nil, err
	}
	counts, undec, err := r.histogram()
	if err != nil {
		return nil, err
	}
	last := aggregateStats(stats[len(stats)-1])
	return &Result{
		Histogram:     counts,
		ShufflerStats: last.Cumulative,
		Undecryptable: undec,
	}, nil
}

// Close stops the entry balancer's probes, then releases every daemon
// connection.
func (r *RemotePipeline) Close() error {
	if r.entry != nil {
		r.entry.Close()
	}
	var err error
	for _, tier := range r.tiers {
		for _, cl := range tier {
			if cerr := cl.Close(); err == nil {
				err = cerr
			}
		}
	}
	for _, anlz := range r.anlzs {
		if cerr := anlz.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
