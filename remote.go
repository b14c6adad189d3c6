package prochlo

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"sync"

	"prochlo/internal/core"
	"prochlo/internal/encoder"
	"prochlo/internal/metrics"
	"prochlo/internal/transport"
)

// RemotePipeline is the networked counterpart of Pipeline: it plays the
// client fleet against long-lived stage daemons (cmd/prochlod or the
// transport services directly), fetching the stage keys from the daemons,
// encoding locally, and shipping whole batches per round trip. Key fetch,
// drain and histogram read are Pipeline's own code, run over connections
// instead of in-process tiers; the entry balancer, the partition stamps and
// the refresh of hop 1's key after a redial are the networked client's
// alone. A deployment
// is its list of tiers in chain order — the entry hop first, the analyzer's
// tier last, the shuffler hops between. The pipeline holds one connection
// per party, dialed once: submissions, health probes, stats, drains and key
// fetches share it, and it redials itself after a break. An entry hop
// without room holds a submission until it has some; Flush drains every
// shuffler hop's epoch queue in chain order and returns the analyzer tier's
// cumulative histogram, failing if any hop lost reports since the last one.
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
// Client semantics are unchanged by daemon-side durability
// (EpochConfig.WALDir): a SubmitBatch is accepted whole or not at all, and a
// daemon that crashed and restarted over its WAL redelivers every accepted
// report exactly once — the client neither resubmits nor deduplicates.
// Reconnecting after a daemon restart is an ordinary Dial; see
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
	// drained is each shuffler hop's summed stats at the previous Flush's
	// drain (zero before the first), so each loss fails one Flush.
	drained []transport.ServiceStats

	// encoders is the mode's encoder, learned from the keys the tiers
	// serve; benc is refreshed after an entry redial (blindedClient).
	encoders
	// tiers are the deployment's replica sets in chain order: tiers[0] is
	// the entry hop, the last is the analyzer's partitions, queried for the
	// key and the histogram alone, and the shuffler hops are every tier but
	// the last.
	tiers fleet[*transport.Client]
	// entry balances submissions across tiers[0]'s clients; see
	// transport.Balancer for the failover safety rule.
	entry *transport.Balancer

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

// dialTiers connects every replica of every tier, in chain order, and
// starts the entry balancer over tiers[0]'s connections.
func (r *RemotePipeline) dialTiers(tierAddrs [][]string) error {
	for t, addrs := range tierAddrs {
		if len(addrs) == 0 {
			return fmt.Errorf("prochlo: tier %d has no replica addresses", t+1)
		}
		r.tiers = append(r.tiers, nil)
		for _, addr := range addrs {
			cl, err := transport.Dial(addr)
			if err != nil {
				return fmt.Errorf("prochlo: dial tier %d replica %s: %w", t+1, addr, err)
			}
			r.tiers[t] = append(r.tiers[t], cl)
		}
	}
	r.entry = transport.NewBalancer(r.tiers[0], r.reg, r.labels)
	return nil
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
	return dialRemote([][]string{shufflerAddrs, analyzerAddrs}, opts)
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
	return dialRemote([][]string{shuffler1Addrs, shuffler2Addrs, analyzerAddrs}, opts)
}

// dialRemote is the one dial body. tierAddrs is the deployment in chain
// order, the analyzer's tier last, and its length is the topology: two tiers
// are a single shuffler (plain, or attested under WithRemoteAttestation),
// three the §4.3 chain. It dials every party, fetches the keys the
// pipeline encodes to, and closes the pipeline on any failure.
func dialRemote(tierAddrs [][]string, opts []RemoteOption) (*RemotePipeline, error) {
	r := &RemotePipeline{}
	for _, o := range opts {
		if err := o(r); err != nil {
			return nil, err
		}
	}
	chain := len(tierAddrs) == 3
	if r.attestCA != nil && chain {
		return nil, errors.New("prochlo: attestation applies to the SGX deployment, not the blinded chain")
	}
	if r.attestCA != nil && len(tierAddrs[0]) != 1 {
		return nil, errors.New("prochlo: an attested SGX tier cannot be replicated (the quote binds the key to one enclave)")
	}
	err := r.dialTiers(tierAddrs)
	if err == nil {
		r.hop1Dials = entryDials(r.tiers[0])
		r.encoders, err = r.tiers.learnKeys(r.attestCA)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
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
// partition, one of tiers[1]'s replicas. Only the client knows the crowd
// label in the clear, so the stamp must be applied before submission; it
// deliberately leaks the partition index (log2(partitions) bits of the crowd
// hash) to the chain, the price of partitioned fan-in. Outside the chain
// there are no blinded envelopes to stamp.
func (r *RemotePipeline) stampPartitions(envs []core.BlindedEnvelope, labels []string) {
	partitions := len(r.tiers[1])
	if partitions <= 1 {
		return
	}
	for i := range envs {
		envs[i].Partition = core.PartitionOf(core.HashCrowdID(labels[i]), partitions)
	}
}

// SubmitBatch encodes a batch of reports on the worker pool and ships the
// envelopes to the chain's entry tier through the balancer, failing over
// between entry replicas on provably non-ingesting errors. The batch is
// accepted whole or not at all.
func (r *RemotePipeline) SubmitBatch(labels []string, data [][]byte) error {
	benc, dials, err := r.blindedClient()
	if err != nil {
		return err
	}
	batch, err := encoders{r.enc, benc}.encodeBatch(labels, data, r.workers)
	if err != nil || len(labels) == 0 {
		return err
	}
	r.stampPartitions(batch.Blinded, labels)
	err = r.entry.Submit(batch)
	if err == nil && benc != nil && entryDials(r.tiers[0]) != dials {
		// An entry connection redialed between the key check and the ack:
		// if hop 1 came back with another key, the batch may have reached it
		// encrypted on the old one.
		if now, _, kerr := r.blindedClient(); kerr == nil && now != benc {
			return fmt.Errorf("prochlo: shuffler 1 changed its blinding key while this batch was in flight (a replica restarted without its -key-file?): if the batch reached the restarted replica, its %d reports were encrypted on the old key and hop 2 sees each as a crowd of one", len(labels))
		}
	}
	return err
}

// Stats fetches the entry tier's aggregate occupancy and epoch counters: the
// first element of HopStats, from the entry tier's replicas alone.
func (r *RemotePipeline) Stats() (transport.ServiceStats, error) {
	tier, err := tierStats(0, r.tiers[0])
	return aggregateStats(tier), err
}

// BalancerStats snapshots the entry balancer's failover and breaker
// counters.
func (r *RemotePipeline) BalancerStats() transport.BalancerStats {
	return r.entry.Stats()
}

// HopStats fetches every shuffler hop's aggregate stats in chain order —
// per-hop observability for chained deployments. Replicated tiers are
// summed; use FleetStats for the per-replica view.
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

// FleetStats fetches every shuffler replica's stats, indexed
// [hop][replica].
func (r *RemotePipeline) FleetStats() ([][]transport.ServiceStats, error) {
	hops := r.tiers.hops()
	out := make([][]transport.ServiceStats, len(hops))
	for t, tier := range hops {
		var err error
		if out[t], err = tierStats(t, tier); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tierStats fetches the stats of every replica of hop t (0-based).
func tierStats(t int, tier []*transport.Client) ([]transport.ServiceStats, error) {
	out := make([]transport.ServiceStats, len(tier))
	for i, cl := range tier {
		s, err := cl.Stats()
		if err != nil {
			return nil, fmt.Errorf("prochlo: hop %d replica %d stats: %w", t+1, i, err)
		}
		out[i] = s
	}
	return out, nil
}

// DrainAll drains the shuffler hops in chain order, every replica of a hop
// before the next tier, and returns every replica's post-drain stats,
// indexed [hop][replica]. Force releases below-floor final epochs as
// Dropped (counted, reconciled) instead of leaving them pending — the final
// drain of a deployment shutting down for good. A replica that is
// mid-restart is retried under the transport's one redial policy (drains
// are idempotent), so a crash-recovering fleet still reaches the barrier;
// the recovered replica's stats appear in its slot. Every replica is
// drained even when one fails; the first error is returned alongside the
// full stats. A successful DrainAll guarantees fleet-wide Unaccounted == 0:
// each replica's accepted reports are all either counted downstream,
// dropped, or pending.
func (r *RemotePipeline) DrainAll(force bool) ([][]transport.ServiceStats, error) {
	return r.tiers.drain(force)
}

// Flush drains the shuffler hops in chain order (DrainAll) and returns the
// analyzer partitions' merged cumulative result. ShufflerStats sums the
// thresholding tier's selectivity over all epochs flushed so far, so under
// auto-flush Flush reports the whole deployment's trajectory, not one
// epoch's. The histogram is the deployment's, so Flush fails when a hop's
// Dropped or EpochsFailed, summed over its replicas in the drain's replies,
// rose since this pipeline's previous Flush (from zero before its first):
// those reports were acked and will never be counted.
func (r *RemotePipeline) Flush() (*Result, error) {
	res, stats, err := r.tiers.flush()
	if lerr := r.noteLosses(stats); err == nil {
		err = lerr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// noteLosses compares each shuffler hop's summed Dropped and EpochsFailed
// with the previous Flush's and keeps the new sums, so each loss fails one
// Flush.
func (r *RemotePipeline) noteLosses(stats [][]transport.ServiceStats) error {
	if r.drained == nil {
		r.drained = make([]transport.ServiceStats, len(stats))
	}
	var err error
	for t, tier := range stats {
		now, was := aggregateStats(tier), r.drained[t]
		r.drained[t] = now
		if err == nil && (now.Dropped > was.Dropped || now.EpochsFailed > was.EpochsFailed) {
			err = fmt.Errorf("prochlo: hop %d lost reports since the last flush: %d dropped, %d epochs failed (last error: %s)",
				t+1, now.Dropped-was.Dropped, now.EpochsFailed-was.EpochsFailed, now.LastError)
		}
	}
	return err
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
	return err
}
