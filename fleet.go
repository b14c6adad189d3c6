package prochlo

import (
	"crypto/ecdsa"
	crand "crypto/rand"
	"fmt"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

// party is one party of a deployment as its clients reach it: a daemon over
// the wire (*transport.Client) or a stage linked in this process
// (*transport.StageService). Pipeline and RemotePipeline are one client over
// it — they learn their encoder's keys from what their tiers serve, drain
// the tiers and read the analyzer the same way — so whether a tier is in
// process or on a socket is the only difference between them.
type party interface {
	Keys() (transport.Keys, error)
	Attestation() (transport.AttestationReply, error)
	Drain(force bool) (transport.ServiceStats, error)
	Histogram() (counts map[string]int, undecryptable int, err error)
	String() string
}

// fleet is a deployment as its clients see it: its tiers in chain order,
// each a replica set — the entry hop first, the analyzer's partitions last,
// the shuffler hops between. Its length is the topology: two tiers are a
// single shuffler (plain, or SGX when its key is attested), three the §4.3
// chain.
type fleet[P party] [][]P

// hops returns the shuffler hops' tiers, in chain order: every tier but the
// analyzer's.
func (f fleet[P]) hops() fleet[P] { return f[:len(f)-1] }

// encoders is the client side of a deployment: enc seals reports for a
// single shuffler (ModePlain, ModeSGX), benc for the chain (ModeBlinded);
// the other is nil.
type encoders struct {
	enc  *encoder.Client
	benc *encoder.BlindedClient
}

// learnKeys builds the deployment's encoder from the keys its tiers serve.
// Under a pinned attestation CA (non-nil ca) the shuffler's key is the one
// its quote attests.
func (f fleet[P]) learnKeys(ca *ecdsa.PublicKey) (encoders, error) {
	if len(f) == 3 {
		benc, err := f.chainKeys()
		return encoders{benc: benc}, err
	}
	enc, err := f.shufflerKeys(ca)
	return encoders{enc: enc}, err
}

// firstKeys fetches a tier's keys from the first replica that answers —
// replicas of a tier share key material, so any reachable one is
// authoritative — returning the last error if none does.
func firstKeys[P party](tier []P) (keys transport.Keys, err error) {
	for _, cl := range tier {
		if keys, err = cl.Keys(); err == nil {
			return keys, nil
		}
	}
	return keys, err
}

// deployedKey parses a hybrid public key a party served; what names it in
// the error.
func deployedKey(what string, b []byte) (*hybrid.PublicKey, error) {
	key, err := hybrid.ParsePublicKey(b)
	if err != nil {
		return nil, fmt.Errorf("prochlo: %s: %w", what, err)
	}
	return key, nil
}

// analyzerKey fetches and parses the analyzer tier's public key from the
// first reachable partition (partitions share the key).
func (f fleet[P]) analyzerKey() (*hybrid.PublicKey, error) {
	keys, err := firstKeys(f[len(f)-1])
	if err != nil {
		return nil, fmt.Errorf("prochlo: analyzer key: %w", err)
	}
	return deployedKey("analyzer key", keys.Key)
}

// shufflerKeys builds the single-shuffler encoder: the shuffler tier's key
// and the analyzer's. Under a pinned CA the shuffler's key is its quote's
// report data, trusted only once both §4.1.1 client-side checks pass: the
// quote carries the signature of ca — the CA the client pins, never a key
// the shuffler serves — and the expected code measurement.
func (f fleet[P]) shufflerKeys(ca *ecdsa.PublicKey) (*encoder.Client, error) {
	var served []byte
	if ca != nil {
		att, err := f[0][0].Attestation()
		if err == nil {
			err = sgx.VerifyQuote(ca, att.Quote, shuffler.SGXShufflerMeasurement)
		}
		if err != nil {
			return nil, fmt.Errorf("prochlo: shuffler attestation: %w", err)
		}
		served = att.Quote.ReportData
	} else {
		keys, err := firstKeys(f[0])
		if err != nil {
			return nil, fmt.Errorf("prochlo: shuffler key: %w", err)
		}
		served = keys.Key
	}
	shufKey, err := deployedKey("shuffler key", served)
	if err != nil {
		return nil, err
	}
	anlzKey, err := f.analyzerKey()
	if err != nil {
		return nil, err
	}
	return &encoder.Client{ShufflerKey: shufKey, AnalyzerKey: anlzKey, Rand: crand.Reader}, nil
}

// chainKeys builds the chain's encoder: Shuffler 1's proven blinding key,
// Shuffler 2's El Gamal and hybrid keys, and the analyzer's.
func (f fleet[P]) chainKeys() (*encoder.BlindedClient, error) {
	hop1, err := hop1Key(f[0], false)
	if err != nil {
		return nil, err
	}
	keys, err := firstKeys(f[1])
	if err != nil {
		return nil, fmt.Errorf("prochlo: shuffler 2 keys: %w", err)
	}
	blinding, err := elgamal.ParsePoint(keys.Blinding)
	if err != nil {
		return nil, fmt.Errorf("prochlo: shuffler 2 blinding key: %w", err)
	}
	s2Key, err := deployedKey("shuffler 2 key", keys.Key)
	if err != nil {
		return nil, err
	}
	anlzKey, err := f.analyzerKey()
	if err != nil {
		return nil, err
	}
	return &encoder.BlindedClient{
		Shuffler1Blinding: hop1,
		Shuffler2Blinding: blinding,
		Shuffler2Key:      s2Key,
		AnalyzerKey:       anlzKey,
		Rand:              crand.Reader,
	}, nil
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
func hop1Key[P party](tier []P, skipDown bool) (elgamal.Point, error) {
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
			return elgamal.Point{}, fmt.Errorf("prochlo: shuffler 1 blinding key: %w (served by %s)", err, cl)
		}
		if firstAddr == "" {
			first, firstAddr = a, cl.String()
		} else if !a.Equal(first) {
			return elgamal.Point{}, fmt.Errorf("prochlo: shuffler 1 replicas %s and %s serve different blinding keys (start every replica of a tier from one key file)", firstAddr, cl)
		}
	}
	return first, nil
}

// encodeBatch checks a SubmitBatch's shape and encodes report i (labels[i],
// data[i]) on the worker pool with the deployment's encoder, returning the
// envelopes as the wire batch the entry tier ingests.
func (e encoders) encodeBatch(labels []string, data [][]byte, workers int) (core.Batch, error) {
	if len(labels) != len(data) {
		return core.Batch{}, fmt.Errorf("prochlo: %d labels for %d data payloads", len(labels), len(data))
	}
	if len(labels) == 0 {
		return core.Batch{}, nil
	}
	if e.benc != nil {
		envs, err := e.benc.EncodeBatch(labels, data, workers)
		return core.Batch{Blinded: envs}, err
	}
	reports := make([]core.Report, len(labels))
	for i := range reports {
		reports[i] = core.Report{CrowdID: core.HashCrowdID(labels[i]), Data: data[i]}
	}
	envs, err := e.enc.EncodeBatch(reports, workers)
	return core.Batch{Envelopes: envs}, err
}

// drain is the one drain of a tier list, RemotePipeline's (DrainAll) and
// Pipeline's: it drains the shuffler hops in chain order, every replica of
// a hop before the next tier, so each hop's final epochs reach the next
// tier's ingestion before that tier cuts, and it fails a replica that
// leaves an accepted report unaccounted for. The analyzer tier's barrier is
// its Histogram call, which drains before it answers.
func (f fleet[P]) drain(force bool) ([][]transport.ServiceStats, error) {
	hops := f.hops()
	out := make([][]transport.ServiceStats, len(hops))
	var firstErr error
	for t, tier := range hops {
		out[t] = make([]transport.ServiceStats, len(tier))
		for i, cl := range tier {
			stats, err := cl.Drain(force)
			if err == nil && stats.Unaccounted != 0 {
				// At a drain barrier every accepted report must be counted
				// downstream, dropped, or pending — anything else is a leak
				// in the exactly-once machinery, worth failing loudly over.
				err = fmt.Errorf("prochlo: hop %d replica %d: %d accepted reports unaccounted for after drain",
					t+1, i, stats.Unaccounted)
			}
			out[t][i] = stats
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return out, firstErr
}

// flush drains the shuffler hops (drain) and reads the analyzer: it returns
// the deployment's cumulative result — the analyzer partitions' merged
// histogram and the thresholding hop's summed selectivity, over every epoch
// flushed so far — and the drain's per-replica stats, which it returns even
// when the drain fails.
func (f fleet[P]) flush() (*Result, [][]transport.ServiceStats, error) {
	stats, err := f.drain(false)
	if err != nil {
		return nil, stats, err
	}
	res := &Result{ShufflerStats: aggregateStats(stats[len(stats)-1]).Cumulative}
	for i, anlz := range f[len(f)-1] {
		counts, undec, err := anlz.Histogram()
		if err != nil {
			return nil, stats, fmt.Errorf("prochlo: analyzer partition %d histogram: %w", i, err)
		}
		// Counts sum, so the merge is deterministic regardless of how the
		// fleet spread the records; every histogram is the caller's copy,
		// so the first is the merge's.
		if res.Histogram == nil {
			res.Histogram = counts
		} else {
			for k, v := range counts {
				res.Histogram[k] += v
			}
		}
		res.Undecryptable += undec
	}
	return res, stats, nil
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
		agg.Cumulative = agg.Cumulative.Add(s.Cumulative)
		if agg.LastError == "" {
			agg.LastError = s.LastError
		}
	}
	return agg
}
