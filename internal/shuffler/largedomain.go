package shuffler

import (
	"fmt"

	"prochlo/internal/core"
	"prochlo/internal/oblivious"
)

// ProcessLargeDomain is §4.1.5's fallback for crowd-ID domains too large for
// in-enclave counters: the batch is obliviously *sorted* by crowd ID
// (Batcher's network at bucket granularity), bringing each crowd's records
// together so a constant-memory forward scan can count runs and threshold
// them; surviving records are then obliviously re-shuffled so the output
// order carries no grouping signal. As the paper notes, this costs an
// oblivious sort, so it should be preferred only when counters do not fit —
// "we have yet to encounter such large crowd ID domains in practice".
func (s *SGXShuffler) ProcessLargeDomain(batch []core.Envelope) ([][]byte, Stats, error) {
	stats := Stats{Received: len(batch)}
	if len(batch) == 0 {
		return nil, stats, fmt.Errorf("%w: empty", ErrBatchTooSmall)
	}
	blobs := make([][]byte, len(batch))
	size := len(batch[0].Blob)
	for i := range batch {
		batch[i].StripMetadata()
		if len(batch[i].Blob) != size {
			return nil, stats, ErrNonUniformBatch
		}
		blobs[i] = batch[i].Blob
	}

	// Oblivious sort by crowd ID, peeling the outer layer on ingest. The
	// bucket size is chosen so two buckets fill at most a quarter of the
	// enclave, leaving room for the scan and the final shuffle.
	codec := outerPeelCodec{priv: s.priv, enclave: s.Enclave}
	bucket := oblivious.EnclaveItemCapacity(s.Enclave.Limit()/4, size)
	if bucket < 2 {
		bucket = 2
	}
	sorter := &oblivious.BatcherShuffle{
		Enclave: s.Enclave, Codec: codec,
		BucketSize: bucket, SortByPrefix: true, Seed: s.epochSeed(),
	}
	sorted, err := sorter.Shuffle(blobs)
	if err != nil {
		return nil, stats, fmt.Errorf("shuffler: oblivious sort: %w", err)
	}

	// Forward scan with O(1) private state: count each crowd's run, decide
	// its fate with the noisy threshold, and emit survivors' inner blobs.
	var out [][]byte
	flushRun := func(run [][]byte) {
		if len(run) == 0 {
			return
		}
		stats.Crowds++
		keep, ok := s.Threshold.Apply(s.Rand, len(run))
		if !ok {
			return
		}
		stats.CrowdsForwarded++
		if keep > len(run) {
			keep = len(run)
		}
		out = append(out, run[:keep]...)
	}
	var run [][]byte
	var runID core.CrowdID
	for _, rec := range sorted {
		s.Enclave.ReadUntrusted(len(rec))
		id, inner, ok := peeled(rec)
		if !ok {
			stats.Undecryptable++
			continue
		}
		if id != runID && run != nil {
			flushRun(run)
			run = nil
		}
		runID = id
		run = append(run, inner)
	}
	flushRun(run)
	stats.Forwarded = len(out)
	if len(out) == 0 {
		return nil, stats, nil
	}

	// Re-shuffle survivors so adjacency does not reveal crowd grouping.
	final := oblivious.NewStashShuffle(s.Enclave, oblivious.Passthrough{}, len(out))
	final.Seed = s.epochSeed()
	final.Workers = s.Workers
	shuffled, err := final.Shuffle(out)
	if err != nil {
		return nil, stats, fmt.Errorf("shuffler: final shuffle: %w", err)
	}
	for _, rec := range shuffled {
		s.Enclave.WriteUntrusted(len(rec))
	}
	return shuffled, stats, nil
}
