// Package analyzer implements the ESA analysis stage (§3.4): it decrypts
// the inner layer of shuffled reports, materializes a database, aggregates
// it, recovers secret-shared values, and optionally applies
// differentially-private release to its outputs.
//
// Open is the analyzer's per-batch hot path: record decryption is hybrid's
// chunked OpenBatch, fanned out over a worker pool (the Workers knob; 0
// selects GOMAXPROCS, 1 the serial reference path) with all plaintexts
// carved out of one batch-wide arena, and the output order and
// undecryptable count are deterministic — a batch opens identically at
// every worker count.
package analyzer

import (
	"fmt"
	"math/rand/v2"

	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/crypto/secretshare"
	"prochlo/internal/dp"
)

// Analyzer holds the analysis decryption key — the key whose possession
// defines the permitted analysis (§3: "processed only by a specific
// analysis, determined by the corresponding data decryption key").
type Analyzer struct {
	Priv *hybrid.PrivateKey
	// Workers is the decryption pool size: 0 selects GOMAXPROCS, 1 forces
	// the serial reference path. Output is identical at every setting.
	Workers int
}

// Open decrypts a batch of inner ciphertexts into the materialized
// database, preserving batch order. Undecryptable records are counted, not
// fatal: a corrupt or malicious record must not poison the batch.
func (a *Analyzer) Open(items [][]byte) (db [][]byte, undecryptable int) {
	pts, undecryptable := a.OpenBatch(items)
	db = pts[:0]
	for _, pt := range pts {
		if pt != nil {
			db = append(db, pt)
		}
	}
	return db, undecryptable
}

// OpenBatch decrypts a batch positionally on the worker pool: pts[i] is
// record i's plaintext, or nil if it was undecryptable. It is hybrid's
// chunked OpenBatch with the failures counted.
func (a *Analyzer) OpenBatch(items [][]byte) (pts [][]byte, undecryptable int) {
	pts, errs := a.Priv.OpenBatch(items, nil, a.Workers)
	for _, err := range errs {
		if err != nil {
			undecryptable++
		}
	}
	return pts, undecryptable
}

// Histogram counts identical records in a materialized database. Record
// bytes are interned: the map key string is allocated once per distinct
// record value, not once per record, so counting a billion-report batch
// with a small value domain allocates O(distinct values).
func Histogram(db [][]byte) map[string]int {
	// idx maps record value -> position in counts while counting; the
	// lookup compiles to an allocation-free map access, and the string key
	// is materialized only on first insertion.
	idx := make(map[string]int, len(db)/4)
	counts := make([]int, 0, len(db)/4)
	for _, rec := range db {
		if i, ok := idx[string(rec)]; ok {
			counts[i]++
			continue
		}
		idx[string(rec)] = len(counts)
		counts = append(counts, 1)
	}
	// Repurpose idx as the result map: overwrite each interned key's index
	// with its count in place, allocating no second map.
	for k, i := range idx {
		idx[k] = counts[i]
	}
	return idx
}

// HistogramDP releases a histogram with eps-differentially-private counts
// (Laplace mechanism, sensitivity 1). Negative noisy counts are clamped to
// zero but keys are retained; key-set privacy must come from the shuffler's
// thresholding or the encoder (releasing the key set of a raw histogram is
// exactly the partitioning pitfall §2.2 warns about).
func HistogramDP(rng *rand.Rand, db [][]byte, eps float64) map[string]float64 {
	h := Histogram(db)
	out := make(map[string]float64, len(h))
	b := dp.LaplaceScale(1, eps)
	for k, v := range h {
		n := float64(v) + dp.Laplace(rng, b)
		if n < 0 {
			n = 0
		}
		out[k] = n
	}
	return out
}

// RecoverSecretShared parses each database record as a §4.2 secret-share
// encoding and recovers every value with at least t shares. It returns the
// recovered values and the number of records that failed to parse.
func RecoverSecretShared(t int, db [][]byte) (recovered []secretshare.Recovered, malformed int, err error) {
	encs := make([]secretshare.Encoding, 0, len(db))
	for _, rec := range db {
		e, err := secretshare.Unmarshal(rec)
		if err != nil {
			malformed++
			continue
		}
		encs = append(encs, e)
	}
	rec, errs := secretshare.Recover(t, encs)
	if len(errs) > 0 {
		// Tampered share groups are suppressed, not fatal; report count.
		err = fmt.Errorf("analyzer: %d share groups failed recovery", len(errs))
	}
	return rec, malformed, err
}
