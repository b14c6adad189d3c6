package shuffler

import (
	"math/rand/v2"
	"sort"
	"sync"
)

// This file is the shared worker-pool core of the thresholding ProcessEpoch
// paths (Shuffler, Shuffler2): envelopes are peeled or mapped to
// pseudonyms by a pool of workers writing positionally into a
// preallocated slice (no shared state, no locks), then merged into crowd
// groups by shard-of-crowd-ID-prefix maps — each shard goroutine owns its map
// outright, so there is no map contention — and finally thresholded and
// shuffled serially, consuming the batch RNG in a deterministic order.
//
// Determinism contract: for a fixed batch and a fixed *rand.Rand seed, the
// output is byte-identical for every worker count. The parallel phases write
// only positionally-owned state; crowd groups are ordered by first appearance
// in the batch (a total order independent of worker interleaving); and all
// RNG consumption happens in the serial thresholding phase.

// group is one crowd's membership: the batch positions of its items in
// increasing order, plus the first position for deterministic ordering of the
// groups themselves.
type group struct {
	idxs  []int
	first int
	size  int // len(idxs) once filled
}

// groupBy partitions the live items of a batch into groups with equal keys.
// live reports whether item i survived decryption, keyAt returns item i's
// group key, and shardOf maps a key to a uniformly distributed shard hint
// (a crowd-ID prefix byte). The returned groups are ordered by first
// appearance and each group's idxs are in increasing batch order, for every
// shard count.
func groupBy[K comparable](shards, n int, live func(int) bool, keyAt func(int) K, shardOf func(K) uint32) []group {
	// collect makes one pass that numbers the groups and counts their
	// items, then carves every group's idxs out of one backing array, so a
	// crowd's membership costs no allocation of its own.
	collect := func(claim func(K) bool) []group {
		m := make(map[K]int32)
		var groups []group
		of := make([]int32, n) // item i's group, or -1
		total := 0
		for i := 0; i < n; i++ {
			of[i] = -1
			if !live(i) {
				continue
			}
			k := keyAt(i)
			if !claim(k) {
				continue
			}
			gi, ok := m[k]
			if !ok {
				gi = int32(len(groups))
				m[k] = gi
				groups = append(groups, group{first: i})
			}
			of[i] = gi
			groups[gi].size++
			total++
		}
		backing := make([]int, total)
		for gi := range groups {
			size := groups[gi].size
			groups[gi].idxs, backing = backing[:0:size], backing[size:]
		}
		for i, gi := range of {
			if gi >= 0 {
				groups[gi].idxs = append(groups[gi].idxs, i)
			}
		}
		return groups
	}
	if shards <= 1 {
		return collect(func(K) bool { return true })
	}
	perShard := make([][]group, shards)
	var wg sync.WaitGroup
	wg.Add(shards)
	for s := 0; s < shards; s++ {
		go func(s int) {
			defer wg.Done()
			perShard[s] = collect(func(k K) bool { return int(shardOf(k))%shards == s })
		}(s)
	}
	wg.Wait()
	var all []group
	for _, g := range perShard {
		all = append(all, g...)
	}
	// First-appearance positions are unique, so this ordering is total and
	// equals the serial single-map insertion order.
	sort.Slice(all, func(a, b int) bool { return all[a].first < all[b].first })
	return all
}

// applyThreshold runs crowd thresholding over the groups in their
// deterministic order and returns the batch positions of the selected items
// in output order, shuffled so that order carries no grouping signal. It is
// the single point of RNG consumption in a ProcessEpoch call and always runs
// serially; its draws depend only on the group sizes.
func applyThreshold(groups []group, th Threshold, rng *rand.Rand, stats *Stats) []int {
	stats.Crowds = len(groups)
	var out []int
	for gi := range groups {
		idxs := groups[gi].idxs
		keep, ok := th.Apply(rng, len(idxs))
		if !ok {
			continue
		}
		stats.CrowdsForwarded++
		// Drop a random subset down to the post-noise count.
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		out = append(out, idxs[:min(keep, len(idxs))]...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
