// Package parallel provides the small worker-pool primitives shared by the
// shuffler pipeline's hot paths (envelope decryption, blinding, and the Stash
// Shuffle distribution phase). The primitives are deliberately minimal: a
// bounded index loop with dynamic chunked work-stealing, suitable for batches
// of independent, uniformly expensive items (public-key operations dominate,
// so scheduling overhead is negligible).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunk is the most consecutive indices a worker claims per fetch. Per-item
// work in this codebase is microseconds of public-key crypto, so a small
// chunk keeps the tail balanced without measurable contention.
const chunk = 16

// Workers resolves a worker-count knob: values <= 0 select GOMAXPROCS, as
// the Shuffler/StashShuffle Workers fields document.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Arena carves disjoint per-record slots out of one backing allocation; it
// is the batch stages' shared buffer discipline: output sizes are computed
// up front (sealed-envelope and GCM-plaintext lengths are known exactly
// from the input lengths), one buffer is allocated, and each worker appends
// into its own fixed-capacity slot, so the per-record buffer cost is zero
// and slots never alias across workers. Negative sizes clamp to zero-width
// slots (the shape malformed records produce).
type Arena struct {
	offs []int
	buf  []byte
}

// NewArena sizes an arena for n records, slot i holding size(i) bytes.
func NewArena(n int, size func(i int) int) *Arena {
	offs := make([]int, n+1)
	for i := 0; i < n; i++ {
		s := size(i)
		if s < 0 {
			s = 0
		}
		offs[i+1] = offs[i] + s
	}
	return &Arena{offs: offs, buf: make([]byte, 0, offs[n])}
}

// Slot returns record i's zero-length, capacity-bounded slot; appends to it
// fill the slot in place and cannot spill into a neighbor.
func (a *Arena) Slot(i int) []byte {
	return a.buf[a.offs[i]:a.offs[i]:a.offs[i+1]]
}

// FirstError returns the lowest-index non-nil error of a positional error
// slice, with its index, so a batch failure is reported deterministically
// regardless of worker scheduling. It returns (-1, nil) when every entry is
// nil. This is the one error-selection policy of all batch fan-outs;
// callers wrap the error with their own record terminology.
func FirstError(errs []error) (int, error) {
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// RangeMax caps a Ranges range: the most records one batch-kernel call of
// the crypto layer takes (a blinding, a pseudonym or an open call, a comb
// run), past which per-call costs — the scalar recode, the shared field
// inversion — have vanished and a longer range only unbalances the workers.
// Callers size their per-range scratch with it.
const RangeMax = 256

// Ranges runs fn(lo, hi) over [0, n) cut into contiguous ranges, one per
// worker, none longer than RangeMax: the shape for a loop whose per-index
// work is cheaper in bulk (a batch kernel) and whose ranges should still
// keep every worker busy. Like For, it returns when every call has
// completed, and with one worker the ranges run in order on the calling
// goroutine.
func Ranges(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := max(workers, 1)
	size := min(RangeMax, (n+w-1)/w)
	if w == 1 {
		// in line, so the serial path allocates no closure for For
		for lo := 0; lo < n; lo += size {
			fn(lo, min(lo+size, n))
		}
		return
	}
	For(workers, (n+size-1)/size, func(c int) {
		lo := c * size
		fn(lo, min(lo+size, n))
	})
}

// For runs fn(i) for every i in [0, n), distributing indices over the given
// number of workers. With workers <= 1 (or tiny n) it degenerates to an
// in-order loop on the calling goroutine, which is the serial reference path:
// fn must therefore not depend on execution order across indices. For returns
// only when every call has completed.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// A claim is a quarter of a worker's even share, at most chunk: loops
	// over a handful of coarse items (the worker ranges of Ranges) still
	// spread over every worker instead of the first claim taking them all.
	step := min(chunk, max(1, n/(4*workers)))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(step)))
				lo := hi - step
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
