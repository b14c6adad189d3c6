package oblivious

import (
	"encoding/binary"
	"fmt"
	"sort"

	"prochlo/internal/sgx"
)

// BatcherShuffle shuffles by obliviously sorting items under random 64-bit
// keys with Batcher's odd-even merge sort applied at bucket granularity
// (§4.1.3): the primitive operation reads two buckets of up to BucketSize
// items into private memory, sorts their union by key, and writes the lower
// half back to the first bucket and the upper half to the second. The
// comparator network is data independent, so the sequence of bucket reads
// and writes leaks nothing about the permutation.
//
// With the paper's numbers (92 MB EPC, 318-byte records) BucketSize is about
// 152 thousand records, and sorting N items costs ~ceil(log2(N/b))^2 passes
// over the data.
type BatcherShuffle struct {
	Enclave    *sgx.Enclave
	Codec      Codec
	BucketSize int    // items per bucket; two buckets must fit in the enclave
	Seed       uint64 // deterministic randomness for tests when nonzero

	// Passes records the number of bucket-pair operations of the last run.
	Passes int
}

// Name implements Shuffler.
func (b *BatcherShuffle) Name() string { return "BatcherSort" }

// keyedItem is an intermediate record: 8-byte random sort key plus payload.
type keyedItem struct {
	key     uint64
	payload []byte
}

// Shuffle implements Shuffler.
func (b *BatcherShuffle) Shuffle(in [][]byte) ([][]byte, error) {
	if b.BucketSize < 1 {
		return nil, fmt.Errorf("oblivious: invalid bucket size %d", b.BucketSize)
	}
	if _, err := validateUniform(in); err != nil {
		return nil, err
	}
	codec := meteredCodec{c: b.Codec, e: b.Enclave}
	rng := newRand(b.Seed)
	seal, err := newSealer()
	if err != nil {
		return nil, err
	}
	n := len(in)
	pSize := codec.PlainSize(len(in[0]))
	interSize := 8 + pSize + sealedOverhead

	// Pass 1: decode, attach random sort keys, re-encrypt into the working
	// array, padded with maximal-key dummies to a power-of-two number of
	// full buckets so the comparator network is uniform.
	nBuckets := (n + b.BucketSize - 1) / b.BucketSize
	nBuckets = nextPow2(nBuckets)
	total := nBuckets * b.BucketSize
	work := make([][]byte, total)
	const dummyKey = ^uint64(0)
	for i := 0; i < total; i++ {
		var it keyedItem
		if i < n {
			b.Enclave.ReadUntrusted(len(in[i]))
			pt, err := codec.Open(in[i])
			if err != nil {
				return nil, err
			}
			// Random keys in [0, 2^63) keep real items below dummies.
			it = keyedItem{key: rng.Uint64() >> 1, payload: pt}
		} else {
			it = keyedItem{key: dummyKey, payload: make([]byte, pSize)}
		}
		rec := seal.seal(encodeKeyed(it, pSize))
		work[i] = rec
		b.Enclave.WriteUntrusted(len(rec))
	}

	// Private memory for one bucket-pair operation.
	opMem := int64(2 * b.BucketSize * interSize)
	if err := b.Enclave.Alloc(opMem); err != nil {
		return nil, err
	}
	defer b.Enclave.Free(opMem)

	b.Passes = 0
	sortPair := func(x, y int) error {
		b.Passes++
		lo := make([]keyedItem, 0, 2*b.BucketSize)
		for _, base := range []int{x * b.BucketSize, y * b.BucketSize} {
			for i := 0; i < b.BucketSize; i++ {
				rec := work[base+i]
				b.Enclave.ReadUntrusted(len(rec))
				pt, err := seal.open(rec)
				if err != nil {
					return err
				}
				lo = append(lo, decodeKeyed(pt))
			}
		}
		sort.Slice(lo, func(i, j int) bool { return lo[i].key < lo[j].key })
		for i, base := 0, x*b.BucketSize; i < b.BucketSize; i++ {
			rec := seal.seal(encodeKeyed(lo[i], pSize))
			work[base+i] = rec
			b.Enclave.WriteUntrusted(len(rec))
		}
		for i, base := 0, y*b.BucketSize; i < b.BucketSize; i++ {
			rec := seal.seal(encodeKeyed(lo[b.BucketSize+i], pSize))
			work[base+i] = rec
			b.Enclave.WriteUntrusted(len(rec))
		}
		return nil
	}

	// Batcher odd-even merge sort comparator network over the buckets.
	for _, cmp := range oddEvenMergeSortNetwork(nBuckets) {
		if err := sortPair(cmp[0], cmp[1]); err != nil {
			return nil, err
		}
	}

	// Final pass: strip keys and dummies, seal output.
	out := make([][]byte, 0, n)
	for _, rec := range work {
		b.Enclave.ReadUntrusted(len(rec))
		pt, err := seal.open(rec)
		if err != nil {
			return nil, err
		}
		it := decodeKeyed(pt)
		if it.key == dummyKey {
			continue
		}
		o, err := codec.Seal(it.payload)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
		b.Enclave.WriteUntrusted(len(o))
	}
	if len(out) != n {
		return nil, fmt.Errorf("oblivious: batcher emitted %d of %d items", len(out), n)
	}
	return out, nil
}

func encodeKeyed(it keyedItem, pSize int) []byte {
	buf := make([]byte, 8+pSize)
	binary.BigEndian.PutUint64(buf, it.key)
	copy(buf[8:], it.payload)
	return buf
}

func decodeKeyed(pt []byte) keyedItem {
	return keyedItem{key: binary.BigEndian.Uint64(pt), payload: pt[8:]}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// oddEvenMergeSortNetwork returns the comparator list of Batcher's odd-even
// merge sort for n inputs (n a power of two), in execution order.
func oddEvenMergeSortNetwork(n int) [][2]int {
	var cmps [][2]int
	var sorter func(lo, cnt int)
	var merger func(lo, cnt, r int)
	merger = func(lo, cnt, r int) {
		step := r * 2
		if step < cnt {
			merger(lo, cnt, step)
			merger(lo+r, cnt, step)
			for i := lo + r; i+r < lo+cnt; i += step {
				cmps = append(cmps, [2]int{i, i + r})
			}
		} else {
			cmps = append(cmps, [2]int{lo, lo + r})
		}
	}
	sorter = func(lo, cnt int) {
		if cnt > 1 {
			m := cnt / 2
			sorter(lo, m)
			sorter(lo+m, m)
			merger(lo, cnt, 1)
		}
	}
	sorter(0, n)
	return cmps
}
