package main

import (
	"fmt"
	"math/rand/v2"
)

const (
	topoChain  = "chain"  // prochlod shuffler1 -> shuffler2 -> analyzer
	topoPlain  = "plain"  // prochlod shuffler -> analyzer
	topoInproc = "inproc" // prochlo.New(ModeBlinded) in the benchmark's process

	payloadBytes = 64
)

// workload is one set of inputs and the deployment they are run against.
// Thresholding is the paper's T=20/D=10/sigma=2 everywhere (the program's
// default), the group is the default ristretto255, the wire is the default
// binary protocol, and every link is loopback TCP.
type workload struct {
	Name string
	Why  string

	Topology   string
	Submitters int // C, closed loop: each sends its next batch when the last is acked
	Batch      int // B, reports per SubmitBatch call
	Round      int // reports per round
	FlushAt    int // reports per epoch: the daemons' -flush-at; in-process one Flush per round
	WAL        bool

	// Labels are drawn uniformly from Crowds values, or — when Crowds is 0 —
	// Zipf(ZipfS) over ZipfN values.
	Crowds int
	ZipfS  float64
	ZipfN  uint64
}

var workloads = []workload{
	{
		Name: "chain-stream",
		Why: "split-shuffler chain as deployed (3 prochlod processes): every layer is live, " +
			"so crypto and wire changes both show here",
		Topology: topoChain, Submitters: 2, Batch: 250, Round: 6000, FlushAt: 2000, Crowds: 50,
	},
	{
		Name: "inproc-blinded",
		Why: "same report stream through prochlo.New(ModeBlinded) in one process: same crypto, " +
			"no transport, codec, sockets or WAL, so a transport change must not move it",
		Topology: topoInproc, Submitters: 1, Batch: 250, Round: 2000, FlushAt: 2000, Crowds: 50,
	},
	{
		Name: "plain-durable",
		Why: "single shuffler daemon with WAL and fsync per append, 5-report batches: no ElGamal, " +
			"least crypto per report, per-call costs (frame, syscall, WAL, epoch) paid every 5 reports",
		Topology: topoPlain, Submitters: 2, Batch: 5, Round: 5000, FlushAt: 500, Crowds: 10, WAL: true,
	},
	{
		Name: "inproc-longtail",
		Why: "inproc-blinded with Zipf(1.1) labels over 100000 values: hundreds of crowds per epoch, " +
			"few pass the threshold, the encoder's 4096-entry hash-to-point cache overflows",
		Topology: topoInproc, Submitters: 1, Batch: 250, Round: 2000, FlushAt: 2000, ZipfS: 1.1, ZipfN: 100_000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload tenfold — epochs, rounds and the uniform crowd
// count together, so crowds keep their size relative to the threshold — for
// the self-test that runs every workload end to end in seconds.
func (w workload) smoke() workload {
	w.Round /= 10
	w.FlushAt /= 10
	w.Crowds /= 10
	return w
}

// labelOf names crowd k. Reports of one crowd carry one value (the label
// padded to payloadBytes), as in the paper's Vocab study, so the analyzer's
// histogram can be checked value by value against what was submitted.
func labelOf(k uint64) string { return fmt.Sprintf("crowd-%06d", k) }

func valueOf(label string) []byte {
	v := make([]byte, payloadBytes)
	for i := copy(v, label); i < len(v); i++ {
		v[i] = '.'
	}
	return v
}

// round generates the inputs of round r: the same (seed, r) always gives the
// same reports, and nothing else about the run depends on the seed.
func (w workload) round(seed uint64, r int) (labels []string, data [][]byte) {
	rng := rand.New(rand.NewPCG(seed, uint64(r)))
	var zipf *rand.Zipf
	if w.Crowds == 0 {
		zipf = rand.NewZipf(rng, w.ZipfS, 1, w.ZipfN-1)
	}
	labels = make([]string, w.Round)
	data = make([][]byte, w.Round)
	values := make(map[uint64][]byte)
	for i := range labels {
		var k uint64
		if zipf != nil {
			k = zipf.Uint64()
		} else {
			k = rng.Uint64N(uint64(w.Crowds))
		}
		labels[i] = labelOf(k)
		v, ok := values[k]
		if !ok {
			v = valueOf(labels[i])
			values[k] = v
		}
		data[i] = v
	}
	return labels, data
}
