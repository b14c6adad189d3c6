package main

import (
	"fmt"
	"testing"

	"prochlo"
)

// TestLoopbackMatchesInProcess: a seeded -loopback 1x1x1 fleet, built by the
// call a run makes, is the in-process ModeBlinded pipeline under the same
// seed. For the same reports cut into the same epochs, the two histograms
// are byte-identical — so is a seeded prochlod chain's, whose daemons draw
// the same per-role streams.
func TestLoopbackMatchesInProcess(t *testing.T) {
	const (
		seed    = 7
		reports = 360
		chunk   = 120
	)
	// Per epoch, crowds of 60, 40 and 20: the threshold's seeded noise
	// decides how many of the first two survive, and whether the third does.
	labels, data := make([]string, reports), make([][]byte, reports)
	for i := range labels {
		labels[i] = fmt.Sprintf("crowd:%d", []int{0, 0, 0, 1, 1, 2}[i%6])
		data[i] = []byte(labels[i])
	}

	p, err := prochlo.New(prochlo.WithSeed(seed), prochlo.WithMode(prochlo.ModeBlinded), prochlo.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := startLoopback("1x1x1", 1, chunk, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	rp, err := prochlo.DialRemoteChainFleet(fleet.Tiers[0], fleet.Tiers[1], fleet.Analyzers, prochlo.WithRemoteWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	want := make(map[string]int)
	var got *prochlo.Result
	for at := 0; at < reports; at += chunk {
		if err := p.SubmitBatch(labels[at:at+chunk], data[at:at+chunk]); err != nil {
			t.Fatal(err)
		}
		res, err := p.Flush()
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range res.Histogram {
			want[k] += v
		}
		// The fleet cuts an epoch at every chunk; Flush is the barrier.
		if err := rp.SubmitBatch(labels[at:at+chunk], data[at:at+chunk]); err != nil {
			t.Fatal(err)
		}
		if got, err = rp.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) == 0 {
		t.Fatal("the threshold let nothing through: the comparison would be vacuous")
	}
	// fmt prints a map's keys sorted: the strings are canonical forms.
	if g, w := fmt.Sprint(got.Histogram), fmt.Sprint(want); g != w {
		t.Errorf("seeded 1x1x1 loopback histogram differs from prochlo.New(WithSeed):\nloopback:   %s\nin-process: %s", g, w)
	}
}
