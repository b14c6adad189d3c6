package main

import (
	"fmt"
	"runtime"
	"time"
)

const (
	// replayReps is how many times the staged replay repeats (after one
	// untimed warm-up); each metric is the median over repetitions.
	replayReps = 5
	// replayReports caps how much of a round each repetition replays: whole
	// epochs of every workload (so thresholding sees crowds of live size),
	// yet few enough that five repetitions fit the traced run's budget.
	replayReports = 2000
)

// layerTotals sums the spans of one name within one repetition.
type layerTotals struct {
	US     float64 // duration
	SelfUS float64 // duration not spent in the kernels replayed under it
	Ops    int
	Allocs uint64
}

// replayRep is one repetition of the staged replay.
type replayRep struct {
	Layers         map[string]layerTotals
	ForwardedShare float64
	WireBytes      float64 // per report; 0 where the workload has no wire
}

// runReplay is the cost ledger: it pushes rounds of the workload's generated
// reports — the ones following firstRound, i.e. what the live phase would
// have seen next — through each layer's public functions, serially and in
// path order, timing every call from outside and recording it as a span.
// The kit's hash-to-point caches start in the state the live clients were
// in (cached lists what they held).
func runReplay(w workload, seed uint64, firstRound, reps int, cached []string, tr *tracer) ([]replayRep, error) {
	kit, err := newReplayKit(w)
	if err != nil {
		return nil, err
	}
	if err := kit.Prewarm(cached); err != nil {
		return nil, fmt.Errorf("replay prewarm: %w", err)
	}
	out := make([]replayRep, 0, reps)
	ref, err := sampleRef()
	if err != nil {
		return nil, err
	}
	for rep := -1; rep < reps; rep++ {
		round := firstRound + rep + 1
		labels, data := w.round(seed, round)
		if len(labels) > replayReports {
			labels, data = labels[:replayReports], data[:replayReports]
		}
		into := tr
		if rep < 0 {
			into = newTracer() // warm-up: pools filled, tables built, spans discarded
		}
		release, err := keepCoresBusy()
		if err != nil {
			return nil, err
		}
		spans, err := runCalls(kit.Calls(labels, data), round, into)
		release()
		if err != nil {
			return nil, fmt.Errorf("replay of round %d: %w", round, err)
		}
		after, err := sampleRef()
		if err != nil {
			return nil, err
		}
		sp := speedBetween(ref, after)
		ref = after
		if rep < 0 {
			continue
		}
		r := replayRep{Layers: totals(spans, sp.Wall)}
		if kit.Received > 0 {
			r.ForwardedShare = float64(kit.Forwarded) / float64(kit.Received)
		}
		r.WireBytes = float64(kit.WireBytes) / float64(len(labels))
		out = append(out, r)
	}
	return out, nil
}

// runCalls runs the calls in order on this goroutine and records each as a
// span on tr; a kernel's parent is the latest span of the layer it names.
func runCalls(calls []layerCall, round int, tr *tracer) ([]span, error) {
	spans := make([]span, 0, len(calls))
	latest := map[string]int{}
	var m0, m1 runtime.MemStats
	for _, c := range calls {
		if c.Prep != nil {
			if err := c.Prep(); err != nil {
				return nil, fmt.Errorf("%s: prepare: %w", c.Name, err)
			}
		}
		parent, ok := latest[c.Parent]
		if c.Parent != "" && !ok {
			return nil, fmt.Errorf("%s: no %s call before it", c.Name, c.Parent)
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		ops, err := c.Run()
		end := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		s := tr.add(span{
			Parent: parent, Name: c.Name, Round: round, Ops: ops,
			Allocs: m1.Mallocs - m0.Mallocs, Replayed: c.Parent != "",
		}, start, end)
		latest[c.Name] = s.ID
		spans = append(spans, s)
	}
	return spans, nil
}

// totals sums one repetition's spans by name, with self times, scaled to the
// nominal machine speed (the spans themselves stay raw).
func totals(spans []span, speedWall float64) map[string]layerTotals {
	self := selfTimes(spans)
	out := map[string]layerTotals{}
	for _, s := range spans {
		t := out[s.Name]
		t.US += s.dur() * speedWall
		t.SelfUS += self[s.ID] * speedWall
		t.Ops += s.Ops
		t.Allocs += s.Allocs
		out[s.Name] = t
	}
	return out
}

// perOp returns, for every repetition, the named layer's cost per operation
// from pick (0 where the layer made no calls).
func perOp(reps []replayRep, name string, pick func(layerTotals) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		if t := r.Layers[name]; t.Ops > 0 {
			out[i] = pick(t) / float64(t.Ops)
		}
	}
	return out
}

func usOf(t layerTotals) float64     { return t.US }
func allocsOf(t layerTotals) float64 { return float64(t.Allocs) }
