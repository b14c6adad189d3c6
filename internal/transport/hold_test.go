package transport

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/faultnet"
)

// shrinkHold makes every hold give up after d until the test ends. Call it
// before starting any party, so the bound is restored after they stop.
func shrinkHold(t *testing.T, d time.Duration) {
	t.Helper()
	saved := maxHold
	maxHold = d
	t.Cleanup(func() { maxHold = saved })
}

// itemsOf is n walItems of kind, tagged tag-0 … tag-(n-1).
func itemsOf(kind core.BatchKind, tag string, n int) core.Batch {
	var b core.Batch
	for i := 0; i < n; i++ {
		b, _ = b.Append(walItem(kind, fmt.Sprintf("%s-%d", tag, i)))
	}
	return b
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedStage is a recordStage of kind with floor 1 whose every epoch waits
// for gate to close, and which counts the records it admits.
func gatedStage(kind core.BatchKind, gate chan struct{}, admits *atomic.Int64) *recordStage {
	return &recordStage{kind: kind, floor: 1,
		admit: func(in core.Batch) core.Batch {
			admits.Add(int64(in.Len()))
			return in
		},
		onEpoch: func(core.Batch) { <-gate }}
}

// fillToLimit brings an engine under FlushAt 1 — limit 2, cut at 1 — whose
// flusher is stuck on its first epoch to where the next batch is held: one
// epoch in the flusher, inFlightEpochs queued, one more cut waiting in the
// scheduler, and two reports pending. It ingests one report at a time on
// stream, at positions 1 on.
func fillToLimit(t *testing.T, eng *engine, stream int64) {
	t.Helper()
	for i := 1; i <= inFlightEpochs+2; i++ {
		if err := eng.ingest(stream, int64(i), itemsOf(eng.kind, fmt.Sprintf("cut%d", i), 1)); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, fmt.Sprintf("cut %d", i), func() bool {
			st := eng.stats()
			return st.Pending == 0 && st.QueuedEpochs == i
		})
	}
	for i := inFlightEpochs + 3; i <= inFlightEpochs+4; i++ {
		if err := eng.ingest(stream, int64(i), itemsOf(eng.kind, fmt.Sprintf("pending%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.stats(); st.Pending != 2 {
		t.Fatalf("after filling: %+v, want 2 pending, the limit", st)
	}
}

// TestPushNeverStrands: a hop holding a tail below its FlushAt still takes
// the upstream's next epoch whole, though tail and epoch together pass its
// limit. No cut is owed to make room for the epoch, so a hop that refused it
// would refuse it every time, and the upstream would drop it.
func TestPushNeverStrands(t *testing.T) {
	var (
		mu  sync.Mutex
		got int
	)
	delivered := make(chan struct{})
	hop2, err := NewStageService(&recordStage{kind: core.KindBlinded, floor: 1, onEpoch: func(in core.Batch) {
		mu.Lock()
		defer mu.Unlock()
		if got += in.Len(); got == 9 {
			close(delivered)
		}
	}}, []string{serveNull(t)}, EpochConfig{FlushAt: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer hop2.Close()
	hop1, err := newEngine(EpochConfig{FlushAt: 4},
		&recordStage{kind: core.KindBlinded, floor: 1, onEpoch: func(core.Batch) {}}, []string{serveService(t, hop2)})
	if err != nil {
		t.Fatal(err)
	}
	defer hop1.close()

	// A hop-1 Drain leaves hop 2 a tail of 2, below its FlushAt.
	if err := hop1.ingest(1, 1, itemsOf(core.KindBlinded, "tail", 2)); err != nil {
		t.Fatal(err)
	}
	if err := hop1.drain(false); err != nil {
		t.Fatal(err)
	}
	if st := hop2.Stats(); st.Pending != 2 {
		t.Fatalf("hop 2 after the drain: %+v, want the tail of 2 pending", st)
	}
	// One Submit of 7 fits hop 1's limit of 8 and cuts an epoch of 7, which
	// hop 2 must take beside its tail: 9 is past its limit of 8.
	start := time.Now()
	if err := hop1.ingest(1, 2, itemsOf(core.KindBlinded, "epoch", 7)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(time.Second):
		t.Fatalf("hop 2 processed %d of 9 reports after 1 s (hop 1: %+v)", got, hop1.stats())
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("the 9 reports took %v to reach hop 2's stage, want well under 1 s", d)
	}
	waitUntil(t, "hop 1's push to resolve", func() bool { return hop1.stats().QueuedEpochs == 0 })
	for name, st := range map[string]ServiceStats{"hop 1": hop1.stats(), "hop 2": hop2.Stats()} {
		if st.EpochsFailed != 0 || st.Dropped != 0 || st.Rejected != 0 {
			t.Errorf("%s: %d epochs failed, %d dropped, %d rejected (%s), want none", name, st.EpochsFailed, st.Dropped, st.Rejected, st.LastError)
		}
	}
}

// TestHeldSubmitReturnsOnceFlusherFrees: a client's Submit that does not fit
// while the flusher is stuck behind a slow downstream is held, not refused:
// the call returns nil once a cut frees room, and nothing counts as rejected.
func TestHeldSubmitReturnsOnceFlusherFrees(t *testing.T) {
	const stuck = time.Second
	// The first push, epoch 1's, waits at the proxy.
	slow := &faultnet.Plan{Seed: 1, PDelay: 1, Delay: stuck, MaxFaults: 1}
	svc, err := NewStageService(&recordStage{kind: core.KindEnvelopes, floor: 1, onEpoch: func(core.Batch) {}},
		proxied(t, slow, serveNull(t)), EpochConfig{FlushAt: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cl, err := Dial(serveService(t, svc))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	fillToLimit(t, svc.eng, 1)
	if err := cl.Submit(itemsOf(core.KindEnvelopes, "held", 1)); err != nil {
		t.Fatalf("a Submit over the limit while the flusher is stuck: %v, want nil once it frees", err)
	}
	if d := time.Since(start); d < stuck/2 {
		t.Errorf("the Submit returned after %v, before the flusher could free room", d)
	}
	st, err := cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 0 || st.Accepted != 7 || st.Cumulative.Received != 7 || st.Dropped != 0 {
		t.Errorf("after the drain: %+v, want all 7 accepted and processed, none rejected", st)
	}
}

// TestHeldPastBoundRefused: a batch held longer than the bound is refused
// with ErrEpochFull, having been neither admitted nor kept, and a hop whose
// push gets that answer drops the epoch at once: the answer is final.
func TestHeldPastBoundRefused(t *testing.T) {
	shrinkHold(t, 100*time.Millisecond)
	gate := make(chan struct{})
	var admits atomic.Int64
	hop2, err := NewStageService(gatedStage(core.KindBlinded, gate, &admits), []string{serveNull(t)}, EpochConfig{FlushAt: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer hop2.Close()
	defer close(gate)
	fillToLimit(t, hop2.eng, 1)

	before := hop2.Stats()
	if _, err := hop2.Submit(2, 1, itemsOf(core.KindBlinded, "late", 1)); err != ErrEpochFull {
		t.Fatalf("a Submit held past the bound: %v, want ErrEpochFull", err)
	}
	st := hop2.Stats()
	if admits.Load() != before.Accepted || st.Accepted != before.Accepted || st.Pending != 2 || st.Rejected != 1 {
		t.Errorf("after the refusal: %+v with %d records admitted, want the %d before admitted and kept, 2 pending, 1 rejected",
			st, admits.Load(), before.Accepted)
	}

	hop1, err := newEngine(EpochConfig{FlushAt: 2},
		&recordStage{kind: core.KindBlinded, floor: 1, onEpoch: func(core.Batch) {}}, []string{serveService(t, hop2)})
	if err != nil {
		t.Fatal(err)
	}
	defer hop1.close()
	start := time.Now()
	if err := hop1.ingest(1, 1, itemsOf(core.KindBlinded, "pushed", 2)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "hop 1 to drop the refused epoch", func() bool { return hop1.stats().EpochsFailed == 1 })
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("hop 1 dropped the epoch after %v, want at once after the 100 ms hold", d)
	}
	if st := hop1.stats(); st.Dropped != 2 || !strings.Contains(st.LastError, ErrEpochFull.Error()) {
		t.Errorf("hop 1 after the refusal: %+v, want the epoch of 2 dropped on epoch-full", st)
	}
}

// TestTimerHopIntoFlushAtHop: a chain whose hop 1 cuts on its timer alone
// and whose hop 2 cuts on FlushAt alone delivers every report. Hop 2 holds
// the tail of hop 1's first epoch below its FlushAt, and hop 1's next epoch
// takes it past its limit.
func TestTimerHopIntoFlushAtHop(t *testing.T) {
	var delivered atomic.Int64
	hop2, err := NewStageService(&recordStage{kind: core.KindBlinded, floor: 1, onEpoch: func(in core.Batch) {
		delivered.Add(int64(in.Len()))
	}}, []string{serveNull(t)}, EpochConfig{FlushAt: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer hop2.Close()
	hop1, err := NewStageService(&recordStage{kind: core.KindBlinded, floor: 1, onEpoch: func(core.Batch) {}},
		[]string{serveService(t, hop2)}, EpochConfig{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer hop1.Close()

	if _, err := hop1.Submit(1, 1, itemsOf(core.KindBlinded, "first", 3)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "hop 2 to hold hop 1's first epoch", func() bool { return hop2.Stats().Pending == 3 })
	if _, err := hop1.Submit(1, 2, itemsOf(core.KindBlinded, "second", 7)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "all 10 reports at hop 2's stage", func() bool { return delivered.Load() == 10 })
	for name, st := range map[string]ServiceStats{"hop 1": hop1.Stats(), "hop 2": hop2.Stats()} {
		if st.EpochsFailed != 0 || st.Dropped != 0 || st.Rejected != 0 {
			t.Errorf("%s: %d epochs failed, %d dropped, %d rejected (%s), want none", name, st.EpochsFailed, st.Dropped, st.Rejected, st.LastError)
		}
	}
}

// TestCloseReleasesHeldSubmit: closing an engine answers a held batch
// ErrClosed at once, without waiting for the cut it was held for, and the
// close itself returns as soon as the flusher has finished the epochs it
// owes.
func TestCloseReleasesHeldSubmit(t *testing.T) {
	gate := make(chan struct{})
	var admits atomic.Int64
	eng, err := newEngine(EpochConfig{FlushAt: 1}, gatedStage(core.KindEnvelopes, gate, &admits), []string{serveNull(t)})
	if err != nil {
		t.Fatal(err)
	}
	fillToLimit(t, eng, 1)
	held := make(chan error, 1)
	go func() { held <- eng.ingest(2, 1, itemsOf(core.KindEnvelopes, "held", 1)) }()
	select {
	case err := <-held:
		t.Fatalf("a batch over the limit returned %v, want it held", err)
	case <-time.After(50 * time.Millisecond):
	}
	closed := make(chan error, 1)
	go func() { closed <- eng.close() }()
	select {
	case err := <-held:
		if err != ErrClosed {
			t.Fatalf("the held batch got %v at close, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the held batch was still held 1 s after close began")
	}
	close(gate)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not return 2 s after the flusher was freed")
	}
	if st := eng.stats(); st.Accepted != 6 || admits.Load() != 6 || st.Rejected != 0 {
		t.Errorf("after close: %+v with %d admitted, want the 6 kept before the held batch, none rejected", st, admits.Load())
	}
}
