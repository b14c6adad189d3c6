package transport

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/shuffler"
)

// recordStage is an identity stage of one kind: it shows every epoch to
// onEpoch — on the flusher, while the epoch is cut and logged but not yet
// resolved — and forwards it unchanged. It admits a batch through admit
// when that is set, and as it is otherwise.
type recordStage struct {
	kind    core.BatchKind
	floor   int
	admit   func(in core.Batch) core.Batch
	onEpoch func(in core.Batch)
}

func (s *recordStage) Admit(in core.Batch) (core.Batch, error) {
	if s.admit == nil {
		return in, nil
	}
	return s.admit(in), nil
}
func (s *recordStage) ProcessEpoch(in core.Batch) (core.Batch, shuffler.Stats, error) {
	s.onEpoch(in)
	return in, shuffler.Stats{Received: in.Len(), Forwarded: in.Len()}, nil
}
func (s *recordStage) Kinds() (consumes, emits core.BatchKind) { return s.kind, s.kind }
func (s *recordStage) Floor() int                              { return s.floor }
func (s *recordStage) PublicKeys() (blinding, key []byte)      { return nil, nil }

// nullService acknowledges every call and keeps nothing: the downstream
// tier of a test that watches the engine, not what it pushes.
type nullService struct{}

func (nullService) serveFrame(_ uint8, _, dst []byte) ([]byte, error) {
	return appendWireInts(dst, 0), nil
}

func serveNull(t *testing.T) string { return serveService(t, nullService{}) }

// serveService serves svc on a loopback port for the test's lifetime and
// returns its address.
func serveService(t *testing.T, svc Service) string {
	t.Helper()
	l, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// TestCutOrderMatchesSeqSort pins the chunk merge against the per-item sort
// it replaced. Ingest calls of mixed sizes, each racer stamping its own
// stream (as a sender keeps one call in flight per stream), race each
// other; a below-floor cut is put back, a restart over a
// copy of the log turns it into WAL-recovered pending items, and more calls
// race on top. However the racing appends interleave, the epoch the stage
// then sees must be exactly the accepted items sorted by the sequence
// number each was given, and the cut record in the log must be the first
// and last item's.
func TestCutOrderMatchesSeqSort(t *testing.T) { forEachKind(t, testCutOrder) }

func testCutOrder(t *testing.T, kind core.BatchKind) {
	const floor = 30
	cfg := EpochConfig{WALDir: t.TempDir()}
	next := []string{serveNull(t)}

	// numbered is value -> the sequence number the engine gave it, read
	// back from the call's chunk once the ingest call returned.
	var (
		mu       sync.Mutex
		numbered = map[string]int64{}
		eng      *engine
		epochs   []core.Batch
		ranges   []walCut
	)
	stage := &recordStage{kind: kind, floor: floor, onEpoch: func(in core.Batch) {
		epochs = append(epochs, in)
		eng.wal.mu.Lock()
		defer eng.wal.mu.Unlock()
		for _, c := range eng.wal.cuts { // the flusher is FIFO: at most this epoch is unresolved
			if !c.resolved {
				ranges = append(ranges, c)
			}
		}
	}}
	start := func() {
		t.Helper()
		var err error
		if eng, err = newEngine(cfg, stage, next); err != nil {
			t.Fatal(err)
		}
	}
	// ingest submits one batch of n fresh items, stamped (stream, pos).
	ingest := func(tag string, n int, stream, pos int64) {
		var b core.Batch
		for i := 0; i < n; i++ {
			b, _ = b.Append(walItem(kind, fmt.Sprintf("%s-%d", tag, i)))
		}
		if err := eng.ingest(stream, pos, b); err != nil {
			t.Error(err)
			return
		}
		// Only a drain cuts, and none runs while calls race, so the call's
		// chunk is still pending: its range numbers the items.
		eng.chunkMu.Lock()
		defer eng.chunkMu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range eng.chunks {
			if walValue(c.items, 0) == walValue(b, 0) {
				for i := 0; i < n; i++ {
					numbered[walValue(b, i)] = c.min + int64(i)
				}
				return
			}
		}
		t.Errorf("no pending chunk holds the call of %s", tag)
	}
	race := func(round string) {
		var wg sync.WaitGroup
		for g, n := range []int{1, 2, 3, 5, 8, 13, 21, 34} {
			wg.Add(1)
			go func(g, n int) {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					ingest(fmt.Sprintf("%s-g%d-r%d", round, g, r), n, int64(100+g), int64(1000*len(round)+r+1))
				}
			}(g, n)
		}
		wg.Wait()
	}
	// flush cuts an epoch and checks it against the reference sort of
	// everything stamped since the last one.
	flushed := 0
	flush := func() {
		t.Helper()
		if err := eng.drain(false); err != nil {
			t.Fatal(err)
		}
		got := epochs[len(epochs)-1]
		type item struct {
			value string
			seq   int64
		}
		var want []item
		for v, sq := range numbered {
			want = append(want, item{v, sq})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].seq < want[j].seq })
		want = want[flushed:]
		flushed += len(want)
		if got.Len() != len(want) {
			t.Fatalf("epoch holds %d items, want the %d accepted since the last cut", got.Len(), len(want))
		}
		for i, w := range want {
			if walValue(got, i) != w.value {
				t.Fatalf("item %d of the cut is %s, the per-item sort puts %s/%d there",
					i, walValue(got, i), w.value, w.seq)
			}
		}
		rng, first, last := ranges[len(ranges)-1], want[0].seq, want[len(want)-1].seq
		if len(ranges) != len(epochs) || rng.min != first || rng.max != last {
			t.Errorf("cut record [%d, %d] (%d records for %d epochs), want the first and last item's [%d, %d]",
				rng.min, rng.max, len(ranges), len(epochs), first, last)
		}
		if st := eng.stats(); st.Pending != 0 || st.Unaccounted != 0 {
			t.Errorf("after the cut: %+v, want nothing pending or unaccounted", st)
		}
	}

	start()
	ingest("early-a", 1, 66, 1)
	ingest("early-b", 7, 77, 5)
	ingest("early-c", 13, 66, 2)
	if err := eng.drain(false); err != nil || len(epochs) != 0 || eng.stats().Pending != 21 {
		t.Fatalf("drain of 21 < %d items = %v with %d epochs cut and %+v, want the floor to leave them pending",
			floor, err, len(epochs), eng.stats())
	}
	race("putback") // on top of the cut that was put back
	flush()

	ingest("late-a", 4, 66, 3)
	ingest("late-b", 9, 77, 6)
	// 13 accepted, never cut: the successor's recovered pending set. No
	// write is in flight, so a byte copy of the log is what a kill -9 would
	// leave; the successor starts over the copy.
	walCopy := copyDir(t, cfg.WALDir)
	if err := eng.close(); err != nil {
		t.Fatal(err)
	}
	cfg.WALDir = walCopy
	start()
	if st := eng.stats(); st.RecoveredItems != 13 || st.Pending != 13 {
		t.Fatalf("restart recovered %+v, want the 13 pending items", st)
	}
	epochs, ranges = nil, nil
	race("recovered") // on top of the recovered items
	flush()
	if err := eng.close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAdmitsEachBatchOnce: the engine admits a batch once, when it
// keeps it — not a replay of it, not a batch backpressure refuses — and
// logs it as it arrived; a restart admits what it recovers, the cut epoch
// and the pending items, once. The stage's Admit returns a copy with each
// record's partition one higher than walItem's 3, so every record an epoch
// holds must read 4: 3 if its admission was skipped, 5 if it was admitted
// twice or logged admitted.
func TestEngineAdmitsEachBatchOnce(t *testing.T) {
	cfg := EpochConfig{WALDir: t.TempDir(), MaxPending: 6}
	next := []string{serveNull(t)}
	batch := func(tag string, n int) core.Batch {
		var b core.Batch
		for i := 0; i < n; i++ {
			b, _ = b.Append(walItem(core.KindBlinded, fmt.Sprintf("%s-%d", tag, i)))
		}
		return b
	}
	var (
		admits  atomic.Int64
		eng     *engine
		epochs  []core.Batch
		walCopy string
	)
	stage := &recordStage{kind: core.KindBlinded, floor: 1,
		admit: func(in core.Batch) core.Batch {
			admits.Add(int64(in.Len()))
			out := slices.Clone(in.Blinded)
			for i := range out {
				out[i].Partition++
			}
			return core.Batch{Blinded: out}
		},
		onEpoch: func(in core.Batch) {
			epochs = append(epochs, in)
			if walCopy == "" {
				// The first epoch is cut and logged but not resolved: a
				// batch kept now is pending, and a byte copy of the log is
				// what a kill here would leave.
				if err := eng.ingest(1, 3, batch("c", 4)); err != nil {
					t.Error(err)
				}
				walCopy = copyDir(t, cfg.WALDir)
			}
		}}
	checkEpochs := func(sizes ...int) {
		t.Helper()
		if len(epochs) != len(sizes) {
			t.Fatalf("%d epochs processed, want %d", len(epochs), len(sizes))
		}
		for k, ep := range epochs {
			if ep.Len() != sizes[k] {
				t.Errorf("epoch %d holds %d records, want %d", k, ep.Len(), sizes[k])
			}
			for _, e := range ep.Blinded {
				if e.Partition != 4 {
					t.Errorf("epoch %d: record %s reads %d, want 4: admitted once", k, e.Blob, e.Partition)
				}
			}
		}
	}

	var err error
	if eng, err = newEngine(cfg, stage, next); err != nil {
		t.Fatal(err)
	}
	for _, call := range []struct {
		stream, pos int64
		b           core.Batch
		want        error
		admits      int64
	}{
		{1, 1, batch("a", 3), nil, 3},
		{1, 1, batch("a", 3), nil, 3},          // a replay
		{2, 1, batch("x", 4), ErrEpochFull, 3}, // over MaxPending
		{1, 2, batch("b", 2), nil, 5},
	} {
		if err := eng.ingest(call.stream, call.pos, call.b); err != call.want {
			t.Fatalf("ingest (%d, %d): %v, want %v", call.stream, call.pos, err, call.want)
		}
		if got := admits.Load(); got != call.admits {
			t.Fatalf("after ingest (%d, %d): %d records admitted, want %d", call.stream, call.pos, got, call.admits)
		}
	}
	if err := eng.drain(false); err != nil {
		t.Fatal(err)
	}
	if err := eng.close(); err != nil {
		t.Fatal(err)
	}
	checkEpochs(5, 4)
	if got := admits.Load(); got != 9 {
		t.Errorf("%d records admitted, want the 9 kept", got)
	}

	admits.Store(0)
	epochs = nil
	cfg.WALDir = walCopy
	if eng, err = newEngine(cfg, stage, next); err != nil {
		t.Fatal(err)
	}
	if st := eng.stats(); st.RecoveredEpochs != 1 || st.RecoveredItems != 9 {
		t.Fatalf("restart recovered %+v, want the cut epoch of 5 and 4 pending", st)
	}
	if got := admits.Load(); got != 9 {
		t.Errorf("the restart admitted %d records, want the 9 it recovered", got)
	}
	if err := eng.drain(false); err != nil {
		t.Fatal(err)
	}
	if err := eng.close(); err != nil {
		t.Fatal(err)
	}
	checkEpochs(5, 4)
}

// TestAdmissionHoldsNoOccupancy: a batch still in admission is not in the
// epoch, so it does not count toward the occupancy a cut is made on. Were
// it counted, a kept report arriving beside it would trigger a cut of only
// what was kept — here 3 reports under FlushAt 4 — and the next hop, holding
// those below its own FlushAt, could refuse a later push that does not fit
// beside them until the pusher's retries ran out.
func TestAdmissionHoldsNoOccupancy(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var (
		mu     sync.Mutex
		epochs []int
	)
	stage := &recordStage{kind: core.KindEnvelopes, floor: 1,
		admit: func(in core.Batch) core.Batch {
			if walValue(in, 0) == "slow-0" {
				close(entered)
				<-release
			}
			return in
		},
		onEpoch: func(in core.Batch) {
			mu.Lock()
			epochs = append(epochs, in.Len())
			mu.Unlock()
		}}
	eng, err := newEngine(EpochConfig{FlushAt: 4}, stage, []string{serveNull(t)})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(tag string, n int) core.Batch {
		var b core.Batch
		for i := 0; i < n; i++ {
			b, _ = b.Append(walItem(core.KindEnvelopes, fmt.Sprintf("%s-%d", tag, i)))
		}
		return b
	}
	if err := eng.ingest(1, 1, batch("a", 2)); err != nil {
		t.Fatal(err)
	}
	slow := make(chan error, 1)
	go func() { slow <- eng.ingest(2, 1, batch("slow", 2)) }()
	<-entered
	if err := eng.ingest(3, 1, batch("b", 1)); err != nil {
		t.Fatal(err)
	}
	if st := eng.stats(); st.Pending != 3 {
		t.Errorf("with 2 reports in admission, Pending = %d, want the 3 kept", st.Pending)
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	if err := eng.drain(false); err != nil {
		t.Fatal(err)
	}
	if err := eng.close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(epochs, []int{5}) {
		t.Errorf("epochs of %v, want one of 5, cut once the admitted batch made FlushAt", epochs)
	}
}

// copyDir copies the files of dir into a fresh temporary directory and
// returns it.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o600)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// walValue is the distinguishing value walItem gave item i.
func walValue(b core.Batch, i int) string {
	if b.Kind() == core.KindBlinded {
		return string(b.Blinded[i].Blob)
	}
	return string(b.Envelopes[i].Blob)
}

// TestDropCutRecordsWALError: a final drain releases a below-floor epoch as
// Dropped once the WAL holds its drop record. When the log cannot take the
// record the drop is not counted — a restart brings the report back, so
// counting it would count it twice — the report stays pending, and the
// failure reaches the drain's answer, Stats().LastError and Healthz.
func TestDropCutRecordsWALError(t *testing.T) {
	stage := &recordStage{kind: core.KindEnvelopes, floor: 10, onEpoch: func(core.Batch) {}}
	eng, err := newEngine(EpochConfig{WALDir: t.TempDir()}, stage, []string{serveNull(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.close()
	if err := eng.ingest(walClient, 1, walItem(core.KindEnvelopes, "below-floor")); err != nil {
		t.Fatal(err)
	}
	eng.wal.closeFiles()
	if err := eng.drain(true); err == nil {
		t.Fatal("a final drain whose drop record failed succeeded")
	}
	if st := eng.stats(); st.Dropped != 0 || st.Pending != 1 || st.Unaccounted != 0 || !strings.Contains(st.LastError, "wal failed") {
		t.Errorf("after a forced drop with the log closed: %+v; want nothing dropped, the report pending and the WAL's failure", st)
	}
	if eng.healthz().Healthy {
		t.Error("an engine whose log failed reports healthy")
	}
}

// sinkService is a downstream tier that keeps what it ingests, deduplicated
// by the push's stamp as a hop does, and refuses every push holding refuse.
type sinkService struct {
	refuse string
	dedup  forwardDedup
	mu     sync.Mutex
	got    map[string]int
}

func (s *sinkService) serveFrame(method uint8, body, dst []byte) ([]byte, error) {
	if method != methodSubmit {
		return appendWireInts(dst, 0), nil
	}
	stream, pos, b, err := parseBatchCall(body)
	if err != nil {
		return nil, err
	}
	for i := 0; i < b.Len(); i++ {
		if walValue(b, i) == s.refuse {
			return nil, fmt.Errorf("sink refuses %s", s.refuse)
		}
	}
	return appendWireInts(dst, 0), s.dedup.ingest(stream, pos, func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := 0; i < b.Len(); i++ {
			s.got[walValue(b, i)]++
		}
		return nil
	})
}

func (s *sinkService) values() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.got)
}

// TestWALFailureStopsPushes: once a WAL write fails, the engine pushes no
// epoch and counts no drop — a record that did not become durable must not
// be followed by a push, or a restart delivers or drops the same reports a
// second time — refuses submissions with the log's error and reports
// unhealthy. Then a restart over the directory delivers every report
// exactly once.
//
//   - cut: three items ingested, the log's file closed, a drain: the cut
//     record fails, so the epoch does not leave;
//   - drop: two epochs cut and queued, the log's file closed while the first
//     is processed; the downstream refuses it, its drop record fails, and
//     the second, whose cut is durable, is held too.
func TestWALFailureStopsPushes(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind core.BatchKind) {
		for _, tc := range []struct {
			name, refuse string
			values       []string
			flushAt      int
			want         map[string]int
			dropped      int64
		}{
			{"cut", "", []string{"a", "b", "c"}, 0, map[string]int{"a": 1, "b": 1, "c": 1}, 0},
			{"drop", "refused", []string{"refused", "next"}, 1, map[string]int{"next": 1}, 1},
		} {
			t.Run(tc.name, func(t *testing.T) {
				sink := &sinkService{refuse: tc.refuse, got: map[string]int{}}
				l, err := Serve("127.0.0.1:0", sink)
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				cfg := EpochConfig{WALDir: t.TempDir(), FlushAt: tc.flushAt}
				var (
					eng                *engine
					restarted          bool
					processing, closed = make(chan struct{}), make(chan struct{})
				)
				stage := &recordStage{kind: kind, floor: 1, onEpoch: func(in core.Batch) {
					if !restarted && walValue(in, 0) == tc.refuse {
						close(processing)
						<-closed
					}
				}}
				if eng, err = newEngine(cfg, stage, []string{l.Addr().String()}); err != nil {
					t.Fatal(err)
				}
				for i, v := range tc.values {
					if err := eng.ingest(walClient, int64(i+1), walItem(kind, v)); err != nil {
						t.Fatal(err)
					}
					if i == 0 && tc.refuse != "" {
						<-processing // the next ingest is an epoch of its own
					}
				}
				if tc.refuse != "" {
					untilTrue(t, "the second epoch's cut", func() bool { return eng.wal.unresolvedCount() == 2 })
				}
				eng.wal.closeFiles()
				close(closed)
				if err := eng.drain(false); err == nil {
					t.Fatal("a drain over a failed log succeeded")
				}
				st := eng.stats()
				if st.EpochsFlushed != 0 || st.Dropped != 0 || st.Pending != len(tc.values) || st.Unaccounted != 0 {
					t.Errorf("after the log failed: %+v; want nothing flushed or dropped, every report pending", st)
				}
				if got := sink.values(); len(got) != 0 {
					t.Errorf("the downstream received %v past a failed log record", got)
				}
				if err := eng.ingest(walClient, 99, walItem(kind, "late")); err == nil {
					t.Error("a submission after the log failed was accepted")
				}
				if eng.healthz().Healthy {
					t.Error("an engine whose log failed reports healthy")
				}
				eng.close()

				restarted = true
				if eng, err = newEngine(cfg, stage, []string{l.Addr().String()}); err != nil {
					t.Fatal(err)
				}
				if st := eng.stats(); st.RecoveredItems != int64(len(tc.values)) {
					t.Errorf("restart recovered %+v, want the %d reports", st, len(tc.values))
				}
				eng.drain(false) // a refused epoch fails this one
				if st := eng.stats(); st.Dropped != tc.dropped || st.Pending != 0 || st.Unaccounted != 0 {
					t.Errorf("after the restart's drain: %+v; want %d dropped and nothing pending", st, tc.dropped)
				}
				if err := eng.close(); err != nil {
					t.Fatal(err)
				}
				if got := sink.values(); !maps.Equal(got, tc.want) {
					t.Errorf("the downstream received %v, want %v", got, tc.want)
				}
			})
		}
	})
}

// dedupStreams is how many stream marks an engine's dedup holds.
func dedupStreams(e *engine) int {
	e.dedup.mu.Lock()
	defer e.dedup.mu.Unlock()
	return len(e.dedup.streams)
}

// TestDedupHoldsOneMarkPerStream: dedup state grows with sender streams,
// not submissions. Two clients submitting 1000 batches each, one at a time,
// leave two marks; one client shared by eight goroutines submits on at most
// eight streams of its own, and every batch is ingested — none is mistaken
// for a replay on a stream another call is using.
func TestDedupHoldsOneMarkPerStream(t *testing.T) {
	stage := &recordStage{kind: core.KindEnvelopes, floor: 1, onEpoch: func(core.Batch) {}}
	svc, err := NewStageService(stage, []string{serveNull(t)}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	l, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()
	for c := 0; c < 2; c++ {
		cl := dialed(t, addr)
		for i := 0; i < 1000; i++ {
			if err := cl.Submit(walItem(core.KindEnvelopes, fmt.Sprintf("c%d-%d", c, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := dedupStreams(svc.eng); n != 2 {
		t.Fatalf("dedup holds %d marks after 2000 submissions from 2 client streams, want 2", n)
	}

	shared := dialed(t, addr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := shared.Submit(walItem(core.KindEnvelopes, fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := svc.Stats(); st.Accepted != 2400 {
		t.Errorf("accepted %d batches, want all 2400", st.Accepted)
	}
	if n := dedupStreams(svc.eng); n < 3 || n > 2+8 {
		t.Errorf("dedup holds %d marks, want the 2 clients' and between 1 and 8 of the shared client's", n)
	}
}
