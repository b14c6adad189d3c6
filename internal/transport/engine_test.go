package transport

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/shuffler"
)

// recordStage is an identity stage of one kind: it shows every epoch to
// onEpoch — on the flusher, while the epoch is cut and logged but not yet
// resolved — and forwards it unchanged.
type recordStage struct {
	kind    core.BatchKind
	floor   int
	onEpoch func(in core.Batch)
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

func serveNull(t *testing.T) string {
	t.Helper()
	l, err := Serve("127.0.0.1:0", nullService{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// TestCutOrderMatchesSeqSort pins the chunk merge against the per-item sort
// it replaced. Ingest calls of mixed sizes, unstamped and stamped (each
// racer on a stream of its own, as a sender keeps one call in flight per
// stream), race each other; a below-floor cut is put back, a restart over a
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
	// ingest submits one batch of n fresh items, stamped (stream, pos);
	// stream 0 is unstamped.
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
					stream, pos := int64(0), int64(0)
					if g%2 == 1 {
						stream, pos = int64(100+g), int64(1000*len(round)+r+1)
					}
					ingest(fmt.Sprintf("%s-g%d-r%d", round, g, r), n, stream, pos)
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
	ingest("early-a", 1, 0, 0)
	ingest("early-b", 7, 77, 5)
	ingest("early-c", 13, 0, 0)
	if err := eng.drain(false); err != nil || len(epochs) != 0 || eng.stats().Pending != 21 {
		t.Fatalf("drain of 21 < %d items = %v with %d epochs cut and %+v, want the floor to leave them pending",
			floor, err, len(epochs), eng.stats())
	}
	race("putback") // on top of the cut that was put back
	flush()

	ingest("late-a", 4, 0, 0)
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
// Dropped and logs the drop in the WAL. When the log cannot take the
// record, the failure must reach Stats().LastError, as a failed cut record
// of a forwarded epoch does — an operator otherwise learns of it only when
// a restart resurrects reports the daemon already counted as lost.
func TestDropCutRecordsWALError(t *testing.T) {
	stage := &recordStage{kind: core.KindEnvelopes, floor: 10, onEpoch: func(core.Batch) {}}
	eng, err := newEngine(EpochConfig{WALDir: t.TempDir()}, stage, []string{serveNull(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.close()
	if err := eng.ingest(0, 0, walItem(core.KindEnvelopes, "below-floor")); err != nil {
		t.Fatal(err)
	}
	eng.wal.mu.Lock()
	eng.wal.f.Close()
	eng.wal.mu.Unlock()
	if err := eng.drain(true); err != nil {
		t.Fatal(err)
	}
	if st := eng.stats(); st.Dropped != 1 || !strings.Contains(st.LastError, "wal cut") {
		t.Errorf("after a forced drop with the log closed: dropped %d, last error %q; want 1 and the WAL's cut failure",
			st.Dropped, st.LastError)
	}
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
