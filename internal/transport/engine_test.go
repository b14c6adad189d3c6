package transport

import (
	"fmt"
	"sort"
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

type nullSink struct{}

func (nullSink) push(stream, epoch int64, out core.Batch) error { return nil }
func (nullSink) close() error                                   { return nil }

// TestCutOrderMatchesSeqSort pins the chunk merge against the per-item sort
// it replaced. Ingest calls of mixed sizes, unstamped and stamped, race each
// other; a below-floor cut is put back, a crash turns it into
// WAL-recovered pending items, and more calls race on top. Whatever the
// shard count, the epoch the stage then sees must be exactly the accepted
// items sorted by the sequence number each was stamped with, and the cut
// record in the log must be the first and last item's.
func TestCutOrderMatchesSeqSort(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			forEachKind(t, func(t *testing.T, kind core.BatchKind) { testCutOrder(t, kind, shards) })
		})
	}
}

func testCutOrder(t *testing.T, kind core.BatchKind, shards int) {
	const floor = 30
	cfg := EpochConfig{Shards: shards, WALDir: t.TempDir()}

	// stamped is value -> the sequence number the engine gave it, read back
	// from the submitted batch once the ingest call returned.
	var (
		mu      sync.Mutex
		stamped = map[string]int64{}
		eng     *engine
		epochs  []core.Batch
		ranges  []walRange
	)
	stage := &recordStage{kind: kind, floor: floor, onEpoch: func(in core.Batch) {
		epochs = append(epochs, in)
		eng.wal.mu.Lock()
		defer eng.wal.mu.Unlock()
		for _, rng := range eng.wal.unresolved { // the flusher is FIFO: at most this epoch
			ranges = append(ranges, rng)
		}
	}}
	start := func() {
		t.Helper()
		var err error
		if eng, err = newEngine(cfg, stage, nullSink{}, newAborter()); err != nil {
			t.Fatal(err)
		}
	}
	// ingest submits one batch of n fresh items, stamped (77, fwd) when fwd
	// is nonzero.
	ingest := func(tag string, n int, fwd int64) {
		var b core.Batch
		for i := 0; i < n; i++ {
			b, _ = b.Append(walItem(kind, 0, fmt.Sprintf("%s-%d", tag, i)))
		}
		stream := int64(0)
		if fwd != 0 {
			stream = 77
		}
		if err := eng.ingest(stream, fwd, b); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < n; i++ {
			stamped[walValue(b, i)] = b.Seq(i)
		}
	}
	race := func(round string) {
		var wg sync.WaitGroup
		for g, n := range []int{1, 2, 3, 5, 8, 13, 21, 34} {
			wg.Add(1)
			go func(g, n int) {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					fwd := int64(0)
					if g%2 == 1 {
						fwd = int64(1000*len(round) + 10*g + r + 1)
					}
					ingest(fmt.Sprintf("%s-g%d-r%d", round, g, r), n, fwd)
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
		for v, sq := range stamped {
			want = append(want, item{v, sq})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].seq < want[j].seq })
		want = want[flushed:]
		flushed += len(want)
		if got.Len() != len(want) {
			t.Fatalf("epoch holds %d items, want the %d accepted since the last cut", got.Len(), len(want))
		}
		for i, w := range want {
			if walValue(got, i) != w.value || got.Seq(i) != w.seq {
				t.Fatalf("item %d of the cut is %s/%d, the per-item sort puts %s/%d there",
					i, walValue(got, i), got.Seq(i), w.value, w.seq)
			}
		}
		rng := ranges[len(ranges)-1]
		if len(ranges) != len(epochs) || rng.min != got.Seq(0) || rng.max != got.Seq(got.Len()-1) {
			t.Errorf("cut record [%d, %d] (%d records for %d epochs), want the first and last item's [%d, %d]",
				rng.min, rng.max, len(ranges), len(epochs), got.Seq(0), got.Seq(got.Len()-1))
		}
		if st := eng.stats(); st.Pending != 0 || st.Unaccounted != 0 {
			t.Errorf("after the cut: %+v, want nothing pending or unaccounted", st)
		}
	}

	start()
	ingest("early-a", 1, 0)
	ingest("early-b", 7, 5)
	ingest("early-c", 13, 0)
	if err := eng.drain(false); err != nil || len(epochs) != 0 || eng.stats().Pending != 21 {
		t.Fatalf("drain of 21 < %d items = %v with %d epochs cut and %+v, want the floor to leave them pending",
			floor, err, len(epochs), eng.stats())
	}
	race("putback") // on top of the cut that was put back
	flush()

	ingest("late-a", 4, 0)
	ingest("late-b", 9, 6)
	eng.abort() // 13 accepted, never cut: the successor's recovered pending set
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

// walValue is the distinguishing value walItem gave item i.
func walValue(b core.Batch, i int) string {
	if b.Kind() == core.KindBlinded {
		return string(b.Blinded[i].Blob)
	}
	return string(b.Envelopes[i].Blob)
}
