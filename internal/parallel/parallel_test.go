package parallel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 15, 16, 17, 1000} {
			hits := make([]atomic.Int32, n)
			For(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestForSpreadsCoarseItems pins that a loop over fewer items than one
// maximal claim still reaches every worker: each item waits for the other to
// be running, so a first claim that took both would never finish.
func TestForSpreadsCoarseItems(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(2)
	done := make(chan struct{})
	go func() {
		For(2, 2, func(int) {
			wg.Done()
			wg.Wait()
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("For(2, 2) ran both items on one worker")
	}
}

func TestForSerialIsInOrder(t *testing.T) {
	var seen []int
	For(1, 5, func(i int) { seen = append(seen, i) })
	for i, v := range seen {
		if i != v {
			t.Fatalf("serial For visited %v, want in-order", seen)
		}
	}
}

// TestRangesShape pins Ranges' cut: every index once, contiguous ranges,
// one range per worker while that stays under RangeMax.
func TestRangesShape(t *testing.T) {
	for _, c := range []struct{ workers, n, ranges int }{
		{1, 250, 1}, {2, 250, 2}, {2, 5, 2}, {2, 1, 1},
		{1, 600, 3}, {2, 2000, 8}, {3, 0, 0}, {0, 7, 1},
	} {
		var mu sync.Mutex
		hits := make([]int, c.n)
		ranges := 0
		Ranges(c.workers, c.n, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			ranges++
			if hi <= lo || hi-lo > RangeMax {
				t.Errorf("%+v: range [%d, %d)", c, lo, hi)
			}
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		if ranges != c.ranges {
			t.Errorf("%+v: %d ranges", c, ranges)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("%+v: index %d visited %d times", c, i, h)
			}
		}
	}
}

func TestFirstError(t *testing.T) {
	if i, err := FirstError(nil); i != -1 || err != nil {
		t.Errorf("FirstError(nil) = %d, %v", i, err)
	}
	if i, err := FirstError([]error{nil, nil}); i != -1 || err != nil {
		t.Errorf("all-nil: %d, %v", i, err)
	}
	e1, e2 := errors.New("one"), errors.New("two")
	if i, err := FirstError([]error{nil, e1, e2}); i != 1 || err != e1 {
		t.Errorf("got %d, %v; want 1, %v", i, err, e1)
	}
}
