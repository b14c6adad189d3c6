package transport

import (
	"sync"
	"time"
)

// aborter lets a simulated crash (StageService.Abort) cut through the
// sender's retry sleeps and the engine's blocking hand-offs: everything that
// waits selects against the channel, so an abort stops the world in
// milliseconds instead of after a retry budget drains.
type aborter struct {
	once sync.Once
	ch   chan struct{}
}

func newAborter() *aborter { return &aborter{ch: make(chan struct{})} }

func (a *aborter) abort() { a.once.Do(func() { close(a.ch) }) }

func (a *aborter) aborted() bool {
	select {
	case <-a.ch:
		return true
	default:
		return false
	}
}

// sleep waits d, returning false if the abort fired first. A nil aborter —
// a client's connection — never fires.
func (a *aborter) sleep(d time.Duration) bool {
	var abort <-chan struct{}
	if a != nil {
		abort = a.ch
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-abort:
		return false
	}
}
