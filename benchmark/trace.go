package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one round share
// its round number; Parent is the ID of the span that caused this one (0 for
// none). A replayed span is a kernel timed on its own after the layer call
// it belongs to: it lies outside its parent's interval, and its whole
// duration counts as time the parent spent in it.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent,omitempty"`
	Name     string  `json:"name"`
	Round    int     `json:"round"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
	Ops      int     `json:"ops,omitempty"`
	Allocs   uint64  `json:"allocs,omitempty"`
	Replayed bool    `json:"replayed,omitempty"`
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run skips span bookkeeping.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	lastID int
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID hands out a span ID ahead of the span itself, so that children
// recorded while it is still open can name it as their parent.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	return t.lastID
}

// add stores a finished span — one without an ID gets the next — and
// returns it as stored.
func (t *tracer) add(s span, start, end time.Time) span {
	if t == nil {
		return s
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	s.StartUS = float64(start.Sub(t.epoch).Nanoseconds()) / 1e3
	s.EndUS = float64(end.Sub(t.epoch).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// selfTimes returns each span's self time in microseconds, keyed by span
// ID: its duration minus the part of its interval that its live children
// cover (overlapping children — concurrent submitters — are not counted
// twice) minus the full duration of its replayed children.
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		self := s.dur()
		var live []span
		for _, c := range children[s.ID] {
			if c.Replayed {
				self -= c.dur()
			} else {
				live = append(live, c)
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].StartUS < live[j].StartUS })
		covered, edge := 0.0, s.StartUS
		for _, c := range live {
			lo, hi := max(c.StartUS, edge), min(c.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = self - covered
	}
	return out
}
