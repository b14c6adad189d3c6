package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// A round whose two submitters overlap: covered time is the union
		// of the children, clipped to the parent, not their sum.
		{ID: 1, Name: "round", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "submit", StartUS: 0, EndUS: 40},
		{ID: 3, Parent: 1, Name: "submit", StartUS: 10, EndUS: 60},
		{ID: 4, Parent: 1, Name: "flush", StartUS: 70, EndUS: 120}, // runs past the parent's end
		// A layer call with kernels replayed after it: their whole
		// durations are subtracted, wherever they lie.
		{ID: 5, Name: "encoder.encode", StartUS: 200, EndUS: 300},
		{ID: 6, Parent: 5, Name: "hybrid.seal", StartUS: 300, EndUS: 350, Replayed: true},
		{ID: 7, Parent: 5, Name: "elgamal.encrypt", StartUS: 350, EndUS: 380, Replayed: true},
		// A child nested in a child is charged to its own parent only.
		{ID: 8, Parent: 2, Name: "inner", StartUS: 5, EndUS: 15},
	}
	want := map[int]float64{
		1: 100 - 60 - 30, // [0,60] and [70,100] covered
		2: 40 - 10,
		3: 50,
		4: 50,
		5: 100 - 50 - 30,
		6: 50,
		7: 30,
		8: 10,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if !near(got[id], w) {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerIDs(t *testing.T) {
	var off *tracer
	if id := off.newID(); id != 0 {
		t.Errorf("nil tracer handed out ID %d", id)
	}
	tr := newTracer()
	parent := tr.newID()
	child := tr.add(span{Parent: parent, Name: "child"}, tr.epoch, tr.epoch)
	tr.add(span{ID: parent, Name: "parent"}, tr.epoch, tr.epoch)
	if child.ID == parent || child.ID == 0 || len(tr.spans) != 2 || tr.spans[1].ID != parent {
		t.Errorf("IDs: parent %d, child %d, spans %+v", parent, child.ID, tr.spans)
	}
}
