package main

import (
	"strings"
	"testing"
)

// balanced is a two-hop chain at a drain barrier after 100 reports of value
// "a" and 40 of value "b": crowd "b" was thresholded away, and 10 of "a"
// were dropped as threshold noise.
func balanced() (events, map[string]int, []hopLedger) {
	ev := events{Submitted: 140, PerValue: map[string]int{"a": 100, "b": 40}}
	hist := map[string]int{"a": 90}
	hops := []hopLedger{
		{Role: "shuffler1", Accepted: 140, Received: 140, Forwarded: 140, EpochsFlushed: 1},
		{Role: "shuffler2", Accepted: 140, Received: 140, Forwarded: 90, EpochsFlushed: 1},
	}
	return ev, hist, hops
}

func TestLedgerBalances(t *testing.T) {
	ev, hist, hops := balanced()
	if v := checkLedger(ev, hist, 0, hops); len(v) != 0 {
		t.Errorf("balanced ledger reported violations: %v", v)
	}
}

func TestLedgerCatchesLeaks(t *testing.T) {
	cases := []struct {
		name    string
		leak    func(ev *events, hist map[string]int, hops []hopLedger, undec *int)
		want    string
		reports int
	}{
		{"hop 2 lost reports between the hops", func(_ *events, _ map[string]int, h []hopLedger, _ *int) {
			h[1].Accepted, h[1].Received = 130, 130
		}, "shuffler2 received 130 of 140", 10},
		{"entry hop dropped an epoch", func(_ *events, _ map[string]int, h []hopLedger, _ *int) {
			h[0].Dropped, h[0].Received, h[0].Forwarded = 20, 120, 120
		}, "shuffler1 dropped 20", 20},
		{"accounting leak", func(_ *events, _ map[string]int, h []hopLedger, _ *int) {
			h[0].Unaccounted = -3
		}, "unaccounted", 3},
		{"analyzer counted a report twice", func(_ *events, hist map[string]int, _ []hopLedger, _ *int) {
			hist["a"] = 91
		}, "analyzer holds 91 records", 1},
		{"analyzer lost forwarded records", func(_ *events, hist map[string]int, _ []hopLedger, _ *int) {
			hist["a"] = 80
		}, "analyzer holds 80 records", 10},
		{"value nobody submitted", func(_ *events, hist map[string]int, h []hopLedger, _ *int) {
			hist["a"], hist["ghost"] = 85, 5
		}, "never submitted", 5},
		{"value counted more often than submitted", func(ev *events, _ map[string]int, _ []hopLedger, _ *int) {
			ev.PerValue["a"], ev.PerValue["b"] = 80, 60
		}, "submitted 80 times", 10},
		{"undecryptable at the analyzer", func(_ *events, hist map[string]int, _ []hopLedger, undec *int) {
			hist["a"], *undec = 88, 2
		}, "could not open 2", 2},
		{"failed epoch", func(_ *events, _ map[string]int, h []hopLedger, _ *int) {
			h[1].EpochsFailed = 1
		}, "failed 1 epochs", 1},
		{"reports stuck below the floor", func(_ *events, _ map[string]int, h []hopLedger, _ *int) {
			h[0].Pending = 1
		}, "pending", 1},
	}
	for _, c := range cases {
		ev, hist, hops := balanced()
		undec := 0
		c.leak(&ev, hist, hops, &undec)
		vs := checkLedger(ev, hist, undec, hops)
		found := false
		for _, v := range vs {
			if strings.Contains(v.What, c.want) {
				found = true
				if v.Reports != c.reports {
					t.Errorf("%s: %q charged %d reports, want %d", c.name, v.What, v.Reports, c.reports)
				}
			}
		}
		if !found {
			t.Errorf("%s: no violation mentioning %q in %v", c.name, c.want, vs)
		}
	}
}

func TestEventsAdd(t *testing.T) {
	var ev events
	ev.add([][]byte{[]byte("x"), []byte("y"), []byte("x")})
	ev.add([][]byte{[]byte("x")})
	if ev.Submitted != 4 || ev.PerValue["x"] != 3 || ev.PerValue["y"] != 1 {
		t.Errorf("events = %+v", ev)
	}
}
