package main

import "fmt"

// violation is one disagreement between the event view (what the generator
// submitted) and the state view (the hops' ledgers and the analyzer's
// histogram), with the number of reports it leaves unexplained.
type violation struct {
	What    string
	Reports int
}

func (v violation) String() string { return fmt.Sprintf("%s (%d reports)", v.What, v.Reports) }

// events is the generator's running account of what it submitted: totals
// since set-up, successful submissions only.
type events struct {
	Submitted int
	PerValue  map[string]int
}

func (e *events) add(data [][]byte) {
	if e.PerValue == nil {
		e.PerValue = make(map[string]int)
	}
	e.Submitted += len(data)
	for _, d := range data {
		e.PerValue[string(d)]++
	}
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// checkLedger is the correctness gate run at every drain barrier, on totals
// since set-up. hops are in chain order; the last one thresholds. At a
// barrier every submitted report must have been received by the thresholding
// hop; what it did not forward must be exactly what the histogram lacks; the
// analyzer must hold what was forwarded; no hop may have dropped, lost or
// failed anything; and the histogram may only hold submitted values, none
// more often than submitted.
func checkLedger(ev events, hist map[string]int, analyzerUndecryptable int, hops []hopLedger) []violation {
	var out []violation
	fail := func(n int, format string, args ...any) {
		out = append(out, violation{What: fmt.Sprintf(format, args...), Reports: max(n, 1)})
	}
	if len(hops) == 0 {
		fail(ev.Submitted, "no hop ledger")
		return out
	}
	counted := 0
	for _, c := range hist {
		counted += c
	}
	last := hops[len(hops)-1]
	if last.Received != ev.Submitted {
		fail(absDiff(last.Received, ev.Submitted), "%s received %d of %d submitted", last.Role, last.Received, ev.Submitted)
	}
	if last.Received-last.Forwarded != ev.Submitted-counted {
		fail(absDiff(last.Received-last.Forwarded, ev.Submitted-counted),
			"%s withheld %d reports but the histogram lacks %d", last.Role, last.Received-last.Forwarded, ev.Submitted-counted)
	}
	if counted+analyzerUndecryptable != last.Forwarded {
		fail(absDiff(counted+analyzerUndecryptable, last.Forwarded),
			"analyzer holds %d records (%d undecryptable) but %s forwarded %d", counted+analyzerUndecryptable, analyzerUndecryptable, last.Role, last.Forwarded)
	}
	if analyzerUndecryptable != 0 {
		fail(analyzerUndecryptable, "analyzer could not open %d records", analyzerUndecryptable)
	}
	for i, h := range hops {
		if int(h.Accepted) != ev.Submitted {
			fail(absDiff(int(h.Accepted), ev.Submitted), "%s accepted %d of %d submitted", h.Role, h.Accepted, ev.Submitted)
		}
		if h.Dropped != 0 {
			fail(int(h.Dropped), "%s dropped %d", h.Role, h.Dropped)
		}
		if h.Unaccounted != 0 {
			fail(absDiff(int(h.Unaccounted), 0), "%s has %d unaccounted", h.Role, h.Unaccounted)
		}
		if h.Pending != 0 {
			fail(h.Pending, "%s still holds %d pending after the drain", h.Role, h.Pending)
		}
		if h.EpochsFailed != 0 {
			fail(h.EpochsFailed, "%s failed %d epochs", h.Role, h.EpochsFailed)
		}
		if h.Undecryptable != 0 {
			fail(h.Undecryptable, "%s could not open %d envelopes", h.Role, h.Undecryptable)
		}
		if i < len(hops)-1 && h.Forwarded != h.Received {
			fail(absDiff(h.Forwarded, h.Received), "%s forwarded %d of %d received", h.Role, h.Forwarded, h.Received)
		}
	}
	for v, c := range hist {
		switch sub, ok := ev.PerValue[v]; {
		case !ok:
			fail(c, "histogram counts %d of a value never submitted (%.16q...)", c, v)
		case c > sub:
			fail(c-sub, "histogram counts %d of a value submitted %d times (%.16q...)", c, sub, v)
		}
	}
	return out
}
