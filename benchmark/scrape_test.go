package main

import (
	"strings"
	"testing"
)

const cannedExposition = `# HELP prochlo_reports_accepted_total Reports accepted into an epoch (acked to the submitter).
# TYPE prochlo_reports_accepted_total counter
prochlo_reports_accepted_total{role="shuffler1"} 42000
# TYPE prochlo_reports_rejected_total counter
prochlo_reports_rejected_total{role="shuffler1"} 250
# TYPE prochlo_stage_process_seconds histogram
prochlo_stage_process_seconds_bucket{role="shuffler1",le="0.005"} 0
prochlo_stage_process_seconds_bucket{role="shuffler1",le="+Inf"} 21
prochlo_stage_process_seconds_sum{role="shuffler1"} 9.625
prochlo_stage_process_seconds_count{role="shuffler1"} 21
# TYPE prochlo_wal_fsync_seconds histogram
prochlo_wal_fsync_seconds_sum{role="shuffler",path="a b}c"} 1.5e-03
prochlo_wal_fsync_seconds_sum{role="shuffler",path="other"} 0.5e-03
prochlo_wal_fsync_seconds_count{role="shuffler"} 4
go_goroutines 17

`

func TestParseExposition(t *testing.T) {
	got, err := parseExposition(strings.NewReader(cannedExposition))
	if err != nil {
		t.Fatal(err)
	}
	want := samples{
		seriesAccepted:                        42000,
		seriesRejected:                        250,
		seriesProcessSum:                      9.625,
		"prochlo_stage_process_seconds_count": 21,
		seriesWALFsyncSum:                     0.002, // two label sets of one series sum
		seriesWALFsyncs:                       4,
		"go_goroutines":                       17,
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d series, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	later := samples{seriesAccepted: 48000, seriesEpochs: 3}
	d := later.sub(got)
	if d[seriesAccepted] != 6000 || d[seriesEpochs] != 3 {
		t.Errorf("delta = %v, want accepted 6000 and epochs 3 (absent before counts as 0)", d)
	}
	for _, bad := range []string{"name_without_value\n", "series{a=\"b\" 1\n", "series 1x\n"} {
		if _, err := parseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("parseExposition(%q) accepted malformed input", bad)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	raw := "4242 (pro) chlod (x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 56 0 0 20 0 9 0 100 200 300\n"
	got, err := parseProcStat([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.User != 12_340_000 || got.Sys != 560_000 {
		t.Errorf("parseProcStat = %+v, want utime 1234 ticks = 12.34 s, stime 56 ticks = 0.56 s", got)
	}
	if _, err := parseProcStat([]byte("garbage")); err == nil {
		t.Error("parseProcStat accepted a line without a command field")
	}
}
