package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmoke runs every workload end to end, untraced and traced, at a tenth
// of its size: daemons started and stopped, every round through the
// correctness gate, every metric produced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/prochlod and runs all four workloads")
	}
	dir := t.TempDir()
	prochlod := filepath.Join(dir, "prochlod")
	if out, err := exec.Command("go", "build", "-o", prochlod, "prochlo/cmd/prochlod").CombinedOutput(); err != nil {
		t.Fatalf("build prochlod: %v\n%s", err, out)
	}
	out := filepath.Join(dir, "results")
	if err := run(options{Smoke: true, Seed: 7, Prochlod: prochlod, Out: out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(out, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var rec record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		seen[rec.Workload]++
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 || rec.Rounds == 0 {
			t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d rounds=%d %v",
				rec.Workload, rec.Traced, rec.Correct, rec.Failed, rec.Attempted, rec.Rounds, rec.Problems)
		}
		if !rec.Traced {
			for _, d := range endToEnd {
				if rec.Metrics[d.Name] <= 0 {
					t.Errorf("%s: %s = %v, want > 0", rec.Workload, d.Name, rec.Metrics[d.Name])
				}
			}
			continue
		}
		// The bypass predictions hold by construction: layers off a
		// workload's path record no calls at all.
		w, _ := workloadByName(rec.Workload)
		zero := map[string]bool{
			"elgamal.encrypt_us_per_op":                 w.Topology == topoPlain,
			"shuffler.s1_epoch_us_per_report":           w.Topology == topoPlain,
			"shuffler.plain_epoch_us_per_report":        w.Topology != topoPlain,
			"core.batch_encode_ns_per_report":           w.Topology == topoInproc,
			"prochlod.analyzer_cpu_us_per_report":       w.Topology == topoInproc,
			"transport.wal_fsyncs_per_report":           !w.WAL,
			"transport.shuffler1_process_us_per_report": w.Topology != topoChain,
		}
		for name, wantZero := range zero {
			if got := rec.Metrics[name]; (got == 0) != wantZero {
				t.Errorf("%s: %s = %v, want zero: %v", rec.Workload, name, got, wantZero)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+rec.Workload+".json")); err != nil {
			t.Error(err)
		}
	}
	for _, w := range workloads {
		if seen[w.Name] != 2 {
			t.Errorf("%s: %d runs recorded, want untraced and traced", w.Name, seen[w.Name])
		}
	}
	if ok, err := compareDirs(os.Stdout, out, out); err == nil {
		t.Errorf("compare accepted smoke-size runs (ok=%v); it must only read full runs", ok)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, in step
// with the tables this package reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", file.PerLayer, perLayer)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, code has %s: %s", i, file.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the driver allows 200", w.Name, len(w.Why))
		}
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", file.RunSeconds, defaultSeconds)
	}
}

func TestRoundsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		l1, d1 := w.round(3, 5)
		l2, d2 := w.round(3, 5)
		l3, _ := w.round(4, 5)
		l4, _ := w.round(3, 6)
		if !reflect.DeepEqual(l1, l2) || !reflect.DeepEqual(d1, d2) {
			t.Errorf("%s: the same seed and round gave different reports", w.Name)
		}
		if reflect.DeepEqual(l1, l3) || reflect.DeepEqual(l1, l4) {
			t.Errorf("%s: another seed or round gave the same reports", w.Name)
		}
		if len(l1) != w.Round || len(d1[0]) != payloadBytes {
			t.Errorf("%s: %d reports of %d bytes, want %d of %d", w.Name, len(l1), len(d1[0]), w.Round, payloadBytes)
		}
		distinct := map[string]bool{}
		for _, l := range l1 {
			distinct[l] = true
		}
		if w.Crowds > 0 && len(distinct) != w.Crowds {
			t.Errorf("%s: %d distinct crowds in a round, want %d", w.Name, len(distinct), w.Crowds)
		}
		if w.Crowds == 0 && len(distinct) < 300 {
			t.Errorf("%s: only %d distinct crowds in a long-tailed round", w.Name, len(distinct))
		}
	}
}

func TestCacheSim(t *testing.T) {
	c := newCacheSim(2)
	if hits := c.see([]string{"a", "b", "c", "a", "c", "b"}); hits != 2 {
		t.Errorf("hits = %d, want 2: a and b are held, c came after the cache filled", hits)
	}
	if len(c.heldLabels()) != 2 {
		t.Errorf("held %v, want two labels", c.heldLabels())
	}
}
