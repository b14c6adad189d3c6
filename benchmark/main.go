// Command benchmark is the repository's one benchmark for the ESA chain: it
// runs the system as deployed (cmd/prochlod daemons as child processes) and
// in-process, on four workloads, checks every round's outputs against what
// it submitted, and prints end-to-end metrics (untraced runs) and per-layer
// metrics (traced runs) by name and unit. See README.md.
//
//	benchmark                         every workload, untraced then traced
//	benchmark --workload W --seed N --seconds S --trace 0|1
//	                                  one run; last stdout line is the result JSON
//	benchmark -smoke                  every workload at a tenth of its size, seconds in all
//	benchmark compare A/ B/           two result directories, metric by metric
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Defaults of a full run; the driver passes its own --seconds.
const (
	defaultSeconds = 25
	// setups is how many times an untraced run sets the system up; setup_s
	// is their median, and the last one carries the measured rounds.
	setups = 5
)

type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    int
	Smoke    bool
	Prochlod string
	Out      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: benchmark compare A/ B/")
			os.Exit(2)
		}
		ok, err := compareDirs(os.Stdout, os.Args[2], os.Args[3])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.Workload, "workload", "", "workload to run (default: all, untraced then traced)")
	flag.Uint64Var(&o.Seed, "seed", 1, "workload seed: drives the generated labels and values only")
	flag.Float64Var(&o.Seconds, "seconds", defaultSeconds, "how long one run measures")
	flag.IntVar(&o.Trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&o.Smoke, "smoke", false, "run every workload at a tenth of its size for half a second (self-test)")
	flag.StringVar(&o.Prochlod, "prochlod", "", "path of the prebuilt cmd/prochlod binary")
	flag.StringVar(&o.Out, "out", ".bench_build/results", "directory for results.jsonl and trace-<workload>.json")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect fails the command after its results are printed: outputs were
// wrong or operations failed.
var errIncorrect = errors.New("outputs incorrect or operations failed")

func run(o options) error {
	if o.Prochlod == "" {
		return errors.New("-prochlod is required: build cmd/prochlod first (run.sh does)")
	}
	if _, err := os.Stat(o.Prochlod); err != nil {
		return fmt.Errorf("prochlod binary: %w", err)
	}
	if o.Trace != 0 && o.Trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.Trace)
	}
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(o.Out, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	env := readEnvironment(scratch, o.Prochlod)
	fmt.Printf("benchmark: %d cores (GOMAXPROCS %d), %s, %s, commit %s, load %.2f, link %s, WAL on %s\n",
		env.NProc, env.GOMAXPROCS, env.CPUModel, env.GoVersion, env.Commit, env.Load1, env.Link, env.ScratchFS)
	fmt.Printf("benchmark: prebuilt, untimed: %s\n", env.Prebuilt)

	list := workloads
	if o.Workload != "" {
		w, err := workloadByName(o.Workload)
		if err != nil {
			return err
		}
		list = []workload{w}
	}
	if o.Workload != "" && !o.Smoke {
		rec, err := runOne(o, list[0], o.Trace == 1, scratch, env)
		if err != nil {
			return err
		}
		// The driver's contract: the last line of standard output is the
		// result object, whether or not the run was correct.
		line, err := json.Marshal(rec.resultLine())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !rec.Correct {
			return errIncorrect
		}
		return nil
	}

	correct := true
	for _, w := range list {
		if o.Smoke {
			w = w.smoke()
		}
		for _, traced := range []bool{false, true} {
			rec, err := runOne(o, w, traced, scratch, env)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			correct = correct && rec.Correct
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// record is one run as written to results.jsonl.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Smoke     bool               `json:"smoke,omitempty"`
	Time      string             `json:"time"`
	Env       environment        `json:"environment"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Rounds    int                `json:"measured_rounds"`
	Samples   map[string]int     `json:"sample_counts"`
	Metrics   map[string]float64 `json:"metrics"`
	PerRound  []roundSample      `json:"rounds,omitempty"`
	// ProcessCPU is each process's user+sys microseconds per report over
	// the measured rounds; the entries sum to the run's CPU per report.
	ProcessCPU map[string]float64 `json:"cpu_us_per_report_by_process"`
	// Raw are the end-to-end figures before scaling to the nominal machine
	// speed, with the median speed they were scaled by (untraced runs).
	Raw map[string]float64 `json:"raw,omitempty"`
}

// defs are the metrics this kind of run reports.
func (r *record) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *record) resultLine() resultLine {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs() {
		out.Metrics[d.Name] = metricValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return out
}

// runOne performs one run of one workload — untraced for the end-to-end
// metrics or traced for the per-layer ones — prints its table and appends
// it to results.jsonl.
func runOne(o options, w workload, traced bool, scratch string, env environment) (*record, error) {
	seconds := o.Seconds
	if o.Smoke {
		seconds = 0.5
	}
	rec := &record{
		Workload: w.Name, Seed: o.Seed, Seconds: seconds, Traced: traced, Smoke: o.Smoke,
		Time: time.Now().UTC().Format(time.RFC3339), Env: env, Samples: map[string]int{},
	}
	cfg := liveConfig{W: w, Seed: o.Seed, Seconds: seconds, Setups: 1, Prochlod: o.Prochlod, Scratch: scratch}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s, %s, seed %d, %.3gs: %s\n", w.Name, mode, o.Seed, seconds, w.Why)
	fmt.Printf("   %s, closed loop, %d submitter(s) x %d-report batches, %d-report rounds, %d-report epochs, %d-byte payloads\n",
		w.Topology, w.Submitters, w.Batch, w.Round, w.FlushAt, payloadBytes)

	var phases []*liveResult
	var spans []span
	if !traced {
		if !o.Smoke {
			cfg.Setups = setups
		}
		live, err := runLive(cfg)
		if err != nil {
			return nil, err
		}
		phases = []*liveResult{live}
		rec.Metrics = endToEndValues(live)
		rec.Raw = live.raw()
		rec.Rounds, rec.PerRound = len(live.Rounds), live.Rounds
		rec.Samples["setup_s"] = len(live.SetupS)
		rec.Samples["reports_per_s"] = len(live.Rounds)
		rec.Samples["drain_ms_p50"] = len(live.Rounds)
	} else {
		// The traced run is self-contained: a short untraced phase to
		// measure the tracing overhead against (a fifth of the time), the
		// traced phase (two fifths), then the staged replay of the rounds
		// that would have come next (about as long again).
		base := cfg
		base.Seconds = seconds / 5
		baseRes, err := runLive(base)
		if err != nil {
			return nil, fmt.Errorf("untraced baseline phase: %w", err)
		}
		tr := newTracer()
		cfg.Seconds, cfg.Tracer = seconds*2/5, tr
		live, err := runLive(cfg)
		if err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		reps := replayReps
		if o.Smoke {
			reps = 1
		}
		replay, err := runReplay(w, o.Seed, live.NextRound, reps, live.Cached, tr)
		if err != nil {
			return nil, err
		}
		phases = []*liveResult{baseRes, live}
		rec.Metrics = perLayerValues(w, baseRes, live, replay)
		rec.Rounds, rec.PerRound = len(live.Rounds), live.Rounds
		rec.Samples["prochlo.submit_ms_p50"] = len(live.SubmitMS)
		rec.Samples["prochlo.submit_ms_p90"] = len(live.SubmitMS)
		rec.Samples["replay_repetitions"] = len(replay)
		spans = tr.spans
	}
	last := phases[len(phases)-1]
	rec.ProcessCPU = map[string]float64{}
	for role, c := range last.CPU {
		rec.ProcessCPU[role] = c.total() / float64(max(last.Reports, 1))
	}
	for _, p := range phases {
		rec.Attempted += p.Attempted
		rec.Failed += p.Failed
		rec.Problems = append(rec.Problems, p.Problems...)
	}
	rec.Correct = rec.Failed == 0
	printRecord(rec)
	if traced {
		if err := writeTrace(filepath.Join(o.Out, "trace-"+w.Name+".json"), rec, spans); err != nil {
			return nil, err
		}
	}
	return rec, appendJSONL(filepath.Join(o.Out, "results.jsonl"), rec)
}

func printRecord(rec *record) {
	fmt.Printf("   %d measured rounds; %d reports attempted, %d failed (failed_share %.6f)\n",
		rec.Rounds, rec.Attempted, rec.Failed, float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	for _, p := range rec.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	if r := rec.Raw; r != nil {
		fmt.Printf("   machine ran at %.2f (elapsed) / %.2f (CPU) of nominal speed; unscaled: setup_s %.4f, reports_per_s %.1f, cpu_us_per_report %.1f, drain_ms_p50 %.1f\n",
			r["machine_speed_wall"], r["machine_speed_cpu"], r["setup_s"], r["reports_per_s"], r["cpu_us_per_report"], r["drain_ms_p50"])
	}
	for _, d := range rec.defs() {
		note := ""
		if n, ok := rec.Samples[d.Name]; ok {
			note = fmt.Sprintf("  (%d samples)", n)
			if d.Name == "prochlo.submit_ms_p90" && !percentileEligible(n, 90) {
				note = fmt.Sprintf("  (%d samples: fewer than 10 beyond p90, indicative only)", n)
			}
		}
		fmt.Printf("   %-44s %14.4f %-6s%s\n", d.Name, rec.Metrics[d.Name], d.Unit, note)
	}
}

func appendJSONL(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the traced run's spans, the per-layer table, and each
// span name's total and self time.
func writeTrace(path string, rec *record, spans []span) error {
	type nameTotals struct {
		Name   string  `json:"name"`
		Spans  int     `json:"spans"`
		Ops    int     `json:"ops"`
		US     float64 `json:"total_us"`
		SelfUS float64 `json:"self_us"`
	}
	self := selfTimes(spans)
	byName := map[string]*nameTotals{}
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &nameTotals{Name: s.Name}
			byName[s.Name] = t
		}
		t.Spans++
		t.Ops += s.Ops
		t.US += s.dur()
		t.SelfUS += self[s.ID]
	}
	layers := make([]*nameTotals, 0, len(byName))
	for _, t := range byName {
		layers = append(layers, t)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
	fmt.Printf("   spans: %d in %s; self time by name:\n", len(spans), path)
	for _, t := range layers {
		fmt.Printf("   %-44s %14.1f us total %14.1f us self  (%d spans)\n", t.Name, t.US, t.SelfUS, t.Spans)
	}
	raw, err := json.Marshal(struct {
		*record
		Layers []*nameTotals `json:"layers"`
		Spans  []span        `json:"spans"`
	}{rec, layers, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
