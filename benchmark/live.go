package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// clientRole names the benchmark's own process in per-process tables; the
// daemons go by their prochlod role.
const clientRole = "client"

// liveConfig is one live phase: set up Setups times (a one-epoch warm-up
// round each), then run measured rounds on the last set-up for Seconds.
type liveConfig struct {
	W        workload
	Seed     uint64
	Seconds  float64
	Setups   int
	Tracer   *tracer // non-nil: a traced phase — spans recorded, daemons serve /metrics and are scraped at round boundaries
	Prochlod string  // path of the prochlod binary
	Scratch  string  // directory for WALs and key files
}

// roundSample is what one measured round yields: raw measurements, and the
// machine speed they are scaled by (see speed.go).
type roundSample struct {
	Round     int     `json:"round"`
	Reports   int     `json:"reports"`
	WallS     float64 `json:"wall_s"`   // first SubmitBatch -> Flush returned
	DrainMS   float64 `json:"drain_ms"` // last ack -> Flush returned
	CPUUS     float64 `json:"cpu_us"`   // all processes, user+sys
	SpeedWall float64 `json:"speed_wall"`
	SpeedCPU  float64 `json:"speed_cpu"`
}

// liveResult is everything a live phase measured. Times are scaled to the
// nominal machine speed unless named raw.
type liveResult struct {
	SetupS    []float64
	RawSetupS []float64
	Rounds    []roundSample
	SubmitMS  []float64 // one per SubmitBatch call in measured rounds
	Attempted int       // reports handed to SubmitBatch, warm-ups included
	Failed    int       // reports in failed calls or unexplained by the ledger
	Problems  []string

	Reports   int                // reports in measured rounds
	CPU       map[string]cpuTime // per process, summed over measured rounds
	PeakRSSMB map[string]float64 // per process, after rssRounds measured rounds
	TxBytes   float64            // client write-syscall bytes over measured rounds
	Scrape    map[string]samples // per daemon role, summed over measured rounds
	NextRound int                // first input round this phase did not use
	CacheHits int                // measured-round labels a hashCacheCap first-come cache held
	Cached    []string           // that cache's content at the end of the phase
}

// perRound returns the median over rounds of pick.
func (r *liveResult) perRound(pick func(roundSample) float64) float64 {
	v := make([]float64, len(r.Rounds))
	for i, s := range r.Rounds {
		v[i] = pick(s)
	}
	return median(v)
}

func (r *liveResult) reportsPerS() float64 {
	return r.perRound(func(s roundSample) float64 { return float64(s.Reports) / s.WallS / s.SpeedWall })
}

func (r *liveResult) drainMS() float64 {
	return r.perRound(func(s roundSample) float64 { return s.DrainMS * s.SpeedWall })
}

func (r *liveResult) cpuUSPerReport() float64 {
	var total float64
	for _, c := range r.CPU {
		total += c.total()
	}
	return total / float64(max(r.Reports, 1))
}

func (r *liveResult) peakRSSMB() float64 {
	var total float64
	for _, mb := range r.PeakRSSMB {
		total += mb
	}
	return total
}

// raw returns the unscaled counterparts of the scaled end-to-end figures,
// and the median machine speeds they were scaled by.
func (r *liveResult) raw() map[string]float64 {
	var cpu float64
	for _, s := range r.Rounds {
		cpu += s.CPUUS
	}
	return map[string]float64{
		"setup_s":            median(r.RawSetupS),
		"reports_per_s":      r.perRound(func(s roundSample) float64 { return float64(s.Reports) / s.WallS }),
		"cpu_us_per_report":  cpu / float64(max(r.Reports, 1)),
		"drain_ms_p50":       r.perRound(func(s roundSample) float64 { return s.DrainMS }),
		"machine_speed_wall": r.perRound(func(s roundSample) float64 { return s.SpeedWall }),
		"machine_speed_cpu":  r.perRound(func(s roundSample) float64 { return s.SpeedCPU }),
	}
}

func (r *liveResult) fail(reports int, format string, args ...any) {
	r.Failed += reports
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runLive runs one live phase. An error means the phase could not run at
// all; submissions that fail and ledgers that do not balance are counted in
// the result instead, so the caller can report them against what was
// attempted.
func runLive(cfg liveConfig) (*liveResult, error) {
	res := &liveResult{CPU: map[string]cpuTime{}, PeakRSSMB: map[string]float64{}, Scrape: map[string]samples{}}
	// The warm-up round is one epoch of round 0: enough to take every hop
	// through a full epoch (connections, tables, caches, arenas) without
	// spending a whole round of every set-up on it.
	warmLabels, warmData := cfg.W.round(cfg.Seed, 0)
	warmLabels, warmData = warmLabels[:cfg.W.FlushAt], warmData[:cfg.W.FlushAt]
	cache := newCacheSim(hashCacheCap)

	// ref is the latest reference-kernel sample; every timed interval is
	// bracketed by one before and one after. The first sample of a process
	// pays for key set-up and cold caches, so it is taken twice.
	if _, err := sampleRef(); err != nil {
		return nil, err
	}
	ref, err := sampleRef()
	if err != nil {
		return nil, err
	}
	var sys system
	var ev events
	for k := 0; k < cfg.Setups; k++ {
		if sys != nil {
			if err := sys.Close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", k, err)
			}
		}
		start := time.Now()
		dir := filepath.Join(cfg.Scratch, fmt.Sprintf("setup-%d-%d", os.Getpid(), k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if sys, err = setUp(cfg, dir); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		defer sys.Close()
		ev = events{}
		if _, _, err := runRound(cfg, sys, res, &ev, 0, warmLabels, warmData); err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
		raw := time.Since(start).Seconds()
		after, err := sampleRef()
		if err != nil {
			return nil, err
		}
		res.RawSetupS = append(res.RawSetupS, raw)
		res.SetupS = append(res.SetupS, raw*speedBetween(ref, after).Wall)
		ref = after
	}
	cache.see(warmLabels)

	procs := map[string]int{clientRole: os.Getpid()}
	for _, d := range sys.Daemons() {
		procs[d.Role] = d.Pid
	}
	measureStart := time.Now()
	round := 1
	for ; round == 1 || time.Since(measureStart).Seconds() < cfg.Seconds; round++ {
		labels, data := cfg.W.round(cfg.Seed, round)
		res.CacheHits += cache.see(labels)
		before, err := snapshot(cfg, sys, procs)
		if err != nil {
			return nil, err
		}
		sample, submitMS, err := runRound(cfg, sys, res, &ev, round, labels, data)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		after, err := snapshot(cfg, sys, procs)
		if err != nil {
			return nil, err
		}
		refAfter, err := sampleRef()
		if err != nil {
			return nil, err
		}
		res.addRound(sample, submitMS, before, after, speedBetween(ref, refAfter))
		ref = refAfter
		if len(res.Rounds) == rssRounds {
			if err := res.readPeakRSS(procs); err != nil {
				return nil, err
			}
		}
	}
	res.NextRound = round
	res.Cached = cache.heldLabels()
	if len(res.Rounds) < rssRounds {
		if err := res.readPeakRSS(procs); err != nil {
			return nil, err
		}
	}
	if err := sys.Close(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	return res, nil
}

// addRound books one measured round: what the processes burned between the
// two snapshots and what the round itself timed, scaled by the machine speed
// over the round.
func (r *liveResult) addRound(sample roundSample, submitMS []float64, before, after procSnapshot, sp speed) {
	sample.SpeedWall, sample.SpeedCPU = sp.Wall, sp.CPU
	for role, c := range after.cpu {
		d := c.sub(before.cpu[role])
		sample.CPUUS += d.total()
		r.CPU[role] = r.CPU[role].plus(d.scaled(sp.CPU))
	}
	for role, s := range after.scrape {
		if r.Scrape[role] == nil {
			r.Scrape[role] = samples{}
		}
		r.Scrape[role].addScaled(s.sub(before.scrape[role]), sp.Wall)
	}
	for _, ms := range submitMS {
		r.SubmitMS = append(r.SubmitMS, ms*sp.Wall)
	}
	r.TxBytes += after.tx - before.tx
	r.Reports += sample.Reports
	r.Rounds = append(r.Rounds, sample)
}

// rssRounds is the measured round after which peak memory is read. How many
// rounds fit into the measured time depends on how fast the machine is, and
// the daemons' memory grows with the epochs they have seen, so memory is
// compared after a fixed amount of work (or at the end of a run that was too
// short to get there).
const rssRounds = 10

func (r *liveResult) readPeakRSS(procs map[string]int) error {
	for role, pid := range procs {
		mb, err := peakRSSMB(pid)
		if err != nil {
			return fmt.Errorf("peak RSS of %s: %w", role, err)
		}
		r.PeakRSSMB[role] = mb
	}
	return nil
}

func setUp(cfg liveConfig, dir string) (system, error) {
	if cfg.W.Topology == topoInproc {
		return newInprocSystem()
	}
	return newRemoteSystem(cfg.Prochlod, cfg.W, cfg.Tracer != nil, dir)
}

// procSnapshot is the outside view of every process at a round boundary.
type procSnapshot struct {
	cpu    map[string]cpuTime
	scrape map[string]samples
	tx     float64
}

func snapshot(cfg liveConfig, sys system, procs map[string]int) (procSnapshot, error) {
	snap := procSnapshot{cpu: make(map[string]cpuTime, len(procs)), scrape: map[string]samples{}}
	for role, pid := range procs {
		var c cpuTime
		var err error
		if role == clientRole {
			c, err = selfCPU()
		} else {
			c, err = procCPU(pid)
		}
		if err != nil {
			return snap, fmt.Errorf("CPU time of %s: %w", role, err)
		}
		snap.cpu[role] = c
	}
	if cfg.Tracer == nil {
		return snap, nil
	}
	// wchar needs no privilege for one's own process, but a sandbox may
	// hide /proc/self/io; the client's byte count is then reported as 0.
	snap.tx, _ = selfWriteBytes()
	for _, d := range sys.Daemons() {
		s, err := scrape(d.MetricsURL)
		if err != nil {
			return snap, fmt.Errorf("scrape %s: %w", d.Role, err)
		}
		snap.scrape[d.Role] = s
	}
	return snap, nil
}

// runRound submits one round's reports in client batches from the workload's
// submitters, closed loop, then drains, and checks the drained state against
// everything submitted since set-up. Failed submissions and ledger
// violations are booked on res; only a failed drain or ledger read is an
// error, because nothing can be checked after it.
func runRound(cfg liveConfig, sys system, res *liveResult, ev *events, round int,
	labels []string, data [][]byte) (sample roundSample, submitMS []float64, err error) {
	w := cfg.W
	batches := (len(labels) + w.Batch - 1) / w.Batch
	roundID := cfg.Tracer.newID()
	var (
		next     atomic.Int64
		mu       sync.Mutex // guards what submitters share: res, submitMS
		wg       sync.WaitGroup
		accepted = make([]bool, batches)
	)
	start := time.Now()
	for i := 0; i < w.Submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			for {
				b := int(next.Add(1)) - 1
				if b >= batches {
					break
				}
				lo, hi := b*w.Batch, min((b+1)*w.Batch, len(labels))
				t0 := time.Now()
				err := sys.Submit(i, labels[lo:hi], data[lo:hi])
				t1 := time.Now()
				lat = append(lat, t1.Sub(t0).Seconds()*1e3)
				cfg.Tracer.add(span{Parent: roundID, Name: "prochlo.submit_batch", Round: round, Ops: hi - lo}, t0, t1)
				if err != nil {
					mu.Lock()
					res.fail(hi-lo, "round %d: SubmitBatch of %d reports: %v", round, hi-lo, err)
					mu.Unlock()
					continue
				}
				accepted[b] = true
			}
			mu.Lock()
			submitMS = append(submitMS, lat...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	acked := time.Now()
	hist, undec, err := sys.Flush()
	end := time.Now()
	cfg.Tracer.add(span{Parent: roundID, Name: "prochlo.flush", Round: round}, acked, end)
	cfg.Tracer.add(span{ID: roundID, Name: "round", Round: round, Ops: len(labels)}, start, end)
	res.Attempted += len(labels)
	if err != nil {
		return roundSample{}, nil, fmt.Errorf("Flush: %w", err)
	}
	for b, ok := range accepted {
		if ok {
			ev.add(data[b*w.Batch : min((b+1)*w.Batch, len(data))])
		}
	}
	hops, err := sys.Ledger()
	if err != nil {
		return roundSample{}, nil, fmt.Errorf("hop ledgers: %w", err)
	}
	for _, v := range checkLedger(*ev, hist, undec, hops) {
		res.fail(v.Reports, "round %d: %s", round, v)
	}
	return roundSample{
		Round:   round,
		Reports: len(labels),
		WallS:   end.Sub(start).Seconds(),
		DrainMS: end.Sub(acked).Seconds() * 1e3,
	}, submitMS, nil
}

// cacheSim models the encoder's hash-to-point cache from outside: the first
// limit distinct labels are kept for good, later ones never are. It is exact
// for a single submitter; with several, each client has its own cache and
// this is the view of one that saw every label.
type cacheSim struct {
	limit int
	held  map[string]struct{}
}

func newCacheSim(limit int) *cacheSim {
	return &cacheSim{limit: limit, held: make(map[string]struct{})}
}

// see feeds labels through the cache and returns how many were hits.
func (c *cacheSim) see(labels []string) (hits int) {
	for _, l := range labels {
		if _, ok := c.held[l]; ok {
			hits++
		} else if len(c.held) < c.limit {
			c.held[l] = struct{}{}
		}
	}
	return hits
}

// heldLabels lists what the cache holds; the replay pre-warms its own
// caches with them.
func (c *cacheSim) heldLabels() []string {
	out := make([]string, 0, len(c.held))
	for l := range c.held {
		out = append(out, l)
	}
	return out
}
