package main

// metricDef names one reported number. BENCHMARK.json at the repository root
// repeats these tables for the driver; a self-test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the figures a user of the system sees, measured on untraced
// runs only; timed ones are scaled to the nominal machine speed (speed.go).
// Each bound is about three times the widest run-to-run spread (interquartile
// range over median, ten runs) seen on any workload where this was built, a
// 2-vCPU VM with noisy neighbours; the measured spreads are recorded in
// README.md. Tighten the bounds on a quieter machine. failed_share is reported beside them but is not listed here:
// it is expected to be exactly 0, and a bound that is a share of 0 means
// nothing, so it travels as the result line's failed/attempted counts and
// any increase at all is a failure.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "reports_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_report", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "drain_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// perLayer are single layers' figures from the traced run. A layer that is
// not on a workload's path reports 0: no calls, no cost.
var perLayer = []metricDef{
	// By process, from /proc and getrusage at round boundaries.
	{Name: "prochlo.client_cpu_us_per_report", Unit: "us", Better: "lower"},
	{Name: "prochlo.client_sys_us_per_report", Unit: "us", Better: "lower"},
	{Name: "prochlo.client_tx_bytes_per_report", Unit: "B", Better: "lower"},
	{Name: "prochlo.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "prochlo.submit_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "prochlod.shuffler1_cpu_us_per_report", Unit: "us", Better: "lower"},
	{Name: "prochlod.shuffler2_cpu_us_per_report", Unit: "us", Better: "lower"},
	{Name: "prochlod.shuffler_cpu_us_per_report", Unit: "us", Better: "lower"},
	{Name: "prochlod.shuffler_sys_us_per_report", Unit: "us", Better: "lower"},
	{Name: "prochlod.analyzer_cpu_us_per_report", Unit: "us", Better: "lower"},
	{Name: "prochlod.shuffler1_peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "prochlod.shuffler2_peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "prochlod.shuffler_peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "prochlod.analyzer_peak_rss_mb", Unit: "MiB", Better: "lower"},
	// transport, from the daemons' /metrics (deltas over measured rounds).
	{Name: "transport.shuffler1_process_us_per_report", Unit: "us", Better: "lower"},
	{Name: "transport.shuffler1_push_us_per_report", Unit: "us", Better: "lower"},
	{Name: "transport.shuffler2_process_us_per_report", Unit: "us", Better: "lower"},
	{Name: "transport.shuffler2_push_us_per_report", Unit: "us", Better: "lower"},
	{Name: "transport.shuffler_process_us_per_report", Unit: "us", Better: "lower"},
	{Name: "transport.shuffler_push_us_per_report", Unit: "us", Better: "lower"},
	{Name: "transport.reject_ratio", Unit: "ratio", Better: "lower"},
	{Name: "transport.epochs_flushed", Unit: "count", Better: "higher"},
	{Name: "transport.wal_fsyncs_per_report", Unit: "count", Better: "lower"},
	{Name: "transport.wal_fsync_us_mean", Unit: "us", Better: "lower"},
	{Name: "transport.wal_fsync_us_per_report", Unit: "us", Better: "lower"},
	// Staged replay: the cost ledger.
	{Name: "encoder.encode_us_per_report", Unit: "us", Better: "lower"},
	{Name: "encoder.allocs_per_report", Unit: "count", Better: "lower"},
	{Name: "hybrid.seal_us_per_op", Unit: "us", Better: "lower"},
	{Name: "hybrid.open_us_per_op", Unit: "us", Better: "lower"},
	{Name: "elgamal.encrypt_us_per_op", Unit: "us", Better: "lower"},
	{Name: "elgamal.blind_us_per_op", Unit: "us", Better: "lower"},
	{Name: "elgamal.pseudonym_us_per_op", Unit: "us", Better: "lower"},
	{Name: "elgamal.hash_to_point_us_per_op", Unit: "us", Better: "lower"},
	{Name: "elgamal.hash_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "group.mul_us_per_op", Unit: "us", Better: "lower"},
	{Name: "group.decode_us_per_op", Unit: "us", Better: "lower"},
	{Name: "group.encode_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.batch_encode_ns_per_report", Unit: "ns", Better: "lower"},
	{Name: "core.batch_decode_ns_per_report", Unit: "ns", Better: "lower"},
	{Name: "core.wire_bytes_per_report", Unit: "B", Better: "lower"},
	{Name: "shuffler.s1_epoch_us_per_report", Unit: "us", Better: "lower"},
	{Name: "shuffler.s2_epoch_us_per_report", Unit: "us", Better: "lower"},
	{Name: "shuffler.plain_epoch_us_per_report", Unit: "us", Better: "lower"},
	{Name: "shuffler.s1_allocs_per_report", Unit: "count", Better: "lower"},
	{Name: "shuffler.s2_allocs_per_report", Unit: "count", Better: "lower"},
	{Name: "shuffler.forwarded_share", Unit: "ratio", Better: "higher"},
	{Name: "analyzer.open_us_per_record", Unit: "us", Better: "lower"},
	{Name: "analyzer.histogram_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "analyzer.allocs_per_record", Unit: "count", Better: "lower"},
	// Derived.
	{Name: "ledger.crypto_us_per_report", Unit: "us", Better: "lower"},
	{Name: "ledger.transport_us_per_report", Unit: "us", Better: "lower"},
	{Name: "ledger.coverage", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// endToEndValues turns an untraced live phase into the end-to-end figures.
func endToEndValues(r *liveResult) map[string]float64 {
	return map[string]float64{
		"setup_s":           median(r.SetupS),
		"reports_per_s":     r.reportsPerS(),
		"cpu_us_per_report": r.cpuUSPerReport(),
		"drain_ms_p50":      r.drainMS(),
		"peak_rss_mb":       r.peakRSSMB(),
	}
}

// perLayerValues assembles the traced run's figures: base is the short
// untraced phase the overhead is measured against, live the traced phase,
// reps the staged replay.
func perLayerValues(w workload, base, live *liveResult, reps []replayRep) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	n := float64(max(live.Reports, 1))

	client := live.CPU[clientRole]
	m["prochlo.client_cpu_us_per_report"] = client.total() / n
	m["prochlo.client_sys_us_per_report"] = client.Sys / n
	m["prochlo.client_tx_bytes_per_report"] = live.TxBytes / n
	m["prochlo.submit_ms_p50"] = median(live.SubmitMS)
	m["prochlo.submit_ms_p90"] = percentile(live.SubmitMS, 90)
	for _, role := range []string{"shuffler1", "shuffler2", "shuffler", "analyzer"} {
		m["prochlod."+role+"_cpu_us_per_report"] = live.CPU[role].total() / n
		m["prochlod."+role+"_peak_rss_mb"] = live.PeakRSSMB[role]
	}
	m["prochlod.shuffler_sys_us_per_report"] = live.CPU["shuffler"].Sys / n

	var accepted, rejected, fsyncs, fsyncS float64
	for _, role := range []string{"shuffler1", "shuffler2", "shuffler"} {
		s := live.Scrape[role]
		m["transport."+role+"_process_us_per_report"] = s[seriesProcessSum] * 1e6 / n
		m["transport."+role+"_push_us_per_report"] = s[seriesPushSum] * 1e6 / n
		accepted += s[seriesAccepted]
		rejected += s[seriesRejected]
		fsyncs += s[seriesWALFsyncs]
		fsyncS += s[seriesWALFsyncSum]
	}
	if accepted+rejected > 0 {
		m["transport.reject_ratio"] = rejected / (accepted + rejected)
	}
	// The entry hop's epochs: the first shuffler role that ran.
	for _, role := range []string{"shuffler1", "shuffler"} {
		if s, ok := live.Scrape[role]; ok {
			m["transport.epochs_flushed"] = s[seriesEpochs]
		}
	}
	m["transport.wal_fsyncs_per_report"] = fsyncs / n
	if fsyncs > 0 {
		m["transport.wal_fsync_us_mean"] = fsyncS * 1e6 / fsyncs
	}
	m["transport.wal_fsync_us_per_report"] = fsyncS * 1e6 / n

	us := func(name string) float64 { return median(perOp(reps, name, usOf)) }
	allocs := func(name string) float64 { return median(perOp(reps, name, allocsOf)) }
	m["encoder.encode_us_per_report"] = us("encoder.encode")
	m["encoder.allocs_per_report"] = allocs("encoder.encode")
	m["hybrid.seal_us_per_op"] = us("hybrid.seal")
	m["hybrid.open_us_per_op"] = us("hybrid.open")
	m["elgamal.encrypt_us_per_op"] = us("elgamal.encrypt")
	m["elgamal.blind_us_per_op"] = us("elgamal.blind")
	m["elgamal.pseudonym_us_per_op"] = us("elgamal.pseudonym")
	m["elgamal.hash_to_point_us_per_op"] = us("elgamal.hash_to_point")
	if w.Topology != topoPlain { // the plain path hashes no crowd label to a point
		m["elgamal.hash_cache_hit_ratio"] = float64(live.CacheHits) / n
	}
	m["group.mul_us_per_op"] = us("group.mul")
	m["group.decode_us_per_op"] = us("group.decode")
	m["group.encode_us_per_op"] = us("group.encode")
	m["core.batch_encode_ns_per_report"] = us("core.batch_encode") * 1e3
	m["core.batch_decode_ns_per_report"] = us("core.batch_decode") * 1e3
	m["shuffler.s1_epoch_us_per_report"] = us("shuffler.s1_epoch")
	m["shuffler.s2_epoch_us_per_report"] = us("shuffler.s2_epoch")
	m["shuffler.plain_epoch_us_per_report"] = us("shuffler.plain_epoch")
	m["shuffler.s1_allocs_per_report"] = allocs("shuffler.s1_epoch")
	m["shuffler.s2_allocs_per_report"] = allocs("shuffler.s2_epoch")
	m["analyzer.open_us_per_record"] = us("analyzer.open")
	m["analyzer.histogram_ns_per_record"] = us("analyzer.histogram") * 1e3
	m["analyzer.allocs_per_record"] = allocs("analyzer.open") + allocs("analyzer.histogram")
	wire := make([]float64, len(reps))
	fwd := make([]float64, len(reps))
	for i, r := range reps {
		wire[i], fwd[i] = r.WireBytes, r.ForwardedShare
	}
	m["core.wire_bytes_per_report"] = median(wire)
	m["shuffler.forwarded_share"] = median(fwd)

	// The staged sum: what one report costs in the layers that do the
	// privacy work, the analyzer's part weighted by how many reports reach
	// it. Whatever the live system burns beyond that is moving reports
	// around: frames, sockets, WAL, epoch machinery, runtime.
	crypto := m["encoder.encode_us_per_report"] +
		m["shuffler.s1_epoch_us_per_report"] + m["shuffler.s2_epoch_us_per_report"] +
		m["shuffler.plain_epoch_us_per_report"] +
		m["shuffler.forwarded_share"]*(m["analyzer.open_us_per_record"]+m["analyzer.histogram_ns_per_record"]/1e3)
	liveCPU := live.cpuUSPerReport()
	m["ledger.crypto_us_per_report"] = crypto
	m["ledger.transport_us_per_report"] = liveCPU - crypto
	if liveCPU > 0 {
		m["ledger.coverage"] = crypto / liveCPU
	}
	if b := base.reportsPerS(); b > 0 {
		m["bench.trace_overhead_pct"] = (b - live.reportsPerS()) / b * 100
	}
	return m
}
