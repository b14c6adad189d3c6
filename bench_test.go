// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4.1.3, §5). Each benchmark reports its experiment's key
// quantities as custom metrics so `go test -bench=. -benchmem` regenerates
// the evaluation; the cmd/ tools print the same results as human-readable
// paper-style tables. EXPERIMENTS.md records measured-vs-paper values.
package prochlo_test

import (
	crand "crypto/rand"
	"fmt"
	"math/rand/v2"
	"testing"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/flix"
	"prochlo/internal/oblivious"
	"prochlo/internal/perms"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
	"prochlo/internal/suggest"
	"prochlo/internal/vocab"
	"prochlo/internal/workload"
)

// BenchmarkTable1StashScenarios evaluates the cost and security models at
// the paper's four parameter scenarios. Metrics: overhead_x must match
// Table 1's overhead column exactly; model_logeps is this implementation's
// infeasibility bound, printed next to the paper's published value.
func BenchmarkTable1StashScenarios(b *testing.B) {
	for _, sc := range oblivious.PaperScenarios {
		sc := sc
		b.Run(fmt.Sprintf("N=%dM", sc.N/1_000_000), func(b *testing.B) {
			var ovh, logEps float64
			for i := 0; i < b.N; i++ {
				ovh = oblivious.StashOverhead(sc.N, sc.B, sc.C, sc.S)
				logEps = oblivious.StashSecurityBound(sc.N, sc.B, sc.C, sc.S, sc.W, 0)
			}
			b.ReportMetric(ovh, "overhead_x")
			b.ReportMetric(sc.PaperOverhead, "paper_overhead_x")
			b.ReportMetric(logEps, "model_logeps")
			b.ReportMetric(sc.PaperLogEps, "paper_logeps")
		})
	}
}

// BenchmarkTable2StashShuffle measures the real Stash Shuffle (AES-GCM
// intermediate re-encryption against the simulated enclave) at scaled sizes.
// Metrics: distribution and compression time per item, and peak enclave
// memory — Table 2's columns. The paper's distribution/compression ratio
// (~27x, dominated by public-key work in the real system) is exercised
// separately in BenchmarkTable3VocabPipeline, where public-key crypto runs.
func BenchmarkTable2StashShuffle(b *testing.B) {
	for _, n := range []int{20_000, 100_000} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			in := make([][]byte, n)
			for i := range in {
				rec := make([]byte, 72) // 64B data + 8B crowd ID
				rec[0], rec[1], rec[2] = byte(i), byte(i>>8), byte(i>>16)
				in[i] = rec
			}
			enclave := sgx.New(sgx.DefaultEPC, sgx.Measure("bench"))
			var m oblivious.StashMetrics
			b.SetBytes(int64(n) * 72)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := oblivious.NewStashShuffle(enclave, oblivious.Passthrough{}, n)
				if _, err := s.Shuffle(in); err != nil {
					b.Fatal(err)
				}
				m = s.Metrics
			}
			b.ReportMetric(float64(m.DistributionTime.Nanoseconds())/float64(n), "dist_ns/item")
			b.ReportMetric(float64(m.CompressionTime.Nanoseconds())/float64(n), "comp_ns/item")
			b.ReportMetric(float64(m.PeakEnclaveMemory)/(1<<20), "sgx_MB")
			b.ReportMetric(float64(m.Attempts), "attempts")
		})
	}
}

// BenchmarkSection413ShuffleComparison runs every oblivious-shuffle
// algorithm on the same input against the same enclave and reports the
// enclave-boundary traffic multiple — the §4.1.3 comparison, measured.
func BenchmarkSection413ShuffleComparison(b *testing.B) {
	const n = 20_000
	in := make([][]byte, n)
	for i := range in {
		rec := make([]byte, 72)
		rec[0], rec[1], rec[2] = byte(i), byte(i>>8), byte(i>>16)
		in[i] = rec
	}
	algos := []struct {
		name string
		mk   func(e *sgx.Enclave) oblivious.Shuffler
	}{
		{"StashShuffle", func(e *sgx.Enclave) oblivious.Shuffler {
			return oblivious.NewStashShuffle(e, oblivious.Passthrough{}, n)
		}},
		{"BatcherSort", func(e *sgx.Enclave) oblivious.Shuffler {
			return &oblivious.BatcherShuffle{Enclave: e, Codec: oblivious.Passthrough{}, BucketSize: 512}
		}},
		{"ColumnSort", func(e *sgx.Enclave) oblivious.Shuffler {
			return &oblivious.ColumnSortShuffle{Enclave: e, Codec: oblivious.Passthrough{}, ColumnSize: 4096}
		}},
		{"MelbourneShuffle", func(e *sgx.Enclave) oblivious.Shuffler {
			return &oblivious.MelbourneShuffle{Enclave: e, Codec: oblivious.Passthrough{}}
		}},
		{"CascadeMix", func(e *sgx.Enclave) oblivious.Shuffler {
			return &oblivious.CascadeMixShuffle{Enclave: e, Codec: oblivious.Passthrough{}, ChunkSize: 2048, Rounds: 8}
		}},
	}
	for _, al := range algos {
		al := al
		b.Run(al.name, func(b *testing.B) {
			var mult float64
			b.SetBytes(int64(n) * 72)
			for i := 0; i < b.N; i++ {
				e := sgx.New(sgx.DefaultEPC, sgx.Measure("cmp"))
				s := al.mk(e)
				if _, err := s.Shuffle(in); err != nil {
					b.Fatal(err)
				}
				mult = float64(e.Counters().BytesIn) / float64(n*72)
			}
			b.ReportMetric(mult, "enclave_in_x")
		})
	}
}

// BenchmarkFigure5Vocab regenerates Figure 5's columns at the 100K sample
// size (pass -timeout up and edit for 10M; growth is linear). Metric:
// unique words recovered per method.
func BenchmarkFigure5Vocab(b *testing.B) {
	cfg := vocab.DefaultConfig()
	const size = 100_000
	for _, m := range []vocab.Method{vocab.GroundTruth, vocab.NoCrowd, vocab.Crowd,
		vocab.Partition, vocab.RAPPOR} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			var unique int
			for i := 0; i < b.N; i++ {
				r := cfg.Run(workload.NewRand(42), m, size)
				unique = r.Unique
			}
			b.ReportMetric(float64(unique), "unique_words")
			if p, ok := vocab.PaperFigure5[m][size]; ok {
				b.ReportMetric(float64(p), "paper_unique")
			}
		})
	}
}

// BenchmarkTable3VocabPipeline measures the real public-key pipeline cost
// per client for the single-shuffler and blinded two-shuffler paths.
func BenchmarkTable3VocabPipeline(b *testing.B) {
	const clients = 1000
	var res vocab.TimingResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = vocab.MeasureTiming(clients)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.EncoderShuffler1.Microseconds())/clients, "plain_us/client")
	b.ReportMetric(float64(res.BlindedEncoderShuffler1.Microseconds())/clients, "blinded_s1_us/client")
	b.ReportMetric(float64(res.BlindedShuffler2.Microseconds())/clients, "blinded_s2_us/client")
}

// BenchmarkTable4Perms regenerates Table 4 on a 1M-event synthetic corpus.
// Metrics: pages recovered for the Geolocation feature, naive vs the
// worst-case noisy action threshold.
func BenchmarkTable4Perms(b *testing.B) {
	rng := workload.NewRand(21)
	events := workload.DefaultPerms.Generate(rng, 1_000_000)
	var res perms.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = perms.Run(workload.NewRand(22), perms.DefaultConfig(), events)
	}
	b.ReportMetric(float64(res.Naive[workload.FeatureGeolocation]), "geo_naive_pages")
	b.ReportMetric(float64(res.ByAction[workload.ActionGranted][workload.FeatureGeolocation]), "geo_granted_pages")
	b.ReportMetric(float64(res.Naive[workload.FeatureNotification]), "notif_naive_pages")
	b.ReportMetric(float64(res.Naive[workload.FeatureAudio]), "audio_naive_pages")
}

// BenchmarkSection54Suggest regenerates the Suggest accuracy comparison.
// Metrics: top-1 accuracy of the full-history and fragmented-tuple models;
// the paper's claims are tuple > 0.125 and tuple/full ≈ 0.9.
func BenchmarkSection54Suggest(b *testing.B) {
	e := suggest.DefaultExperiment()
	e.Users = 15_000 // keep each iteration ~1s; ratio is stable from here up
	e.TestUsers = 1_500
	var out suggest.Outcome
	for i := 0; i < b.N; i++ {
		out = e.Run(workload.NewRand(31))
	}
	b.ReportMetric(out.FullAccuracy, "full_top1")
	b.ReportMetric(out.TupleAccuracy, "tuple_top1")
	b.ReportMetric(out.TupleAccuracy/out.FullAccuracy, "retention_ratio")
}

// BenchmarkTable5Flix regenerates Table 5's 200-movie row. Metrics: RMSE
// without privacy and through the PROCHLO pipeline.
func BenchmarkTable5Flix(b *testing.B) {
	cfg := flix.DefaultConfig()
	cfg.Threshold.T = 5
	cfg.Threshold.D = 2
	cfg.Threshold.Sigma = 1
	var out flix.Outcome
	for i := 0; i < b.N; i++ {
		out = flix.Run(workload.NewRand(45), workload.DefaultFlix, cfg)
	}
	b.ReportMetric(out.BaselineRMSE, "rmse_noprivacy")
	b.ReportMetric(out.ProchloRMSE, "rmse_prochlo")
	b.ReportMetric(float64(out.Reports), "reports")
}

// BenchmarkAblationStashParams sweeps the stash size S at fixed N, C: the
// design trade-off Table 1 embodies — a smaller stash weakens the security
// bound and eventually fails, a larger one costs memory. Metrics: the
// security-bound estimate and observed retry attempts.
func BenchmarkAblationStashParams(b *testing.B) {
	const n = 30_000
	in := make([][]byte, n)
	for i := range in {
		rec := make([]byte, 32)
		rec[0], rec[1], rec[2] = byte(i), byte(i>>8), byte(i>>16)
		in[i] = rec
	}
	bB, c, w, _ := oblivious.RecommendedParams(n)
	for _, s := range []int{bB, 10 * bB, 40 * bB} {
		s := s
		b.Run(fmt.Sprintf("S=%dB", s/bB), func(b *testing.B) {
			var attempts float64
			for i := 0; i < b.N; i++ {
				enclave := sgx.New(sgx.DefaultEPC, sgx.Measure("ablation"))
				sh := &oblivious.StashShuffle{Enclave: enclave, Codec: oblivious.Passthrough{},
					B: bB, C: c, W: w, S: s, MaxAttempts: 10}
				if _, err := sh.Shuffle(in); err != nil {
					b.Fatal(err)
				}
				attempts = float64(sh.Metrics.Attempts)
			}
			b.ReportMetric(attempts, "attempts")
			b.ReportMetric(oblivious.StashSecurityBound(n, bB, c, s, w, 0), "model_logeps")
		})
	}
}

// BenchmarkShufflerProcess compares the shuffler's serial reference path
// (Workers=1) against the worker pool (Workers=4 and GOMAXPROCS) on one
// pre-encoded batch: the per-report ECDH+HKDF+AES-GCM peel that dominates
// the paper's Table 2 distribution cost. The two paths produce identical
// output by construction (see TestProcessParallelEquivalence), so this
// benchmark isolates their throughput difference.
func BenchmarkShufflerProcess(b *testing.B) {
	const batch = 2000
	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	client := &encoder.Client{
		ShufflerKey: shufPriv.Public(), AnalyzerKey: anlzPriv.Public(), Rand: crand.Reader,
	}
	envs := make([]core.Envelope, batch)
	for i := range envs {
		env, err := client.Encode(core.Report{
			CrowdID: core.HashCrowdID(fmt.Sprintf("crowd-%d", i%50)),
			Data:    []byte("payload........................"),
		})
		if err != nil {
			b.Fatal(err)
		}
		envs[i] = env
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 4}, {"gomaxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := &shuffler.Shuffler{
					Priv:    shufPriv,
					Rand:    rand.New(rand.NewPCG(1, 2)),
					Workers: bc.workers,
				}
				out, stats, err := s.Process(envs)
				if err != nil {
					b.Fatal(err)
				}
				if stats.Undecryptable != 0 || len(out) != batch {
					b.Fatalf("stats = %+v, forwarded %d", stats, len(out))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "us/report")
		})
	}
}

// benchReports builds the standard end-to-end workload: batch reports
// across 20 crowds.
func benchReports(batch int) (labels []string, data [][]byte) {
	labels = make([]string, batch)
	data = make([][]byte, batch)
	for j := 0; j < batch; j++ {
		labels[j] = fmt.Sprintf("crowd-%d", j%20)
		data[j] = []byte("payload")
	}
	return labels, data
}

// BenchmarkEndToEndPipeline measures the full in-process ESA pipeline
// (encode, shuffle, threshold, analyze) per report through the batch entry
// point: SubmitBatch + Flush with the default worker pool (GOMAXPROCS per
// stage). This is the pipeline's intended bulk path; the serial reference
// is BenchmarkEndToEndPipelineSerial.
func BenchmarkEndToEndPipeline(b *testing.B) {
	// Measured per batch of 500 reports across 20 crowds.
	const batch = 500
	labels, data := benchReports(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := newBenchPipeline()
		if err != nil {
			b.Fatal(err)
		}
		if err := p.SubmitBatch(labels, data); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "us/report")
}

// BenchmarkEndToEndPipelineSerial is the single-report reference path: one
// Submit per report and Workers=1 in every stage, the configuration the
// seed repository measured.
func BenchmarkEndToEndPipelineSerial(b *testing.B) {
	const batch = 500
	labels, data := benchReports(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := newBenchPipelineSerial()
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < batch; j++ {
			if err := p.Submit(labels[j], data[j]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := p.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "us/report")
}

// BenchmarkEncodeSerial measures the client encode stage's single-report
// reference path: two hybrid seals per report, one report at a time.
func BenchmarkEncodeSerial(b *testing.B) {
	const batch = 200
	client, reports := newBenchEncoder(b, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reports {
			if _, err := client.Encode(reports[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "us/report")
}

// BenchmarkEncodeBatch measures EncodeBatch at the batch sizes the
// benchmark's workloads submit: one report (a device client, which stays on
// the scalar comb), five (plain-durable's calls, one lane group per table)
// and 250 (chain-stream's), serially and at GOMAXPROCS. Outputs are
// byte-identical at every worker count under a fixed seed
// (TestEncodeBatchParallelEquivalence), so this isolates throughput and
// allocation differences.
func BenchmarkEncodeBatch(b *testing.B) {
	client, reports := newBenchEncoder(b, 250)
	for _, bc := range []struct {
		n, workers int
	}{{1, 1}, {5, 1}, {250, 1}, {250, 0}} {
		name := fmt.Sprintf("n=%d/serial", bc.n)
		if bc.workers == 0 {
			name = fmt.Sprintf("n=%d/gomaxprocs", bc.n)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				envs, err := client.EncodeBatch(reports[:bc.n], bc.workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(envs) != bc.n {
					b.Fatalf("encoded %d envelopes", len(envs))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*bc.n), "us/report")
		})
	}
}

// BenchmarkAnalyzerOpenSerial measures the analyzer's inner-layer
// decryption with Workers=1, the pre-batch reference path.
func BenchmarkAnalyzerOpenSerial(b *testing.B) {
	benchAnalyzerOpen(b, 1)
}

// BenchmarkAnalyzerOpenParallel measures the analyzer's worker-pool Open
// (GOMAXPROCS workers, shared plaintext arena).
func BenchmarkAnalyzerOpenParallel(b *testing.B) {
	benchAnalyzerOpen(b, 0)
}

// BenchmarkHistogram measures database aggregation on a duplicate-heavy
// batch (the common shape: many reports, few distinct values), where the
// interned implementation allocates per distinct value instead of per
// record.
func BenchmarkHistogram(b *testing.B) {
	const records = 100_000
	db := make([][]byte, records)
	for i := range db {
		db[i] = []byte(fmt.Sprintf("value-%d", i%64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := analyzer.Histogram(db)
		if len(h) != 64 {
			b.Fatalf("distinct values = %d", len(h))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
