package prochlo_test

import (
	crand "crypto/rand"
	"fmt"
	"math"
	"runtime"
	"testing"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/shuffler"
)

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// budgetKit is one batch of budgetReports reports at every stage of both
// chains, each stage built with one worker: the inputs of the allocation
// and wire-size gates below.
type budgetKit struct {
	reports       []core.Report
	labels        []string
	data          [][]byte
	client        *encoder.Client
	bclient       *encoder.BlindedClient
	plain, s1, s2 shuffler.Stage
	anlz          shuffler.Stage // the analyzer's sink, on anlzPriv
	anlzPriv      *hybrid.PrivateKey
	envs          []core.Envelope        // the plain client's batch
	blinded       []core.BlindedEnvelope // the blinded client's batch
	mixed         []core.BlindedEnvelope // the blinded batch as hop 1 forwards it
	inner         [][]byte               // the plain shuffler's output, for the analyzer
}

const budgetReports = 250

// bytesRuns is how many runs of a path TestAllocBudgets averages the bytes
// it allocates per report over, and bytesRounds how many such averages it
// takes the least of: TotalAlloc counts every goroutine of the process, and
// a pool the collector emptied refills on the next run, so noise only adds.
const bytesRuns, bytesRounds = 10, 3

// stdlibAEADBytes is what crypto/cipher's AES-GCM allocates per AEAD — the
// cipher and the GCM object — rounded up.
const stdlibAEADBytes = 1100

func newBudgetKit(t *testing.T) *budgetKit {
	t.Helper()
	k := &budgetKit{}
	payload := []byte("payload........................")
	for i := 0; i < budgetReports; i++ {
		label := fmt.Sprintf("crowd-%d", i%20)
		k.reports = append(k.reports, core.Report{CrowdID: core.HashCrowdID(label), Data: payload})
		k.labels, k.data = append(k.labels, label), append(k.data, payload)
	}
	stage := func(role string) (shuffler.Stage, shuffler.Secrets) {
		sec, err := shuffler.GenerateSecrets()
		if err != nil {
			t.Fatal(err)
		}
		st, err := shuffler.NewStage(role, sec, shuffler.Params{Seed: 1, MinBatch: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return st, sec
	}
	var plainSec, s1Sec, s2Sec shuffler.Secrets
	k.plain, plainSec = stage("shuffler")
	k.s1, s1Sec = stage("shuffler1")
	k.s2, s2Sec = stage("shuffler2")
	var err error
	if k.anlzPriv, err = hybrid.GenerateKey(crand.Reader); err != nil {
		t.Fatal(err)
	}
	if k.anlz, err = shuffler.NewStage("analyzer", shuffler.Secrets{Priv: k.anlzPriv}, shuffler.Params{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	k.client = &encoder.Client{ShufflerKey: plainSec.Priv.Public(), AnalyzerKey: k.anlzPriv.Public(), Rand: crand.Reader}
	k.bclient = &encoder.BlindedClient{Shuffler1Blinding: s1Sec.Blinding.H, Shuffler2Blinding: s2Sec.Blinding.H,
		Shuffler2Key: s2Sec.Priv.Public(), AnalyzerKey: k.anlzPriv.Public(), Rand: crand.Reader}
	if k.envs, err = k.client.EncodeBatch(k.reports, 1); err != nil {
		t.Fatal(err)
	}
	if k.blinded, err = k.bclient.EncodeBatch(k.labels, k.data, 1); err != nil {
		t.Fatal(err)
	}
	mixed, _, err := shuffler.RunEpoch(k.s1, core.Batch{Blinded: k.blinded})
	if err != nil {
		t.Fatal(err)
	}
	peeled, _, err := k.plain.ProcessEpoch(core.Batch{Envelopes: k.envs})
	if err != nil {
		t.Fatal(err)
	}
	k.mixed, k.inner = mixed.Blinded, peeled.Payloads
	if len(k.mixed) != budgetReports || len(k.inner) != budgetReports {
		t.Fatalf("hop 1 forwarded %d, the shuffler %d, want %d each", len(k.mixed), len(k.inner), budgetReports)
	}
	return k
}

// TestAllocBudgets gates the allocation counts and the bytes allocated per
// report (per record at the analyzer) of the per-report hot paths, one
// worker each. Unlike their times, these barely move between runs of one
// toolchain, so a rise past a bound is a change, not noise. Each bound is
// the value measured on Go 1.24 when the gate was set, rounded up; lower
// one when a change takes allocations out. A bound is the AES-GCM
// kernel's; where the process runs crypto/cipher's AEAD instead (-tags
// purego, other GOARCHes, a CPU without AES-NI), each AEAD a path runs per
// report adds that path's two objects and stdlibAEADBytes.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	k := newBudgetKit(t)
	analyzerOpen := &analyzer.Analyzer{Priv: k.anlzPriv, Workers: 1}
	_, _, aead := hybrid.Kernels()
	for _, tc := range []struct {
		name     string
		max      float64
		maxBytes float64
		aeads    int // AEADs per report
		run      func() error
	}{
		{"Client.EncodeBatch", 0.15, 1400, 2, func() error { _, err := k.client.EncodeBatch(k.reports, 1); return err }},
		{"BlindedClient.EncodeBatch", 0.15, 1800, 2, func() error { _, err := k.bclient.EncodeBatch(k.labels, k.data, 1); return err }},
		{"PrivateKey.OpenBatch", 0.1, 100, 1, func() error {
			_, errs := k.anlzPriv.OpenBatch(k.inner, nil, 1)
			return errs[0]
		}},
		{"Analyzer.Open", 0.1, 100, 1, func() error { analyzerOpen.Open(k.inner); return nil }},
		{"Shuffler.ProcessEpoch", 0.2, 600, 1, func() error {
			_, _, err := k.plain.ProcessEpoch(core.Batch{Envelopes: k.envs})
			return err
		}},
		// hop 1's whole work on a report: Admit's blinding, then the shuffle
		{"Shuffler1.ProcessEpoch", 0.1, 170, 0, func() error {
			_, _, err := shuffler.RunEpoch(k.s1, core.Batch{Blinded: k.blinded})
			return err
		}},
		{"Shuffler2.ProcessEpoch", 0.2, 420, 1, func() error {
			_, _, err := k.s2.ProcessEpoch(core.Batch{Blinded: k.mixed})
			return err
		}},
		// the analyzer's whole work on a record: Admit's open, then the fold
		{"Sink.ProcessEpoch", 0.1, 150, 1, func() error {
			_, _, err := shuffler.RunEpoch(k.anlz, core.Batch{Payloads: k.inner})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bound, maxBytes := tc.max, tc.maxBytes
			if aead == "stdlib" {
				bound += float64(2 * tc.aeads)
				maxBytes += float64(stdlibAEADBytes * tc.aeads)
			}
			var err error
			perReport := testing.AllocsPerRun(3, func() {
				if e := tc.run(); e != nil {
					err = e
				}
			}) / budgetReports
			if err != nil {
				t.Fatal(err)
			}
			bytesPerReport := math.Inf(1)
			for range bytesRounds {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < bytesRuns; i++ {
					_ = tc.run()
				}
				runtime.ReadMemStats(&m1)
				bytesPerReport = min(bytesPerReport, float64(m1.TotalAlloc-m0.TotalAlloc)/bytesRuns/budgetReports)
			}
			t.Logf("%.2f allocs, %.0f bytes per report (bounds %.2f, %.0f; %s AEAD)", perReport, bytesPerReport, bound, maxBytes, aead)
			if perReport > bound {
				t.Errorf("%.2f allocs per report, bound %.2f", perReport, bound)
			}
			if bytesPerReport > maxBytes {
				t.Errorf("%.0f bytes allocated per report, bound %.0f", bytesPerReport, maxBytes)
			}
		})
	}
}

// TestWireBytesPerReport pins core.AppendBatch's size for each batch kind of
// budgetReports reports: what a report costs on the wire moves only when an
// envelope's layout or a sealed size does.
func TestWireBytesPerReport(t *testing.T) {
	k := newBudgetKit(t)
	for _, tc := range []struct {
		name  string
		batch core.Batch
		want  int
	}{
		{"envelopes", core.Batch{Envelopes: k.envs}, 56753},
		{"blinded", core.Batch{Blinded: k.blinded}, 88003},
		{"payloads", core.Batch{Payloads: k.inner}, 31253},
	} {
		got := len(core.AppendBatch(nil, tc.batch))
		if got != tc.want {
			t.Errorf("%s: %d bytes for %d reports (%.3f per report), want %d (%.3f)", tc.name,
				got, budgetReports, float64(got)/budgetReports, tc.want, float64(tc.want)/budgetReports)
		}
	}
}
