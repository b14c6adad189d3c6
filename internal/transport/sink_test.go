package transport

import (
	crand "crypto/rand"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/shuffler"
)

// sealedPayloads seals n copies of value to the analyzer's key: what a
// thresholding hop pushes to it.
func sealedPayloads(t testing.TB, priv *hybrid.PrivateKey, value string, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		var err error
		if out[i], err = hybrid.Seal(crand.Reader, priv.Public(), []byte(value), nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestAnalyzerJoinsTheLedger: the analyzer runs the engine every party runs,
// so it keeps the same exactly-once ledger. On a seeded split-chain fleet,
// after a flush — the shuffler tiers drained in chain order, then each
// analyzer partition's histogram — every partition is reconciled (nothing
// unaccounted, nothing pending), the analyzer tier accepted exactly what hop
// 2 forwarded, and every record it accepted is in the merged histogram or
// counted undecryptable. Some reports are sealed to a key the analyzer does
// not hold, so the undecryptable column is not vacuous.
func TestAnalyzerJoinsTheLedger(t *testing.T) {
	for _, shape := range []struct{ s2, anlz int }{{1, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("1x%dx%d", shape.s2, shape.anlz), func(t *testing.T) {
			epochs := EpochConfig{FlushAt: 40}
			f, err := StartFleet([]Tier{
				{Role: "shuffler1", Replicas: 1, Epochs: epochs},
				{Role: "shuffler2", Replicas: shape.s2, Epochs: epochs},
				{Role: "analyzer", Replicas: shape.anlz},
			}, shuffler.Params{Threshold: shuffler.Threshold{Naive: 5}, Seed: 7, MinBatch: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			hop1 := dialed(t, f.Tiers[0][0])
			k1, err := hop1.Keys()
			if err != nil {
				t.Fatal(err)
			}
			k2, err := dialed(t, f.Tiers[1][0]).Keys()
			if err != nil {
				t.Fatal(err)
			}
			hops, anlzAddrs := f.Tiers[:2], f.Tiers[2]
			anlzs := make([]*Client, len(anlzAddrs))
			for i, addr := range anlzAddrs {
				anlzs[i] = dialed(t, addr)
			}
			ka, err := anlzs[0].Keys()
			if err != nil {
				t.Fatal(err)
			}
			a, err := elgamal.ParseProvenKey(k1.Blinding)
			if err != nil {
				t.Fatal(err)
			}
			blinding, err := elgamal.ParsePoint(k2.Blinding)
			if err != nil {
				t.Fatal(err)
			}
			s2Key, err := hybrid.ParsePublicKey(k2.Key)
			if err != nil {
				t.Fatal(err)
			}
			anlzKey, err := hybrid.ParsePublicKey(ka.Key)
			if err != nil {
				t.Fatal(err)
			}
			stranger, err := hybrid.GenerateKey(crand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			client := func(to *hybrid.PublicKey) *encoder.BlindedClient {
				return &encoder.BlindedClient{Shuffler1Blinding: a, Shuffler2Blinding: blinding,
					Shuffler2Key: s2Key, AnalyzerKey: to, Rand: crand.Reader}
			}
			good, bad := client(anlzKey), client(stranger.Public())

			// Three batches of crowds of 12, 7 and 2 (the last one under the
			// threshold), every fourth report of the first crowd sealed to the
			// stranger's key.
			for b := 0; b < 3; b++ {
				var envs []core.BlindedEnvelope
				for i, size := range []int{12, 7, 2} {
					label := fmt.Sprintf("crowd:%d", i)
					for j := 0; j < size; j++ {
						enc := good
						if i == 0 && j%4 == 0 {
							enc = bad
						}
						env, err := enc.Encode(label, []byte(label))
						if err != nil {
							t.Fatal(err)
						}
						env.Partition = core.PartitionOf(core.HashCrowdID(label), shape.s2)
						envs = append(envs, env)
					}
				}
				if err := hop1.Submit(core.Batch{Blinded: envs}); err != nil {
					t.Fatal(err)
				}
			}

			var forwarded int64
			for tier, addrs := range hops {
				for _, addr := range addrs {
					st, err := dialed(t, addr).Drain()
					if err != nil {
						t.Fatal(err)
					}
					if tier == len(hops)-1 {
						forwarded += int64(st.Cumulative.Forwarded)
					}
				}
			}
			total, undec := 0, 0
			for _, cl := range anlzs {
				counts, u, err := cl.Histogram()
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range counts {
					total += n
				}
				undec += u
			}
			var accepted int64
			for i, cl := range anlzs {
				st, err := cl.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.Unaccounted != 0 || st.Pending != 0 {
					t.Errorf("analyzer partition %d: Unaccounted %d, Pending %d; want 0 and 0", i, st.Unaccounted, st.Pending)
				}
				accepted += st.Accepted
			}
			if accepted != forwarded {
				t.Errorf("the analyzer tier accepted %d records, hop 2 forwarded %d", accepted, forwarded)
			}
			if int64(total+undec) != accepted {
				t.Errorf("histogram total %d + undecryptable %d = %d, the analyzer tier accepted %d", total, undec, total+undec, accepted)
			}
			if total == 0 || undec == 0 {
				t.Errorf("histogram total %d, undecryptable %d: want both nonzero, or the ledger check is vacuous", total, undec)
			}
		})
	}
}

// slowFoldSink is the analyzer's stage with its fold slowed, so a Histogram
// that did not wait for the fold would read the histogram before it.
type slowFoldSink struct{ *shuffler.Sink }

func (s slowFoldSink) ProcessEpoch(in core.Batch) (core.Batch, shuffler.Stats, error) {
	time.Sleep(20 * time.Millisecond)
	return s.Sink.ProcessEpoch(in)
}

// TestHistogramIsABarrier: the analyzer acks a push once it has opened it,
// and folds it into the histogram on the cut, after the ack. Histogram drains
// before it answers, so a Histogram called the moment a push is acked — no
// sleep, no poll — counts it.
func TestHistogramIsABarrier(t *testing.T) {
	priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shuffler.NewStage("analyzer", shuffler.Secrets{Priv: priv}, shuffler.Params{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewStageService(slowFoldSink{st.(*shuffler.Sink)}, nil, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cl := dialed(t, serveService(t, svc))
	for push := 1; push <= 5; push++ {
		if err := cl.Submit(core.Batch{Payloads: sealedPayloads(t, priv, "barrier-value", 3)}); err != nil {
			t.Fatal(err)
		}
		counts, undec, err := cl.Histogram()
		if err != nil {
			t.Fatal(err)
		}
		if counts["barrier-value"] != 3*push || undec != 0 {
			t.Fatalf("Histogram right after push %d acked = %v (%d undecryptable), want %d barrier-value", push, counts, undec, 3*push)
		}
	}
}

// TestSinkHoldsNoRecords: the analyzer cuts every batch it keeps as an epoch
// of its own, so what it holds between pushes is its histogram, not records.
// After pushes from several streams, and no Histogram or Drain to cut them,
// its occupancy returns to 0 with every record folded.
func TestSinkHoldsNoRecords(t *testing.T) {
	priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := serveAnalyzer(t, priv)
	const streams, pushes, size = 3, 4, 5
	for s := int64(1); s <= streams; s++ {
		for p := int64(1); p <= pushes; p++ {
			if _, err := svc.Submit(s, p, core.Batch{Payloads: sealedPayloads(t, priv, "held-value", size)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	untilTrue(t, "the analyzer to fold every push", func() bool {
		st := svc.Stats()
		return st.Pending == 0 && st.QueuedEpochs == 0 && st.Cumulative.Forwarded == streams*pushes*size
	})
	if st := svc.Stats(); st.Accepted != streams*pushes*size || st.Unaccounted != 0 {
		t.Errorf("stats = %+v, want %d accepted and nothing unaccounted", st, streams*pushes*size)
	}
}

// TestSinkRefusesEpochConfig: a stage that emits nothing has no next tier and
// cuts every batch as an epoch, and its histogram is not in any log, so the
// engine refuses a next tier, a WAL, an epoch size and a timer for it — and
// leaves the refused WAL directory as it found it.
func TestSinkRefusesEpochConfig(t *testing.T) {
	sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	st, err := shuffler.NewStage("analyzer", sec, shuffler.Params{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		next []string
		cfg  EpochConfig
	}{
		"next tier": {next: []string{serveNull(t)}},
		"WALDir":    {cfg: EpochConfig{WALDir: dir}},
		"FlushAt":   {cfg: EpochConfig{FlushAt: 10}},
		"Interval":  {cfg: EpochConfig{Interval: time.Second}},
	} {
		if svc, err := NewStageService(st, tc.next, tc.cfg); err == nil || !strings.Contains(err.Error(), "a stage that emits nothing") {
			if svc != nil {
				svc.Close()
			}
			t.Errorf("%s: NewStageService = %v, want the refusal", name, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("the refused WAL directory holds %d entries (%v), want none", len(entries), err)
	}
	svc, err := NewStageService(st, nil, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if cfg := svc.Config(); cfg.FlushAt != 1 {
		t.Errorf("effective FlushAt = %d, want the floor, 1", cfg.FlushAt)
	}
}
