package transport

import (
	"bytes"
	crand "crypto/rand"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
)

// TestNetworkedPipeline runs the full three-party flow over localhost TCP:
// client -> shuffler service -> analyzer service.
func TestNetworkedPipeline(t *testing.T) {
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzSvc := NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv})
	anlzL, err := Serve("127.0.0.1:0", anlzSvc)
	if err != nil {
		t.Fatal(err)
	}
	defer anlzL.Close()

	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shuffler.Shuffler{
		Priv:      shufPriv,
		Threshold: shuffler.Threshold{Noise: dp.ThresholdNoise{T: 20, D: 10, Sigma: 2}},
		Rand:      rand.New(rand.NewPCG(1, 2)),
	}
	shufSvc, err := NewStageService(sh, []string{anlzL.Addr().String()}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer shufSvc.Close()
	shufL, err := Serve("127.0.0.1:0", shufSvc)
	if err != nil {
		t.Fatal(err)
	}
	defer shufL.Close()

	// Client: fetch the shuffler key over the network, encode, submit.
	cl, err := Dial(shufL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keys, err := cl.Keys()
	if err != nil {
		t.Fatal(err)
	}
	shufKey, err := hybrid.ParsePublicKey(keys.Key)
	if err != nil {
		t.Fatal(err)
	}
	enc := &encoder.Client{ShufflerKey: shufKey, AnalyzerKey: anlzPriv.Public(), Rand: crand.Reader}
	submit := func(crowd, data string, n int) {
		for i := 0; i < n; i++ {
			env, err := enc.Encode(core.Report{CrowdID: core.HashCrowdID(crowd), Data: []byte(data)})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Submit(core.Batch{Envelopes: []core.Envelope{env}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit("c:popular", "popular-value", 80)
	submit("c:rare", "rare-value", 3)

	if h, err := cl.Healthz(); err != nil || h.Pending != 83 {
		t.Fatalf("healthz = %+v, %v, want 83 pending", h, err)
	}

	stats, err := cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cumulative.Crowds != 2 || stats.Cumulative.CrowdsForwarded != 1 {
		t.Errorf("stats = %+v", stats.Cumulative)
	}

	// Query the analyzer directly.
	ac, err := DialAnalyzer(anlzL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	counts, undec, err := ac.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if counts["rare-value"] != 0 {
		t.Error("rare value leaked through networked thresholding")
	}
	if c := counts["popular-value"]; c < 50 || c > 80 {
		t.Errorf("popular count = %d, want ~70", c)
	}
	if undec != 0 {
		t.Errorf("undecryptable = %d", undec)
	}
}

// TestDrainEmptyPushesNothing: draining a service with nothing pending, at
// the default anonymity floor, is a pure barrier — it succeeds, cuts no
// epoch, and sends the analyzer nothing.
func TestDrainEmptyPushesNothing(t *testing.T) {
	anlzPriv, _ := hybrid.GenerateKey(crand.Reader)
	anlzSvc := NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv})
	anlzL, err := Serve("127.0.0.1:0", anlzSvc)
	if err != nil {
		t.Fatal(err)
	}
	defer anlzL.Close()
	shufPriv, _ := hybrid.GenerateKey(crand.Reader)
	sh := &shuffler.Shuffler{Priv: shufPriv, Rand: rand.New(rand.NewPCG(3, 4))}
	svc, err := NewStageService(sh, []string{anlzL.Addr().String()}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	shufL, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer shufL.Close()
	cl, err := Dial(shufL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stats, err := cl.Drain()
	if err != nil {
		t.Fatalf("empty Drain err = %v, want nil (barrier)", err)
	}
	if stats.Pending != 0 || stats.EpochsFlushed != 0 || stats.EpochsFailed != 0 || stats.Unaccounted != 0 {
		t.Errorf("empty Drain stats = %+v, want all-zero epoch counters", stats)
	}
	if as := anlzSvc.Stats(); as.Ingests != 0 {
		t.Errorf("analyzer ingests after an empty Drain = %d, want 0", as.Ingests)
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port succeeded")
	}
}

// TestAnalyzerKeepsCounts: the analyzer folds each ingest into a running
// histogram instead of keeping its records. Over random ingests from three
// upstream streams, each keeping the sender rule — a push repeats the
// stream's last epoch (a retry) or moves past it, sometimes skipping one (a
// partition the epoch had nothing for) — and blobs that do not decrypt, the
// service's histogram must equal analyzer.Histogram over the opened records
// of the distinct ingests, Records must count exactly those records, and a
// caller holding a returned histogram must not see later ingests in it.
func TestAnalyzerKeepsCounts(t *testing.T) {
	priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	an := &analyzer.Analyzer{Priv: priv}
	svc := NewAnalyzerService(an)
	rng := rand.New(rand.NewPCG(13, 17))
	last := make(map[int64]int64) // stream -> last epoch pushed
	ingests := 0
	var db [][]byte
	undec := 0
	for i := 0; i < 40; i++ {
		stream := 1 + rng.Int64N(3)
		epoch := max(1, last[stream]+rng.Int64N(3))
		items := make([][]byte, rng.IntN(6))
		for j := range items {
			if rng.IntN(5) == 0 {
				items[j] = []byte("not a ciphertext")
				continue
			}
			value := []byte(fmt.Sprintf("v%d", rng.IntN(4)))
			if items[j], err = hybrid.Seal(crand.Reader, priv.Public(), value, nil); err != nil {
				t.Fatal(err)
			}
		}
		svc.Ingest(stream, epoch, items)
		if epoch > last[stream] {
			last[stream] = epoch
			ingests++
			opened, u := an.Open(items)
			db = append(db, opened...)
			undec += u
		}
	}
	want := analyzer.Histogram(db)
	counts, gotUndec := svc.Histogram()
	if !reflect.DeepEqual(counts, want) || gotUndec != undec {
		t.Fatalf("histogram = %v (%d undecryptable), want %v (%d)", counts, gotUndec, want, undec)
	}
	if st := svc.Stats(); st.Records != len(db) || st.Undecryptable != undec || st.Ingests != ingests {
		t.Errorf("stats = %+v, want %d records, %d undecryptable, %d ingests", st, len(db), undec, ingests)
	}
	counts["v0"] += 100
	if again, _ := svc.Histogram(); !reflect.DeepEqual(again, want) {
		t.Errorf("writing to a returned histogram changed the service's: %v, want %v", again, want)
	}
}

// TestStageServiceServesItsStagesKeys: a service serves the keys its stage
// holds and no others — the hybrid key the stage decrypts with, plus the
// El Gamal key at shuffler2 — and the analyzer serves its own. Shuffler1
// serves its public blinding key A = αG, with its proof of α, alone; a stage with no key at all
// refuses.
func TestStageServiceServesItsStagesKeys(t *testing.T) {
	sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	sgxStage, quote, err := shuffler.NewSGXShuffler(ca, shuffler.Params{})
	if err != nil {
		t.Fatal(err)
	}
	next := []string{serveNull(t)}
	stageService := func(st shuffler.Stage, err error) Service {
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewStageService(st, next, EpochConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		return svc
	}
	role := func(name string) Service { return stageService(shuffler.NewStage(name, sec, shuffler.Params{})) }
	key := sec.Priv.Public().Bytes()
	for _, tc := range []struct {
		name    string
		svc     Service
		want    Keys
		refusal string
	}{
		{"plain", role("shuffler"), Keys{Key: key}, ""},
		{"sgx", stageService(sgxStage, nil), Keys{Key: quote.ReportData}, ""},
		{"shuffler1", role("shuffler1"), Keys{Blinding: sec.Blinding.ProvenKey()}, ""},
		{"keyless", stageService(&shuffler.Shuffler1{}, nil), Keys{}, "transport: this hop serves no keys"},
		{"shuffler2", role("shuffler2"), Keys{Blinding: sec.Blinding.H.Bytes(), Key: key}, ""},
		{"analyzer", NewAnalyzerService(&analyzer.Analyzer{Priv: sec.Priv}), Keys{Key: key}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Serve("127.0.0.1:0", tc.svc)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			cl, err := Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			got, err := cl.Keys()
			switch {
			case tc.refusal != "":
				if err == nil || !strings.Contains(err.Error(), tc.refusal) {
					t.Fatalf("Keys = %x, %v; want the refusal %q", got, err, tc.refusal)
				}
			case err != nil:
				t.Fatal(err)
			case !bytes.Equal(got.Key, tc.want.Key) || !bytes.Equal(got.Blinding, tc.want.Blinding):
				t.Errorf("Keys = %x, want %x", got, tc.want)
			}
		})
	}
}
