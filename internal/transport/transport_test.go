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
	_, anlz := serveAnalyzer(t, anlzPriv)

	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shuffler.Shuffler{
		Priv:      shufPriv,
		Threshold: shuffler.Threshold{Noise: dp.ThresholdNoise{T: 20, D: 10, Sigma: 2}},
		Rand:      rand.New(rand.NewPCG(1, 2)),
	}
	shufSvc, err := NewStageService(sh, []string{anlz}, EpochConfig{})
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

	if st, err := cl.Stats(); err != nil || !st.Healthy || st.Pending != 83 {
		t.Fatalf("stats = %+v, %v, want healthy and 83 pending", st, err)
	}

	stats, err := cl.Drain(false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cumulative.Crowds != 2 || stats.Cumulative.CrowdsForwarded != 1 {
		t.Errorf("stats = %+v", stats.Cumulative)
	}

	// Query the analyzer directly.
	ac, err := Dial(anlz)
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
	anlzSvc, anlz := serveAnalyzer(t, anlzPriv)
	shufPriv, _ := hybrid.GenerateKey(crand.Reader)
	sh := &shuffler.Shuffler{Priv: shufPriv, Rand: rand.New(rand.NewPCG(3, 4))}
	svc, err := NewStageService(sh, []string{anlz}, EpochConfig{})
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
	stats, err := cl.Drain(false)
	if err != nil {
		t.Fatalf("empty Drain err = %v, want nil (barrier)", err)
	}
	if stats.Pending != 0 || stats.EpochsFlushed != 0 || stats.EpochsFailed != 0 || stats.Unaccounted != 0 {
		t.Errorf("empty Drain stats = %+v, want all-zero epoch counters", stats)
	}
	if as, err := anlzSvc.Drain(false); err != nil || as.Accepted != 0 || as.EpochsFlushed != 0 {
		t.Errorf("analyzer after an empty Drain = %+v, %v; want nothing accepted, no epoch", as, err)
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port succeeded")
	}
}

// TestAnalyzerKeepsCounts: the analyzer folds each ingest into a running
// histogram instead of keeping its records. Over random Submits from three
// upstream streams, each keeping the sender rule — a push repeats the
// stream's last epoch, unchanged (a retry), or moves past it, sometimes
// skipping one (a partition the epoch had nothing for) — and blobs that do
// not decrypt, the service's histogram must equal analyzer.Histogram over the
// opened records of the distinct pushes, its stats must count exactly those
// records, the undecryptable ones and nothing else, and a caller holding a
// returned histogram must not see later ingests in it.
func TestAnalyzerKeepsCounts(t *testing.T) {
	priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	an := &analyzer.Analyzer{Priv: priv}
	svc, _ := serveAnalyzer(t, priv)
	rng := rand.New(rand.NewPCG(13, 17))
	type push struct {
		epoch int64
		items [][]byte
	}
	last := make(map[int64]push) // stream -> last push
	var db [][]byte
	undec, records := 0, 0
	for i := 0; i < 40; i++ {
		stream := 1 + rng.Int64N(3)
		p := push{epoch: max(1, last[stream].epoch+rng.Int64N(3))}
		if p.epoch == last[stream].epoch {
			p = last[stream] // a retry resends the same batch
		} else {
			p.items = make([][]byte, rng.IntN(6))
			for j := range p.items {
				if rng.IntN(5) == 0 {
					p.items[j] = []byte("not a ciphertext")
					continue
				}
				value := []byte(fmt.Sprintf("v%d", rng.IntN(4)))
				if p.items[j], err = hybrid.Seal(crand.Reader, priv.Public(), value, nil); err != nil {
					t.Fatal(err)
				}
			}
			last[stream] = p
			opened, u := an.Open(p.items)
			db = append(db, opened...)
			undec += u
			records += len(p.items)
		}
		if n, err := svc.Submit(stream, p.epoch, core.Batch{Payloads: p.items}); err != nil || n != len(p.items) {
			t.Fatalf("Submit(%d, %d) = %d, %v; want %d acked", stream, p.epoch, n, err, len(p.items))
		}
	}
	want := analyzer.Histogram(db)
	counts, gotUndec, err := svc.Histogram()
	if err != nil || !reflect.DeepEqual(counts, want) || gotUndec != undec {
		t.Fatalf("histogram = %v (%d undecryptable), %v; want %v (%d)", counts, gotUndec, err, want, undec)
	}
	st := svc.Stats()
	if st.Accepted != int64(records) || st.Cumulative.Received != records ||
		st.Cumulative.Forwarded != len(db) || st.Cumulative.Undecryptable != undec ||
		st.Pending != 0 || st.Unaccounted != 0 {
		t.Errorf("stats = %+v, want %d records accepted and received, %d counted, %d undecryptable", st, records, len(db), undec)
	}
	counts["v0"] += 100
	if again, _, _ := svc.Histogram(); !reflect.DeepEqual(again, want) {
		t.Errorf("writing to a returned histogram changed the service's: %v, want %v", again, want)
	}
}

// serveAnalyzer serves the analyzer's stage, shuffler.NewStage("analyzer")
// on priv, until the test ends, and returns the service and its address.
func serveAnalyzer(t testing.TB, priv *hybrid.PrivateKey) (*StageService, string) {
	t.Helper()
	st, err := shuffler.NewStage("analyzer", shuffler.Secrets{Priv: priv}, shuffler.Params{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewStageService(st, nil, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	l, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return svc, l.Addr().String()
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
	sgxStage, err := shuffler.NewSGXShuffler(ca, shuffler.Params{})
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
	analyzerSvc, _ := serveAnalyzer(t, sec.Priv)
	key := sec.Priv.Public().Bytes()
	for _, tc := range []struct {
		name    string
		svc     Service
		want    Keys
		refusal string
	}{
		{"plain", role("shuffler"), Keys{Key: key}, ""},
		{"sgx", stageService(sgxStage, nil), Keys{Key: sgxStage.Quote().ReportData}, ""},
		{"shuffler1", role("shuffler1"), Keys{Blinding: sec.Blinding.ProvenKey()}, ""},
		{"keyless", stageService(&shuffler.Shuffler1{}, nil), Keys{}, "transport: this hop serves no keys"},
		{"shuffler2", role("shuffler2"), Keys{Blinding: sec.Blinding.H.Bytes(), Key: key}, ""},
		{"analyzer", analyzerSvc, Keys{Key: key}, ""},
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
