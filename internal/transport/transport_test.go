package transport

import (
	crand "crypto/rand"
	"math/rand/v2"
	"testing"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/shuffler"
)

// TestNetworkedPipeline runs the full three-party flow over localhost TCP:
// client -> shuffler service -> analyzer service.
func TestNetworkedPipeline(t *testing.T) {
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzSvc := NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv}, anlzPriv.Public().Bytes())
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
	shufSvc, err := NewStageService(sh, Keys{Key: shufPriv.Public().Bytes()},
		[]string{anlzL.Addr().String()}, EpochConfig{})
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

	stats, err := cl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crowds != 2 || stats.CrowdsForwarded != 1 {
		t.Errorf("stats = %+v", stats)
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

func TestFlushEmptyBatchFails(t *testing.T) {
	anlzPriv, _ := hybrid.GenerateKey(crand.Reader)
	anlzSvc := NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv}, anlzPriv.Public().Bytes())
	anlzL, err := Serve("127.0.0.1:0", anlzSvc)
	if err != nil {
		t.Fatal(err)
	}
	defer anlzL.Close()
	shufPriv, _ := hybrid.GenerateKey(crand.Reader)
	sh := &shuffler.Shuffler{Priv: shufPriv, Rand: rand.New(rand.NewPCG(3, 4))}
	svc, err := NewStageService(sh, Keys{Key: shufPriv.Public().Bytes()},
		[]string{anlzL.Addr().String()}, EpochConfig{})
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
	if _, err := cl.Flush(); err == nil {
		t.Error("flushing an empty batch should fail (batch minimum)")
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port succeeded")
	}
}
