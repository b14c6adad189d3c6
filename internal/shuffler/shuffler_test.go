package shuffler

import (
	"bytes"
	crand "crypto/rand"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/oblivious"
	"prochlo/internal/sgx"
)

func newRNG() *rand.Rand { return rand.New(rand.NewPCG(11, 13)) }

type fixture struct {
	shufPriv *hybrid.PrivateKey
	anlzPriv *hybrid.PrivateKey
	client   *encoder.Client
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	shuf, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlz, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		shufPriv: shuf,
		anlzPriv: anlz,
		client: &encoder.Client{
			ShufflerKey: shuf.Public(), AnalyzerKey: anlz.Public(), Rand: crand.Reader,
		},
	}
}

// submit encodes count reports with the given crowd label and data.
func (f *fixture) submit(t *testing.T, crowd string, data []byte, count int) []core.Envelope {
	t.Helper()
	envs := make([]core.Envelope, count)
	for i := range envs {
		env, err := f.client.Encode(core.Report{CrowdID: core.HashCrowdID(crowd), Data: data})
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = env
	}
	return envs
}

func (f *fixture) openAll(t *testing.T, inner [][]byte) []string {
	t.Helper()
	out := make([]string, 0, len(inner))
	for _, ct := range inner {
		pt, err := f.anlzPriv.Open(ct, nil)
		if err != nil {
			t.Fatalf("analyzer failed to open forwarded record: %v", err)
		}
		out = append(out, string(pt))
	}
	return out
}

func TestShufflerThresholding(t *testing.T) {
	f := newFixture(t)
	batch := f.submit(t, "big", []byte("common-value...................."), 100)
	batch = append(batch, f.submit(t, "tiny", []byte("rare-value......................"), 3)...)
	s := &Shuffler{Priv: f.shufPriv, Threshold: Threshold{Noise: dp.PaperThresholdNoise}, Rand: newRNG()}
	inner, stats, err := s.Process(batch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Received != 103 || stats.Crowds != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.CrowdsForwarded != 1 {
		t.Errorf("CrowdsForwarded = %d, want 1 (tiny crowd must be dropped)", stats.CrowdsForwarded)
	}
	values := f.openAll(t, inner)
	for _, v := range values {
		if v != "common-value...................." {
			t.Fatalf("rare value leaked through thresholding: %q", v)
		}
	}
	// Noisy thresholding drops ~10 items from the big crowd.
	if len(values) < 70 || len(values) > 100 {
		t.Errorf("forwarded %d of 100, want ~90", len(values))
	}
}

func TestShufflerShufflesOrder(t *testing.T) {
	f := newFixture(t)
	var batch []core.Envelope
	for i := 0; i < 200; i++ {
		batch = append(batch, f.submit(t, "c", []byte(fmt.Sprintf("item-%03d", i)), 1)...)
	}
	s := &Shuffler{Priv: f.shufPriv, Threshold: Threshold{}, Rand: newRNG()}
	inner, _, err := s.Process(batch)
	if err != nil {
		t.Fatal(err)
	}
	values := f.openAll(t, inner)
	inOrder := 0
	for i := range values {
		if values[i] == fmt.Sprintf("item-%03d", i) {
			inOrder++
		}
	}
	if inOrder > 20 {
		t.Errorf("%d of 200 items kept submission order; output not shuffled", inOrder)
	}
}

func TestShufflerBatchTooSmall(t *testing.T) {
	f := newFixture(t)
	batch := f.submit(t, "c", []byte("x"), 3)
	s := &Shuffler{Priv: f.shufPriv, Rand: newRNG(), MinBatch: 10}
	if _, _, err := s.Process(batch); !errors.Is(err, ErrBatchTooSmall) {
		t.Fatalf("err = %v, want ErrBatchTooSmall", err)
	}
}

func TestShufflerUndecryptable(t *testing.T) {
	f := newFixture(t)
	batch := f.submit(t, "c", []byte("ok.............................."), 40)
	batch = append(batch, core.Envelope{Blob: bytes.Repeat([]byte{0x42}, 100)})
	s := &Shuffler{Priv: f.shufPriv, Threshold: Threshold{}, Rand: newRNG()}
	_, stats, err := s.Process(batch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Undecryptable != 1 {
		t.Errorf("Undecryptable = %d, want 1", stats.Undecryptable)
	}
}

func TestNaiveThreshold(t *testing.T) {
	rng := newRNG()
	th := Threshold{Naive: 10}
	if _, ok := th.Apply(rng, 9); ok {
		t.Error("crowd of 9 passed naive threshold 10")
	}
	if n, ok := th.Apply(rng, 10); !ok || n != 10 {
		t.Error("crowd of exactly 10 should pass naive threshold untouched")
	}
}

func TestNoThreshold(t *testing.T) {
	rng := newRNG()
	th := Threshold{}
	if n, ok := th.Apply(rng, 1); !ok || n != 1 {
		t.Error("disabled thresholding should forward everything")
	}
}

// TestBlindedPipeline exercises the full §4.3 split-shuffler flow.
func TestBlindedPipeline(t *testing.T) {
	anlz, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2Priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s1KP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client := &encoder.BlindedClient{
		Shuffler1Blinding: s1KP.H,
		Shuffler2Blinding: blindKP.H,
		Shuffler2Key:      s2Priv.Public(),
		AnalyzerKey:       anlz.Public(),
		Rand:              crand.Reader,
	}
	var batch []core.BlindedEnvelope
	add := func(crowd, data string, n int) {
		for i := 0; i < n; i++ {
			env, err := client.Encode(crowd, []byte(data))
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, env)
		}
	}
	add("crowd-popular", "popular", 80)
	add("crowd-rare", "rare", 2)

	// Keep the input's bytes to compare with what Shuffler 1 forwards.
	type sent struct{ c1, blob string }
	inC2, inC1Blob := map[string]bool{}, map[sent]bool{}
	for _, e := range batch {
		inC2[string(e.CrowdC2)] = true
		inC1Blob[sent{string(e.CrowdC1), string(e.Blob)}] = true
	}
	s1 := &Shuffler1{Alpha: s1KP.X, Rand: newRNG()}
	mixed, _, err := RunEpoch(s1, core.Batch{Blinded: batch})
	if err != nil {
		t.Fatal(err)
	}
	blinded := mixed.Blinded
	if len(blinded) != 82 {
		t.Fatalf("shuffler 1 forwarded %d, want 82", len(blinded))
	}
	// Shuffler 1 must blind every C2; C1 (computed on its key by the client)
	// and the blob pass through as they arrived, together.
	for _, e := range blinded {
		if inC2[string(e.CrowdC2)] {
			t.Fatal("shuffler 1 forwarded an unblinded C2")
		}
		if !inC1Blob[sent{string(e.CrowdC1), string(e.Blob)}] {
			t.Fatal("shuffler 1 changed a C1 or a blob, or split the pair")
		}
	}

	s2 := &Shuffler2{Blinding: blindKP, Priv: s2Priv,
		Threshold: Threshold{Noise: dp.PaperThresholdNoise}, Rand: newRNG()}
	inner, stats, err := s2.Process(blinded)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crowds != 2 || stats.CrowdsForwarded != 1 {
		t.Errorf("stats = %+v, want 2 crowds, 1 forwarded", stats)
	}
	for _, ct := range inner {
		pt, err := anlz.Open(ct, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(pt) != "popular" {
			t.Fatalf("rare value leaked: %q", pt)
		}
	}
	if len(inner) < 55 || len(inner) > 80 {
		t.Errorf("forwarded %d of 80, want ~70", len(inner))
	}
}

// TestShuffler1DropsMalformed: a record whose C1 or C2 does not parse —
// off the curve, non-canonical, the identity's 65-byte form, short, empty —
// is kept by Admit with a nil C2 and dropped by ProcessEpoch, and the epoch's
// Stats count every record received, the malformed ones undecryptable and
// the rest forwarded. The
// identity's 1-byte form parses and is forwarded. Admit leaves its input as
// it was, and ProcessEpoch on a batch no Admit saw (the benchmark's staged
// replay) shuffles it without failing.
func TestShuffler1DropsMalformed(t *testing.T) {
	s1KP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	key, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client := &encoder.BlindedClient{Shuffler1Blinding: s1KP.H, Shuffler2Blinding: blindKP.H,
		Shuffler2Key: key.Public(), AnalyzerKey: key.Public(), Rand: crand.Reader}
	batch := make([]core.BlindedEnvelope, 16)
	for i := range batch {
		if batch[i], err = client.Encode("crowd", []byte(fmt.Sprintf("v-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	offCurve := func(b []byte) []byte { b = bytes.Clone(b); b[20] ^= 0x40; return b }
	nonCanonical := bytes.Repeat([]byte{0xff}, len(batch[0].CrowdC1))
	nonCanonical[0] = batch[0].CrowdC1[0]
	longIdentity := make([]byte, len(batch[0].CrowdC1))
	longIdentity[0], longIdentity[33] = batch[0].CrowdC1[0], 1
	spoil := map[int]func(e *core.BlindedEnvelope){
		1:  func(e *core.BlindedEnvelope) { e.CrowdC1 = offCurve(e.CrowdC1) },
		2:  func(e *core.BlindedEnvelope) { e.CrowdC2 = offCurve(e.CrowdC2) },
		4:  func(e *core.BlindedEnvelope) { e.CrowdC1 = nonCanonical },
		5:  func(e *core.BlindedEnvelope) { e.CrowdC2 = longIdentity },
		7:  func(e *core.BlindedEnvelope) { e.CrowdC1 = e.CrowdC1[:40] },
		8:  func(e *core.BlindedEnvelope) { e.CrowdC2 = nil },
		10: func(e *core.BlindedEnvelope) { e.CrowdC1, e.CrowdC2 = nil, offCurve(e.CrowdC2) },
		11: func(e *core.BlindedEnvelope) { e.CrowdC1 = []byte{0} }, // the identity parses
	}
	for i, f := range spoil {
		f(&batch[i])
	}
	raw := make([]core.BlindedEnvelope, len(batch))
	copy(raw, batch)

	s1 := &Shuffler1{Alpha: s1KP.X, Rand: newRNG()}
	admitted, err := s1.Admit(core.Batch{Blinded: batch})
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !bytes.Equal(batch[i].CrowdC1, raw[i].CrowdC1) || !bytes.Equal(batch[i].CrowdC2, raw[i].CrowdC2) {
			t.Fatalf("Admit changed its input's record %d", i)
		}
	}
	out, stats, err := s1.ProcessEpoch(admitted)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Received: 16, Undecryptable: 7, Forwarded: 9}); stats != want {
		t.Errorf("stats %+v, want %+v", stats, want)
	}
	forwarded := map[string]bool{}
	for _, e := range out.Blinded {
		forwarded[string(e.Blob)] = true
	}
	for i := range batch {
		_, spoilt := spoil[i]
		if want := !spoilt || i == 11; forwarded[string(batch[i].Blob)] != want {
			t.Errorf("record %d forwarded %v, want %v", i, !want, want)
		}
	}

	replay, stats, err := s1.ProcessEpoch(core.Batch{Blinded: raw})
	if err != nil || stats.Received != 16 || len(replay.Blinded) != 15 {
		t.Errorf("ProcessEpoch on raw input: %d forwarded, stats %+v, err %v; want the 15 records with a C2, no error",
			len(replay.Blinded), stats, err)
	}
}

// TestShuffler2PeelsOnlyWhatItForwards: hop 2 thresholds on pseudonyms before
// it opens anything, so only the records the threshold keeps are peeled.
// Crowd A (six honest reports, one with a flipped tag) passes a threshold of
// 5: the six are forwarded and the seventh counts as undecryptable. Crowd B's
// three records, whose blobs are random bytes, are suppressed unopened, and
// an envelope whose crowd ciphertext does not parse is undecryptable and in
// no crowd.
func TestShuffler2PeelsOnlyWhatItForwards(t *testing.T) {
	anlz, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2Priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client := &encoder.BlindedClient{Shuffler2Blinding: blindKP.H, Shuffler2Key: s2Priv.Public(),
		AnalyzerKey: anlz.Public(), Rand: crand.Reader}
	encode := func(crowd string) core.BlindedEnvelope {
		env, err := client.Encode(crowd, []byte("value-"+crowd))
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	var batch []core.BlindedEnvelope
	for i := 0; i < 7; i++ {
		batch = append(batch, encode("A"))
	}
	batch[6].Blob[len(batch[6].Blob)-1] ^= 1
	for i := 0; i < 3; i++ {
		env := encode("B")
		if _, err := crand.Read(env.Blob); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, env)
	}
	unparsable := encode("A")
	unparsable.CrowdC1 = bytes.Repeat([]byte{0xff}, len(unparsable.CrowdC1))
	batch = append(batch, unparsable)

	s2 := &Shuffler2{Blinding: blindKP, Priv: s2Priv, Threshold: Threshold{Naive: 5}, Rand: newRNG(), MinBatch: 1}
	out, stats, err := s2.Process(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Received: 11, Undecryptable: 2, Crowds: 2, CrowdsForwarded: 1, Forwarded: 6}
	if stats != want || len(out) != 6 {
		t.Fatalf("%d forwarded, stats %+v; want 6 forwarded, stats %+v", len(out), stats, want)
	}
	for _, ct := range out {
		if pt, err := anlz.Open(ct, nil); err != nil || string(pt) != "value-A" {
			t.Fatalf("forwarded %q (%v), want value-A", pt, err)
		}
	}
}

// TestSGXShufflerEndToEnd exercises attestation, oblivious shuffling, and
// in-enclave thresholding.
func TestSGXShufflerEndToEnd(t *testing.T) {
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	sh, quote, err := NewSGXShuffler(ca, Params{Threshold: Threshold{Noise: dp.PaperThresholdNoise}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Client-side verification (§4.1.1).
	if err := sgx.VerifyQuote(ca.PublicKey(), quote, SGXShufflerMeasurement); err != nil {
		t.Fatalf("attestation failed: %v", err)
	}
	attested, err := hybrid.ParsePublicKey(quote.ReportData)
	if err != nil {
		t.Fatal(err)
	}
	anlz, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client := &encoder.Client{ShufflerKey: attested, AnalyzerKey: anlz.Public(), Rand: crand.Reader}

	pad := func(s string) []byte {
		b := make([]byte, 64)
		copy(b, s)
		return b
	}
	var batch []core.Envelope
	add := func(crowd, data string, n int) {
		for i := 0; i < n; i++ {
			env, err := client.Encode(core.Report{CrowdID: core.HashCrowdID(crowd), Data: pad(data)})
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, env)
		}
	}
	add("app-1", "value-1", 150)
	add("app-2", "value-2", 60)
	add("app-3", "value-3", 4)

	inner, stats, err := sh.Process(batch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crowds != 3 || stats.CrowdsForwarded != 2 {
		t.Errorf("stats = %+v, want 3 crowds, 2 forwarded", stats)
	}
	seen := map[string]int{}
	for _, ct := range inner {
		pt, err := anlz.Open(ct, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[string(bytes.TrimRight(pt, "\x00"))]++
	}
	if seen["value-3"] != 0 {
		t.Error("below-threshold crowd leaked through SGX thresholding")
	}
	if seen["value-1"] < 120 || seen["value-2"] < 35 {
		t.Errorf("forwarded counts %v below expectation", seen)
	}
	if sh.ShuffleMetrics.Items != len(batch) {
		t.Errorf("shuffle metrics items = %d, want %d", sh.ShuffleMetrics.Items, len(batch))
	}
	if sh.Enclave.Counters().PubKeyOps < int64(len(batch)) {
		t.Error("outer-layer public-key decryptions not metered")
	}
}

// TestSGXShufflerSetsAsideRaggedRecords: the SGX shuffler shuffles the
// records of the batch's most common size and counts every other record as
// undecryptable, instead of failing the batch; on a tie the smaller size is
// shuffled.
func TestSGXShufflerSetsAsideRaggedRecords(t *testing.T) {
	ca, _ := sgx.NewCA()
	sh, _, err := NewSGXShuffler(ca, Params{Threshold: Threshold{}, Seed: 11, MinBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	anlz, _ := hybrid.GenerateKey(crand.Reader)
	client := &encoder.Client{ShufflerKey: sh.PublicKey(), AnalyzerKey: anlz.Public(), Rand: crand.Reader}
	long, _ := client.Encode(core.Report{CrowdID: core.HashCrowdID("c"), Data: make([]byte, 64)})
	short, _ := client.Encode(core.Report{CrowdID: core.HashCrowdID("c"), Data: make([]byte, 32)})
	innerSize := func(e core.Envelope) int { return len(e.Blob) - hybrid.Overhead - core.CrowdIDSize }
	for _, c := range []struct {
		batch []core.Envelope
		kept  core.Envelope
	}{
		{[]core.Envelope{long, short, long}, long},
		{[]core.Envelope{short, long, short}, short},
		{[]core.Envelope{long, short}, short}, // a tie
	} {
		out, stats, err := sh.Process(append([]core.Envelope(nil), c.batch...))
		if err != nil {
			t.Fatal(err)
		}
		want := len(c.batch) - 1
		if len(out) != want || stats.Forwarded != want || stats.Undecryptable != 1 || stats.Received != len(c.batch) {
			t.Errorf("%d forwarded, stats %+v; want %d forwarded and 1 undecryptable", len(out), stats, want)
		}
		for _, inner := range out {
			if len(inner) != innerSize(c.kept) {
				t.Errorf("forwarded a %d-byte inner ciphertext, want %d", len(inner), innerSize(c.kept))
			}
		}
	}
}

func TestSGXShufflerEmptyBatch(t *testing.T) {
	ca, _ := sgx.NewCA()
	sh, _, err := NewSGXShuffler(ca, Params{Threshold: Threshold{}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sh.Process(nil); !errors.Is(err, ErrBatchTooSmall) {
		t.Fatalf("err = %v, want ErrBatchTooSmall", err)
	}
}

// sgxBadBatch returns an SGX shuffler and seven uniform reports to it, the
// fifth with a flipped tag, plus the same seven with every tag intact.
func sgxBadBatch(t *testing.T) (sh *SGXShuffler, bad, honest []core.Envelope) {
	t.Helper()
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	if sh, _, err = NewSGXShuffler(ca, Params{Seed: 11, MinBatch: 1}); err != nil {
		t.Fatal(err)
	}
	anlz, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client := &encoder.Client{ShufflerKey: sh.PublicKey(), AnalyzerKey: anlz.Public(), Rand: crand.Reader}
	for i := 0; i < 7; i++ {
		env, err := client.Encode(core.Report{CrowdID: core.HashCrowdID("c"), Data: []byte("sgx")})
		if err != nil {
			t.Fatal(err)
		}
		honest = append(honest, env)
		bad = append(bad, core.Envelope{Blob: bytes.Clone(env.Blob)})
	}
	bad[4].Blob[len(bad[4].Blob)-1] ^= 1
	return sh, bad, honest
}

// TestSGXShufflerSkipsBadEnvelope: a report that does not open is a dummy
// inside the enclave, so the SGX shuffler forwards the six honest reports
// and counts the seventh as undecryptable instead of failing the batch.
func TestSGXShufflerSkipsBadEnvelope(t *testing.T) {
	sh, bad, _ := sgxBadBatch(t)
	out, stats, err := sh.Process(append([]core.Envelope(nil), bad...))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 || stats.Forwarded != 6 || stats.Undecryptable != 1 || stats.Received != 7 {
		t.Errorf("%d forwarded, stats %+v; want 6 forwarded and 1 undecryptable of 7", len(out), stats)
	}
}

// TestSGXShuffleAccessesHideBadEnvelope: the enclave's untrusted reads and
// writes during the Stash Shuffle are the same with and without a report
// that does not open, so its host learns neither that an input failed nor
// which one.
func TestSGXShuffleAccessesHideBadEnvelope(t *testing.T) {
	sh, bad, honest := sgxBadBatch(t)
	shuffle := func(batch []core.Envelope) sgx.Counters {
		blobs := make([][]byte, len(batch))
		for i := range batch {
			blobs[i] = batch[i].Blob
		}
		sh.Enclave.ResetCounters()
		st := oblivious.NewStashShuffle(sh.Enclave, outerPeelCodec{priv: sh.priv, enclave: sh.Enclave}, len(blobs))
		st.Seed = 11
		if _, err := st.Shuffle(blobs); err != nil {
			t.Fatal(err)
		}
		return sh.Enclave.Counters()
	}
	want := shuffle(honest)
	if got := shuffle(bad); got != want || want.BytesIn == 0 || want.BytesOut == 0 {
		t.Fatalf("enclave counters with a bad report %+v, all honest %+v", got, want)
	}
}
