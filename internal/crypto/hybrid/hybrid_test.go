package hybrid

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	mrand "math/rand/v2"
	"testing"

	"prochlo/internal/crypto/group"
	"prochlo/internal/parallel"
)

func TestSealOpenRoundTrip(t *testing.T) {
	priv, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("report payload")
	aad := []byte("crowd-id")
	ct, err := Seal(rand.Reader, priv.Public(), pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := priv.Open(ct, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip = %q, want %q", got, pt)
	}
}

func TestOverheadConstant(t *testing.T) {
	priv, _ := GenerateKey(rand.Reader)
	for _, n := range []int{0, 1, 64, 1000} {
		pt := make([]byte, n)
		ct, err := Seal(rand.Reader, priv.Public(), pt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ct) != n+Overhead {
			t.Errorf("len(ct) for %d-byte plaintext = %d, want %d", n, len(ct), n+Overhead)
		}
	}
}

func TestWrongKeyFails(t *testing.T) {
	a, _ := GenerateKey(rand.Reader)
	b, _ := GenerateKey(rand.Reader)
	ct, err := Seal(rand.Reader, a.Public(), []byte("secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(ct, nil); err == nil {
		t.Fatal("wrong private key decrypted ciphertext")
	}
}

func TestWrongAADFails(t *testing.T) {
	priv, _ := GenerateKey(rand.Reader)
	ct, err := Seal(rand.Reader, priv.Public(), []byte("secret"), []byte("aad-1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := priv.Open(ct, []byte("aad-2")); err == nil {
		t.Fatal("modified AAD accepted")
	}
}

func TestTamperDetected(t *testing.T) {
	priv, _ := GenerateKey(rand.Reader)
	ct, err := Seal(rand.Reader, priv.Public(), []byte("secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 70, len(ct) - 1} {
		mod := append([]byte{}, ct...)
		mod[i] ^= 1
		if _, err := priv.Open(mod, nil); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
}

func TestTruncatedCiphertext(t *testing.T) {
	priv, _ := GenerateKey(rand.Reader)
	if _, err := priv.Open([]byte("short"), nil); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	priv, _ := GenerateKey(rand.Reader)
	b := priv.Public().Bytes()
	pk, err := ParsePublicKey(b)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Seal(rand.Reader, pk, []byte("via parsed key"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := priv.Open(ct, nil); err != nil {
		t.Fatal("parsed public key does not match private key")
	}
}

func TestParsePublicKeyRejectsGarbage(t *testing.T) {
	if _, err := ParsePublicKey([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage public key accepted")
	}
}

// TestPrivateKeyRoundTrip is the restart-persistence contract: a daemon key
// reloaded from its serialized scalar must decrypt envelopes sealed to the
// original key.
func TestPrivateKeyRoundTrip(t *testing.T) {
	priv, _ := GenerateKey(rand.Reader)
	reloaded, err := ParsePrivateKey(priv.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Seal(rand.Reader, priv.Public(), []byte("sealed before the restart"), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reloaded.Open(ct, nil)
	if err != nil {
		t.Fatalf("reloaded private key cannot decrypt: %v", err)
	}
	if string(got) != "sealed before the restart" {
		t.Fatalf("plaintext = %q", got)
	}
	if _, err := ParsePrivateKey([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage private key accepted")
	}
}

func TestNestedTwoLayers(t *testing.T) {
	analyzer, _ := GenerateKey(rand.Reader)
	shuffler, _ := GenerateKey(rand.Reader)
	data := []byte("api-bitvector-fragment")
	inner, err := Seal(rand.Reader, analyzer.Public(), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	crowdID := []byte("app:example")
	outerPayload := append(append([]byte{}, crowdID...), inner...)
	outer, err := Seal(rand.Reader, shuffler.Public(), outerPayload, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffler peels the outer layer; sees crowd ID but not data.
	peeled, err := shuffler.Open(outer, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(peeled[:len(crowdID)], crowdID) {
		t.Fatal("crowd ID corrupted through outer layer")
	}
	// Analyzer cannot open the outer layer.
	if _, err := analyzer.Open(outer, nil); err == nil {
		t.Fatal("analyzer opened shuffler-layer ciphertext")
	}
	// Analyzer opens the inner layer.
	got, err := analyzer.Open(peeled[len(crowdID):], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("inner payload corrupted")
	}
}

func TestOpenIntoAppends(t *testing.T) {
	priv, _ := GenerateKey(rand.Reader)
	ct, err := Seal(rand.Reader, priv.Public(), []byte("payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix:")
	got, err := priv.OpenInto(append([]byte{}, prefix...), ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "prefix:payload" {
		t.Fatalf("OpenInto = %q, want %q", got, "prefix:payload")
	}
	// Reusing the same backing array must not reallocate.
	buf := make([]byte, 0, 64)
	first, err := priv.OpenInto(buf, ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &buf[:1][0] {
		t.Error("OpenInto reallocated despite sufficient capacity")
	}
}

// hostileRecord turns an honest sealed record into hostile variant kind.
func hostileRecord(t *testing.T, priv *PrivateKey, ct []byte, kind int, aad []byte) []byte {
	t.Helper()
	ct = append([]byte(nil), ct...)
	x, y := ct[1:33], ct[33:65]
	switch kind {
	case 0: // short blob
		return ct[:Overhead-1]
	case 1: // non-canonical coordinate (out of field range)
		for i := range x {
			x[i] = 0xff
		}
	case 2: // off-curve point
		y[7] ^= 1
	case 3: // identity in the long form
		clear(x)
		clear(y)
		y[0] = 1 // (0, 1), little-endian
	case 4: // flipped tag
		ct[len(ct)-1] ^= 1
	case 5, 6:
		// Small-order header (0, -1): it decodes, and cofactor clearing sends
		// it to the identity, so the "shared secret" is public. Kind 5 leaves
		// the honest body (fails authentication); kind 6 re-seals under the
		// public secret, so the record opens — on both paths or neither.
		clear(x)
		for i := range y {
			y[i] = 0xff
		}
		y[0], y[31] = 0xec, 0x7f // p - 1, little-endian
		if kind == 6 {
			hdr := ct[:pubKeyLen+nonceLen]
			d := derivers.Get().(*keyDeriver)
			key := [keyLen]byte(d.sealKey(g.Identity(), hdr[:pubKeyLen], priv.publicBytes()))
			derivers.Put(d)
			return sealGCM(hdr, &key, nonceOf(hdr), []byte("forged under the identity secret"), aad)
		}
	}
	return ct
}

// TestOpenBatchMatchesOpenInto pins the ranged open kernel to the solo
// path: for every record the plaintext bytes and the error are those
// OpenInto produces, whatever the batch size relative to RangeMax, the
// worker count, and the hostile headers sprinkled through the batch.
func TestOpenBatchMatchesOpenInto(t *testing.T) {
	aad := []byte("aad")
	priv, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, parallel.RangeMax - 1, parallel.RangeMax, parallel.RangeMax + 1, 2*parallel.RangeMax + 1, 2000} {
		plain := make([][]byte, n)
		for i := range plain {
			plain[i] = []byte{byte(i), byte(i >> 8), 'x'}[:1+i%3]
		}
		sealed, err := SealBatch(rand.Reader, priv.Public(), plain, aad, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, n)
		wantErr := make([]error, n)
		for i := range sealed {
			kind := -1
			if i%5 == 3 {
				kind = (i / 5) % 7
				sealed[i] = hostileRecord(t, priv, sealed[i], kind, aad)
			}
			want[i], wantErr[i] = priv.OpenInto(nil, sealed[i], aad)
			// only the honest and the forged records open
			if opens := kind == -1 || kind == 6; opens != (wantErr[i] == nil) {
				t.Fatalf("hostile kind %d at record %d: OpenInto error %v", kind, i, wantErr[i])
			}
		}
		for _, workers := range []int{1, 2, 0} {
			pts, errs := priv.OpenBatch(sealed, aad, workers)
			if len(pts) != n || len(errs) != n {
				t.Fatalf("n=%d: OpenBatch returned %d plaintexts, %d errors", n, len(pts), len(errs))
			}
			for i := range sealed {
				if errs[i] != wantErr[i] {
					t.Fatalf("n=%d workers=%d: record %d error %v, OpenInto %v", n, workers, i, errs[i], wantErr[i])
				}
				if !bytes.Equal(pts[i], want[i]) || (errs[i] != nil && pts[i] != nil) {
					t.Fatalf("n=%d workers=%d: record %d opened to %q, OpenInto %q", n, workers, i, pts[i], want[i])
				}
			}
		}
	}
}

// TestHKDFRFC5869 pins the reference hkdf to the standard: the SHA-256 test
// cases of RFC 5869, Appendix A.1-A.3.
func TestHKDFRFC5869(t *testing.T) {
	seq := func(from, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(from + i)
		}
		return b
	}
	ikm := bytes.Repeat([]byte{0x0b}, 22)
	for _, tc := range []struct {
		name            string
		ikm, salt, info []byte
		length          int
		okm             string
	}{
		{"A.1", ikm, seq(0x00, 13), seq(0xf0, 10), 42,
			"3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"},
		{"A.2", seq(0x00, 80), seq(0x60, 80), seq(0xb0, 80), 82,
			"b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c" +
				"59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71" +
				"cc30c58179ec3e87c14c01d5c1f3434f1d87"},
		{"A.3", ikm, nil, nil, 42,
			"8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"},
	} {
		if got := hex.EncodeToString(hkdf(tc.ikm, tc.salt, tc.info, tc.length)); got != tc.okm {
			t.Errorf("RFC 5869 %s: OKM = %s, want %s", tc.name, got, tc.okm)
		}
	}
}

// TestScratchKeyMatchesReferenceHKDF pins the scalar key derivation — the
// reference the lanes are held to — to the straightforward RFC 5869
// implementation it replaced (itself pinned by TestHKDFRFC5869).
func TestScratchKeyMatchesReferenceHKDF(t *testing.T) {
	ephPub := bytes.Repeat([]byte{0x01}, pubKeyLen)
	rcptPub := bytes.Repeat([]byte{0x02}, pubKeyLen)
	salt := append(append([]byte{}, ephPub...), rcptPub...)
	for _, shared := range []group.Element{g.BaseMul(group.Scalar{31: 0xab}), g.Identity()} {
		want := hkdf(g.SharedBytes(nil, shared), salt, hkdfInfo, keyLen)
		d := derivers.Get().(*keyDeriver)
		got := append([]byte{}, d.sealKey(shared, ephPub, rcptPub)...)
		derivers.Put(d)
		if !bytes.Equal(got, want) {
			t.Fatalf("scratch sealKey = %x, reference HKDF = %x", got, want)
		}
	}
}

// TestSealIntoMatchesSeal pins SealInto to Seal: fed the same deterministic
// rng stream, the two must produce identical ciphertexts — SealInto is the
// batch fast path, not a different construction.
func TestSealIntoMatchesSeal(t *testing.T) {
	priv, _ := GenerateKey(rand.Reader)
	pub := priv.Public()
	var seed [32]byte
	copy(seed[:], "seal-into-equivalence-seed......")
	pt := []byte("the report payload")
	aad := []byte("aad")
	want, err := Seal(mrand.NewChaCha8(seed), pub, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SealInto(mrand.NewChaCha8(seed), pub, nil, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("SealInto output differs from Seal on the same rng stream")
	}
	if _, err := priv.Open(got, aad); err != nil {
		t.Fatal(err)
	}
}

func TestSealIntoAppends(t *testing.T) {
	priv, _ := GenerateKey(rand.Reader)
	pub := priv.Public()
	prefix := []byte("crowd-id")
	pt := []byte("payload")
	out, err := SealInto(rand.Reader, pub, append([]byte{}, prefix...), pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) {
		t.Fatal("SealInto corrupted the dst prefix")
	}
	got, err := priv.Open(out[len(prefix):], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip = %q, want %q", got, pt)
	}
	// With sufficient capacity, SealInto must not reallocate.
	buf := make([]byte, 0, len(pt)+Overhead)
	sealed, err := SealInto(rand.Reader, pub, buf, pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &sealed[0] != &buf[:1][0] {
		t.Error("SealInto reallocated despite sufficient capacity")
	}
}

// TestSealBatchDeterministic checks the batch contract: with a seeded rng,
// SealBatch output is byte-identical at every worker count, and every
// ciphertext round-trips.
func TestSealBatchDeterministic(t *testing.T) {
	priv, _ := GenerateKey(rand.Reader)
	pub := priv.Public()
	const n = 40
	pts := make([][]byte, n)
	for i := range pts {
		pts[i] = bytes.Repeat([]byte{byte(i)}, i%29)
	}
	var seed [32]byte
	seed[0] = 7
	run := func(workers int) [][]byte {
		out, err := SealBatch(mrand.NewChaCha8(seed), pub, pts, []byte("batch-aad"), workers)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 0} {
		got := run(workers)
		for i := range ref {
			if !bytes.Equal(ref[i], got[i]) {
				t.Fatalf("workers=%d: record %d diverges from serial reference", workers, i)
			}
		}
	}
	for i, ct := range ref {
		got, err := priv.Open(ct, []byte("batch-aad"))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, pts[i]) {
			t.Fatalf("record %d round trip mismatch", i)
		}
	}
}

// TestQueuedSealMatchesSealInto pins the split seal — QueueSeal into one
// group.CombBatch shared by every record and by a second recipient's seals,
// then PendingSeal.Seal — and SealBatch at every worker count to the solo
// SealInto construction: same per-record rng streams, identical bytes.
func TestQueuedSealMatchesSealInto(t *testing.T) {
	t.Run("ristretto255", func(t *testing.T) {
		priv, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		other, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pub := priv.Public()
		const n = 23
		var master [32]byte
		seeds, err := DrawSeeds(mrand.NewChaCha8(master), n)
		if err != nil {
			t.Fatal(err)
		}
		pts := make([][]byte, n)
		want := make([][]byte, n)
		for i := range want {
			pts[i] = []byte{byte(i)}
			if want[i], err = SealInto(seeds.RNG(i), pub, nil, pts[i], []byte("aad")); err != nil {
				t.Fatal(err)
			}
		}
		check := func(name string, i int, got []byte) {
			t.Helper()
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("%s record %d: diverges from SealInto", name, i)
			}
			if _, err := priv.Open(got, []byte("aad")); err != nil {
				t.Fatalf("%s record %d: %v", name, i, err)
			}
		}

		// slots 4i, 4i+1 seal to pub; 4i+2, 4i+3 to another key
		b := group.NewCombBatch(4 * n)
		pending := make([]PendingSeal, n)
		var discard PendingSeal
		for i := range pending {
			rng := seeds.RNG(i)
			if err := pub.QueueSeal(&pending[i], rng, b, 4*i); err != nil {
				t.Fatal(err)
			}
			if err := other.Public().QueueSeal(&discard, rng, b, 4*i+2); err != nil {
				t.Fatal(err)
			}
		}
		b.Run(0, 4*n)
		DeriveKeys(b, 0, pending)
		for i := range pending {
			check("queued", i, pending[i].Seal(nil, pts[i], []byte("aad")))
		}

		for _, workers := range []int{1, 4} {
			got, err := SealBatch(mrand.NewChaCha8(master), pub, pts, []byte("aad"), workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				check(fmt.Sprintf("SealBatch workers=%d", workers), i, got[i])
			}
		}
	})
}

// TestOpenRejectsIdentityHeader: an all-identity ephemeral key must fail
// cleanly (it would make the shared secret independent of the private key).
func TestOpenRejectsIdentityHeader(t *testing.T) {
	priv, _ := GenerateKey(rand.Reader)
	ct, err := Seal(rand.Reader, priv.Public(), []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pubKeyLen; i++ {
		ct[i] = 0
	}
	if _, err := priv.Open(ct, nil); err == nil {
		t.Fatal("identity ephemeral header accepted")
	}
}

// TestSealedEnvelopeKnownAnswer pins one envelope: sealed to the key
// 0x0102…20 from the rng stream 0, 1, 2, …, sealing must produce the bytes
// below (scalar draw, base and table multiplication, encodings, key
// derivation) and the key must open them, across any kernel change.
func TestSealedEnvelopeKnownAnswer(t *testing.T) {
	for _, kat := range []struct {
		name, sealed string
	}{
		{"ristretto255", "05d8ce32861bc717fb1e525458f9968d1341f9448da362fb68c1617fa931fd8e20559d101ce6c084337a34c8a381c6a20a03c1107fcfa4d88e267a9eb712988950404142434445464748494a4bc7e84e47a9fb3057469f65c04bca81782151b50b6e2b56daab5e1f09"},
	} {
		t.Run(kat.name, func(t *testing.T) {
			key := make([]byte, group.ScalarSize)
			stream := make([]byte, 128)
			for i := range key {
				key[i] = byte(i + 1)
			}
			for i := range stream {
				stream[i] = byte(i)
			}
			priv, err := ParsePrivateKey(key)
			if err != nil {
				t.Fatal(err)
			}
			sealed, err := Seal(bytes.NewReader(stream), priv.Public(), []byte("known answer"), []byte("aad"))
			if err != nil {
				t.Fatal(err)
			}
			if hex.EncodeToString(sealed) != kat.sealed {
				t.Errorf("sealed = %x, want %s", sealed, kat.sealed)
			}
			pinned, err := hex.DecodeString(kat.sealed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := priv.Open(pinned, []byte("aad"))
			if err != nil || string(got) != "known answer" {
				t.Fatalf("pinned envelope opened to %q, %v", got, err)
			}
		})
	}
}
