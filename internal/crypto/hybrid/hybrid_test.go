package hybrid

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	mrand "math/rand/v2"
	"testing"
	"testing/quick"

	"prochlo/internal/crypto/group"
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

func TestSymmetricRoundTrip(t *testing.T) {
	f := func(pt []byte) bool {
		var key [16]byte
		rand.Read(key[:])
		ct, err := SymmetricSeal(rand.Reader, &key, pt)
		if err != nil {
			return false
		}
		if len(ct) != len(pt)+SymmetricOverhead {
			return false
		}
		got, err := SymmetricOpen(&key, ct)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSymmetricWrongKey(t *testing.T) {
	var k1, k2 [16]byte
	k2[0] = 1
	ct, err := SymmetricSeal(rand.Reader, &k1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SymmetricOpen(&k2, ct); err == nil {
		t.Fatal("wrong symmetric key accepted")
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

// hostileRecord turns an honest sealed record into hostile variant kind, or
// returns it unchanged when the group has no such variant.
func hostileRecord(t *testing.T, priv *PrivateKey, ct []byte, kind int, aad []byte) []byte {
	t.Helper()
	ct = append([]byte(nil), ct...)
	x, y := ct[1:33], ct[33:65]
	ed := priv.g.Name() == "ristretto255"
	switch kind {
	case 0: // short blob
		return ct[:Overhead-1]
	case 1: // non-canonical coordinate (out of field range on both groups)
		for i := range x {
			x[i] = 0xff
		}
	case 2: // off-curve point
		y[7] ^= 1
	case 3: // identity in the long form
		clear(x)
		clear(y)
		if ed {
			y[0] = 1 // (0, 1), little-endian
		}
	case 4: // flipped tag
		ct[len(ct)-1] ^= 1
	case 5, 6:
		// Small-order header (0, -1): it decodes, and cofactor clearing sends
		// it to the identity, so the "shared secret" is public. Kind 5 leaves
		// the honest body (fails authentication); kind 6 re-seals under the
		// public secret, so the record opens — on both paths or neither.
		if !ed {
			return ct
		}
		clear(x)
		for i := range y {
			y[i] = 0xff
		}
		y[0], y[31] = 0xec, 0x7f // p - 1, little-endian
		if kind == 6 {
			hdr := ct[:pubKeyLen+nonceLen]
			sc := scratchPool.Get().(*scratch)
			gcm, err := newAEAD(sc.sealKey([]byte{0}, hdr[:pubKeyLen], priv.publicBytes()))
			scratchPool.Put(sc)
			if err != nil {
				t.Fatal(err)
			}
			return gcm.Seal(hdr, hdr[pubKeyLen:], []byte("forged under the identity secret"), aad)
		}
	}
	return ct
}

// TestOpenBatchMatchesOpenInto pins the chunked open kernel to the solo
// path: for every record the plaintext bytes and the error are those
// OpenInto produces, whatever the batch size relative to the chunk, the
// worker count, and the hostile headers sprinkled through the batch.
func TestOpenBatchMatchesOpenInto(t *testing.T) {
	aad := []byte("aad")
	for _, g := range []group.Group{group.Ristretto255, group.P256} {
		priv, err := GenerateKeyGroup(g, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, openChunk - 1, openChunk, openChunk + 1, 2000} {
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
				// the forged record opens; P-256 has no small-order points,
				// so kinds 5 and 6 stay honest there
				opens := kind == -1 || kind == 6 || (kind == 5 && g == group.P256)
				if opens != (wantErr[i] == nil) {
					t.Fatalf("%s: hostile kind %d at record %d: OpenInto error %v", g.Name(), kind, i, wantErr[i])
				}
			}
			for _, workers := range []int{1, 2, 0} {
				pts, errs := priv.OpenBatch(sealed, aad, workers)
				if len(pts) != n || len(errs) != n {
					t.Fatalf("%s n=%d: OpenBatch returned %d plaintexts, %d errors", g.Name(), n, len(pts), len(errs))
				}
				for i := range sealed {
					if errs[i] != wantErr[i] {
						t.Fatalf("%s n=%d workers=%d: record %d error %v, OpenInto %v", g.Name(), n, workers, i, errs[i], wantErr[i])
					}
					if !bytes.Equal(pts[i], want[i]) || (errs[i] != nil && pts[i] != nil) {
						t.Fatalf("%s n=%d workers=%d: record %d opened to %q, OpenInto %q", g.Name(), n, workers, i, pts[i], want[i])
					}
				}
			}
		}
	}
}

// TestScratchKeyMatchesReferenceHKDF pins the pooled-scratch key derivation
// to the straightforward RFC 5869 implementation it replaced.
func TestScratchKeyMatchesReferenceHKDF(t *testing.T) {
	shared := bytes.Repeat([]byte{0xab}, 32)
	ephPub := bytes.Repeat([]byte{0x01}, pubKeyLen)
	rcptPub := bytes.Repeat([]byte{0x02}, pubKeyLen)
	salt := append(append([]byte{}, ephPub...), rcptPub...)
	want := hkdf(shared, salt, hkdfInfo, keyLen)
	sc := scratchPool.Get().(*scratch)
	got := append([]byte{}, sc.sealKey(shared, ephPub, rcptPub)...)
	scratchPool.Put(sc)
	if !bytes.Equal(got, want) {
		t.Fatalf("scratch sealKey = %x, reference HKDF = %x", got, want)
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

// TestBothGroupBackends runs the core seal/open contract on each group
// backend explicitly (the tests above exercise whichever is the default).
func TestBothGroupBackends(t *testing.T) {
	for _, g := range []group.Group{group.P256, group.Ristretto255} {
		t.Run(g.Name(), func(t *testing.T) {
			priv, err := GenerateKeyGroup(g, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := Seal(rand.Reader, priv.Public(), []byte("payload"), []byte("aad"))
			if err != nil {
				t.Fatal(err)
			}
			if len(ct) != len("payload")+Overhead {
				t.Fatalf("overhead = %d", len(ct)-len("payload"))
			}
			got, err := priv.Open(ct, []byte("aad"))
			if err != nil || string(got) != "payload" {
				t.Fatalf("open = %q, %v", got, err)
			}
			// public key round trip through the wire encoding
			pk, err := ParsePublicKey(priv.Public().Bytes())
			if err != nil {
				t.Fatal(err)
			}
			ct2, err := Seal(rand.Reader, pk, []byte("via parsed"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := priv.Open(ct2, nil); err != nil {
				t.Fatal("parsed public key mismatch")
			}
			// private key persistence round trip
			reloaded, err := ParsePrivateKeyGroup(g, priv.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reloaded.Open(ct, []byte("aad")); err != nil {
				t.Fatal("reloaded private key cannot decrypt")
			}
			if priv.Group().Name() != g.Name() || pk.Group().Name() != g.Name() {
				t.Fatal("Group() accessor mismatch")
			}
		})
	}
}

// TestQueuedSealMatchesSealInto pins the split seal — QueueSeal into one
// group.CombBatch shared by every record and by a second recipient's seals,
// then PendingSeal.Seal — and SealBatch at every worker count to the solo
// SealInto construction: same per-record rng streams, identical bytes.
func TestQueuedSealMatchesSealInto(t *testing.T) {
	for _, g := range []group.Group{group.P256, group.Ristretto255} {
		t.Run(g.Name(), func(t *testing.T) {
			priv, err := GenerateKeyGroup(g, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			other, err := GenerateKeyGroup(g, rand.Reader)
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
			b := group.NewCombBatch(g, 4*n)
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
			b.Normalize()
			for i := range pending {
				got, err := pending[i].Seal(b, nil, pts[i], []byte("aad"))
				if err != nil {
					t.Fatal(err)
				}
				check("queued", i, got)
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

// TestSealedEnvelopeKnownAnswer pins one envelope per group: sealed to the
// key 0x0102…20 from the rng stream 0, 1, 2, …, the bytes below came out of
// the commit before P-256 became the stdlib-backed reference. Sealing must
// still produce them (scalar draw, base and table multiplication, encodings,
// key derivation) and the key must still open them, on both sides of that
// change and of any later ristretto255 kernel.
func TestSealedEnvelopeKnownAnswer(t *testing.T) {
	for _, kat := range []struct {
		g      group.Group
		sealed string
	}{
		{group.P256, "047a593180860c4037c83c12749845c8ee1424dd297fadcb895e358255d2c7d2b2a8ca25580f2626fe579062ff1b99ff91c24a0da06fb32b5be20148c9249f5650202122232425262728292a2b1e3a55c3a8de0aa0c7db9f5bd87966ef0c9aa1760d4fb44abf88ed4d"},
		{group.Ristretto255, "05d8ce32861bc717fb1e525458f9968d1341f9448da362fb68c1617fa931fd8e20559d101ce6c084337a34c8a381c6a20a03c1107fcfa4d88e267a9eb712988950404142434445464748494a4bc7e84e47a9fb3057469f65c04bca81782151b50b6e2b56daab5e1f09"},
	} {
		t.Run(kat.g.Name(), func(t *testing.T) {
			key := make([]byte, group.ScalarSize)
			stream := make([]byte, 128)
			for i := range key {
				key[i] = byte(i + 1)
			}
			for i := range stream {
				stream[i] = byte(i)
			}
			priv, err := ParsePrivateKeyGroup(kat.g, key)
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
