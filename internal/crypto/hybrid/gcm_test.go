package hybrid

import (
	"bytes"
	"encoding/hex"
	"fmt"
	mrand "math/rand/v2"
	"testing"
)

// withGCM runs f on crypto/cipher's path and then on the kernel, naming
// which ran; the purego and non-amd64 builds run the first alone.
func withGCM(t *testing.T, f func(t *testing.T)) {
	t.Run("stdlib", func(t *testing.T) {
		saved := aesni
		aesni = false
		defer func() { aesni = saved }()
		f(t)
	})
	t.Run("aesni", func(t *testing.T) {
		if !aesni {
			t.Skip("AES-GCM kernel not run: no AES-NI and PCLMULQDQ on this CPU, or a build without gcm_amd64.s")
		}
		f(t)
	})
}

// requireKernel skips a test that compares the kernel with crypto/cipher
// where there is no kernel.
func requireKernel(t testing.TB) {
	if !aesni {
		t.Skip("AES-GCM kernel not run: no AES-NI and PCLMULQDQ on this CPU, or a build without gcm_amd64.s")
	}
}

func fill(rng *mrand.Rand, b []byte) []byte {
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

// TestGCMMatchesStdlib holds the kernel to crypto/cipher: for every
// plaintext length 0-600 (every tail length, the four-block passes and the
// single blocks) and every AAD length 0-80, under random keys and nonces,
// sealGCM's bytes equal crypto/cipher's and openGCM opens them, appending
// after whatever dst holds.
func TestGCMMatchesStdlib(t *testing.T) {
	requireKernel(t)
	rng := mrand.New(mrand.NewPCG(3, 4))
	buf := fill(rng, make([]byte, 600+80))
	prefix := []byte("prefix")
	for n := 0; n <= 600; n++ {
		for a := 0; a <= 80; a++ {
			var key [keyLen]byte
			var nonce [nonceLen]byte
			fill(rng, key[:])
			fill(rng, nonce[:])
			pt, aad := buf[:n], buf[600:600+a]
			want := stdlibGCM(&key).Seal(append([]byte{}, prefix...), nonce[:], pt, aad)
			got := sealGCM(append([]byte{}, prefix...), &key, &nonce, pt, aad)
			if !bytes.Equal(got, want) {
				t.Fatalf("seal, %d-byte plaintext, %d-byte aad:\n got %x\nwant %x", n, a, got, want)
			}
			opened, err := openGCM(append([]byte{}, prefix...), &key, &nonce, got[len(prefix):], aad)
			if err != nil || !bytes.Equal(opened[len(prefix):], pt) || !bytes.Equal(opened[:len(prefix)], prefix) {
				t.Fatalf("open, %d-byte plaintext, %d-byte aad: %x, %v", n, a, opened, err)
			}
		}
	}
}

// TestGCMOpenInPlace opens a ciphertext into its own bytes, as
// crypto/cipher allows: the kernel hashes before it decrypts.
func TestGCMOpenInPlace(t *testing.T) {
	withGCM(t, func(t *testing.T) {
		rng := mrand.New(mrand.NewPCG(5, 6))
		var key [keyLen]byte
		var nonce [nonceLen]byte
		fill(rng, key[:])
		fill(rng, nonce[:])
		for _, n := range []int{0, 1, 15, 16, 17, 63, 64, 65, 200} {
			pt := fill(rng, make([]byte, n))
			sealed := sealGCM(nil, &key, &nonce, pt, []byte("aad"))
			got, err := openGCM(sealed[:0], &key, &nonce, sealed, []byte("aad"))
			if err != nil || !bytes.Equal(got, pt) {
				t.Fatalf("%d bytes in place: %x, %v; want %x", n, got, err, pt)
			}
		}
	})
}

// TestGCMTamperZeroesOutput flips one bit of the tag, the ciphertext, the
// AAD or the nonce: the open fails with ErrDecrypt on both paths, and the
// bytes it wrote past dst's length are zero again.
func TestGCMTamperZeroesOutput(t *testing.T) {
	withGCM(t, func(t *testing.T) {
		rng := mrand.New(mrand.NewPCG(7, 8))
		var key [keyLen]byte
		var nonce [nonceLen]byte
		fill(rng, key[:])
		fill(rng, nonce[:])
		for _, n := range []int{0, 1, 16, 33, 150} {
			pt := fill(rng, make([]byte, n))
			aad := fill(rng, make([]byte, 20))
			sealed := sealGCM(nil, &key, &nonce, pt, aad)
			for _, tc := range []struct {
				what string
				bit  int
			}{{"tag", 8 * n}, {"ciphertext", 0}, {"aad", 0}, {"nonce", 0}} {
				if tc.what == "ciphertext" && n == 0 {
					continue
				}
				ct, ad, nc := bytes.Clone(sealed), bytes.Clone(aad), nonce
				switch tc.what {
				case "tag", "ciphertext":
					ct[tc.bit/8] ^= 1 << (tc.bit % 8)
				case "aad":
					ad[0] ^= 1
				case "nonce":
					nc[11] ^= 0x80
				}
				dst := bytes.Repeat([]byte{0xaa}, 4+n)[:4]
				got, err := openGCM(dst, &key, &nc, ct, ad)
				if err != ErrDecrypt || got != nil {
					t.Fatalf("%d bytes, tampered %s: %x, %v; want ErrDecrypt", n, tc.what, got, err)
				}
				if written := dst[4 : 4+n]; !bytes.Equal(written, make([]byte, n)) {
					t.Fatalf("%d bytes, tampered %s: plaintext bytes left behind: %x", n, tc.what, written)
				}
				if !bytes.Equal(dst, bytes.Repeat([]byte{0xaa}, 4)) {
					t.Fatalf("%d bytes, tampered %s: dst's own bytes changed: %x", n, tc.what, dst)
				}
			}
		}
		var short [tagLen - 1]byte
		if _, err := openGCM(nil, &key, &nonce, short[:], nil); err != ErrDecrypt {
			t.Fatalf("open of %d bytes: %v, want ErrDecrypt", len(short), err)
		}
	})
}

// gcmSpecCases are the AES-128 test cases 1-4 of McGrew and Viega, "The
// Galois/Counter Mode of Operation (GCM)", appendix B.
var gcmSpecCases = []struct {
	key, iv, pt, aad, ct, tag string
}{
	{
		key: "00000000000000000000000000000000", iv: "000000000000000000000000",
		tag: "58e2fccefa7e3061367f1d57a4e7455a",
	},
	{
		key: "00000000000000000000000000000000", iv: "000000000000000000000000",
		pt:  "00000000000000000000000000000000",
		ct:  "0388dace60b6a392f328c2b971b2fe78",
		tag: "ab6e47d42cec13bdf53a67b21257bddf",
	},
	{
		key: "feffe9928665731c6d6a8f9467308308", iv: "cafebabefacedbaddecaf888",
		pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72" +
			"1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
		ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e" +
			"21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
		tag: "4d5c2af327cd64a62cf35abd2ba6fab4",
	},
	{
		key: "feffe9928665731c6d6a8f9467308308", iv: "cafebabefacedbaddecaf888",
		pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72" +
			"1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
		aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
		ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e" +
			"21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
		tag: "5bc94fbc3221a5db94fae95ae7121a47",
	},
}

// TestGCMSpecVectors seals and opens the specification's AES-128 cases on
// both paths.
func TestGCMSpecVectors(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	withGCM(t, func(t *testing.T) {
		for i, tc := range gcmSpecCases {
			key, nonce := [keyLen]byte(unhex(tc.key)), [nonceLen]byte(unhex(tc.iv))
			pt, aad, want := unhex(tc.pt), unhex(tc.aad), unhex(tc.ct+tc.tag)
			if got := sealGCM(nil, &key, &nonce, pt, aad); !bytes.Equal(got, want) {
				t.Errorf("case %d: seal = %x, want %x", i+1, got, want)
			}
			if got, err := openGCM(nil, &key, &nonce, want, aad); err != nil || !bytes.Equal(got, pt) {
				t.Errorf("case %d: open = %x, %v; want %x", i+1, got, err, pt)
			}
		}
	})
}

// FuzzGCMMatchesStdlib seals with the kernel and crypto/cipher under the
// fuzzed key, nonce, plaintext and AAD, and opens the result, tampered in
// one fuzzed bit when flip says so, on both.
func FuzzGCMMatchesStdlib(f *testing.F) {
	f.Add(make([]byte, 16), make([]byte, 12), []byte{}, []byte{}, uint16(0), false)
	f.Add(bytes.Repeat([]byte{7}, 16), bytes.Repeat([]byte{9}, 12), bytes.Repeat([]byte("report"), 30), []byte("aad"), uint16(5), true)
	f.Add(bytes.Repeat([]byte{1}, 16), bytes.Repeat([]byte{2}, 12), make([]byte, 64), make([]byte, 17), uint16(600), true)
	f.Fuzz(func(t *testing.T, k, iv, pt, aad []byte, bit uint16, flip bool) {
		requireKernel(t)
		if len(k) < keyLen || len(iv) < nonceLen {
			return
		}
		key, nonce := [keyLen]byte(k), [nonceLen]byte(iv)
		want := stdlibGCM(&key).Seal(nil, nonce[:], pt, aad)
		got := sealGCM(nil, &key, &nonce, pt, aad)
		if !bytes.Equal(got, want) {
			t.Fatalf("seal:\n got %x\nwant %x", got, want)
		}
		if flip {
			got[int(bit)%len(got)] ^= 1 << (bit % 8)
		}
		wantPT, wantErr := stdlibGCM(&key).Open(nil, nonce[:], got, aad)
		gotPT, gotErr := openGCM(nil, &key, &nonce, got, aad)
		if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(gotPT, wantPT) {
			t.Fatalf("open: %x, %v; crypto/cipher %x, %v", gotPT, gotErr, wantPT, wantErr)
		}
	})
}

// BenchmarkEnvelopeAEAD prices one envelope's AEAD — a fresh key per call,
// as every seal and open has — on the kernel and on crypto/cipher, at the
// sizes of an inner layer, an outer layer and a larger report.
func BenchmarkEnvelopeAEAD(b *testing.B) {
	var key [keyLen]byte
	var nonce [nonceLen]byte
	for _, n := range []int{80, 160, 260} {
		pt := make([]byte, n)
		sealed := sealGCM(nil, &key, &nonce, pt, nil)
		dst := make([]byte, 0, n+tagLen)
		for _, path := range []string{"aesni", "stdlib"} {
			run := func(b *testing.B, f func()) {
				if path == "aesni" {
					requireKernel(b)
				} else {
					saved := aesni
					aesni = false
					defer func() { aesni = saved }()
				}
				b.ReportAllocs()
				b.SetBytes(int64(n))
				for b.Loop() {
					f()
				}
			}
			b.Run(fmt.Sprintf("seal/%s/%dB", path, n), func(b *testing.B) {
				run(b, func() { sealGCM(dst, &key, &nonce, pt, nil) })
			})
			b.Run(fmt.Sprintf("open/%s/%dB", path, n), func(b *testing.B) {
				run(b, func() {
					if _, err := openGCM(dst, &key, &nonce, sealed, nil); err != nil {
						b.Fatal(err)
					}
				})
			})
		}
	}
}
