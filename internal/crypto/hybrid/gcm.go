package hybrid

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"slices"
)

// AES-128-GCM, one message per call. Every AEAD of the package — both
// layers of a seal, every open, the symmetric seal — runs through sealGCM
// and openGCM, and each call stands alone: the key is fresh per envelope,
// so there is no key schedule or hash-key table to keep. Where aesni is
// set they call gcmAES128 (gcm_amd64.s), which expands the key, derives H
// and E_K(J0) and runs CTR and GHASH in registers and on its own frame, so
// an envelope's AEAD allocates nothing. Elsewhere — other GOARCHes, -tags
// purego, a CPU without AES-NI or PCLMULQDQ — they build crypto/aes and
// crypto/cipher's objects for the key, two allocations and a hash-key
// table per call; that path is the reference the kernel is tested
// against, byte for byte.

// aesni reports whether gcmAES128 runs. Package init sets it once, on amd64
// builds whose CPU has AES-NI and PCLMULQDQ (gcm_amd64.go), and nothing
// changes it afterwards except tests, which clear it to hold every AEAD to
// crypto/cipher.
var aesni bool

// sealGCM appends plaintext's ciphertext and tag under key and nonce, aad
// authenticated, to dst and returns the extended slice.
func sealGCM(dst []byte, key *[keyLen]byte, nonce *[nonceLen]byte, plaintext, aad []byte) []byte {
	if !aesni {
		return stdlibGCM(key).Seal(dst, nonce[:], plaintext, aad)
	}
	n := len(plaintext)
	ret := slices.Grow(dst, n+tagLen)[:len(dst)+n+tagLen]
	out := ret[len(dst):]
	gcmAES128(key, nonce, out[:n], plaintext, aad, (*[tagLen]byte)(out[n:]), false)
	return ret
}

// openGCM appends the plaintext of sealed (ciphertext and tag) under key
// and nonce, aad authenticated, to dst and returns the extended slice, or
// ErrDecrypt. The tag is compared in constant time before the plaintext is
// returned; on a mismatch the bytes written past len(dst) are zeroed.
func openGCM(dst []byte, key *[keyLen]byte, nonce *[nonceLen]byte, sealed, aad []byte) ([]byte, error) {
	if len(sealed) < tagLen {
		return nil, ErrDecrypt
	}
	if !aesni {
		pt, err := stdlibGCM(key).Open(dst, nonce[:], sealed, aad)
		if err != nil {
			return nil, ErrDecrypt
		}
		return pt, nil
	}
	n := len(sealed) - tagLen
	ret := slices.Grow(dst, n)[:len(dst)+n]
	out := ret[len(dst):]
	var tag [tagLen]byte
	gcmAES128(key, nonce, out, sealed[:n], aad, &tag, true)
	if subtle.ConstantTimeCompare(tag[:], sealed[n:]) != 1 {
		clear(out)
		return nil, ErrDecrypt
	}
	return ret, nil
}

// stdlibGCM builds crypto/cipher's AES-128-GCM for key.
func stdlibGCM(key *[keyLen]byte) cipher.AEAD {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // unreachable: every 16-byte key is an AES-128 key
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic(err) // unreachable: the block size is 16
	}
	return gcm
}
