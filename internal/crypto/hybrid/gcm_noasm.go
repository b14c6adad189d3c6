//go:build !amd64 || purego

package hybrid

// gcmAES128 is the kernel of gcm_amd64.s, which this build lacks; aesni
// stays false, so nothing calls it.
func gcmAES128(key *[keyLen]byte, nonce *[nonceLen]byte, dst, src, aad []byte, tag *[tagLen]byte, open bool) {
	panic("hybrid: no AES-GCM kernel in this build")
}
