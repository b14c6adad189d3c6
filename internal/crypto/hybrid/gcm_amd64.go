//go:build amd64 && !purego

// The AES-128-GCM kernel of gcm.go (gcm_amd64.s, written by gcm_gen.go).
// It exists in this build variant only; whether a process runs it is
// decided once, at init, by the group package's CPU gate.

package hybrid

import "prochlo/internal/crypto/group"

//go:generate sh -c "go run gcm_gen.go > gcm_amd64.s"

func init() {
	aesni = group.HasAESCLMUL()
}

// gcmAES128 sets dst[:len(src)] to src under AES-128 in counter mode from
// inc32(nonce||1) and *tag to the GCM tag over aad and the ciphertext —
// dst when sealing, src when opening. dst may be src.
//
//go:noescape
func gcmAES128(key *[keyLen]byte, nonce *[nonceLen]byte, dst, src, aad []byte, tag *[tagLen]byte, open bool)
