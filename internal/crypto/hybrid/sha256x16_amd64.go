//go:build amd64 && !purego

// The lane kernels of keylanes.go: sixteen SHA-256 computations per
// instruction on AVX-512F (sha256x16_amd64.s, written by sha256x16_gen.go).
// They exist in this build variant only; whether a process runs them is
// decided once, at init, by the group package's CPU gate.

package hybrid

import "prochlo/internal/crypto/group"

//go:generate sh -c "go run sha256x16_gen.go > sha256x16_amd64.s"

func init() {
	if group.HasAVX512F() {
		laneHKDF = hkdf16
	}
}

// hkdf16 runs the sixteen derivations laid out in l and writes their keys
// to l.key.
//
//go:noescape
func hkdf16(l *hkdfLanes)

// sha256x16 compresses n lane blocks into sixteen chaining values. hkdf16
// runs the same compression; this form exists to test it against
// crypto/sha256.
//
//go:noescape
func sha256x16(h *[8][lanes]uint32, blocks *laneBlock, n int)
