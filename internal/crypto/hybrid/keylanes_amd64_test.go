//go:build amd64 && !purego

package hybrid

import (
	"crypto/sha256"
	"encoding/binary"
	mrand "math/rand/v2"
	"testing"
)

// TestSHA256LanesMatchStdlib holds the lane compression — the one hkdf16
// runs eleven times — to crypto/sha256: sixteen distinct messages of one to
// eleven blocks each, padded and laid out lane-major, hash to what
// sha256.Sum256 returns for each.
func TestSHA256LanesMatchStdlib(t *testing.T) {
	if laneHKDF == nil {
		t.Skip("SHA-256 lanes not run: the CPU does not report AVX512F")
	}
	rng := mrand.New(mrand.NewPCG(1, 2))
	for nb := 1; nb <= 11; nb++ {
		blocks := make([]laneBlock, nb)
		var msgs [lanes][]byte
		for i := range msgs {
			// every length whose padding ends in block nb, by lane
			msg := make([]byte, 64*nb-9-i*3)
			for j := range msg {
				msg[j] = byte(rng.Uint32())
			}
			msgs[i] = msg
			padded := append(append([]byte{}, msg...), 0x80)
			padded = append(padded, make([]byte, 64*nb-8-len(padded))...)
			padded = binary.BigEndian.AppendUint64(padded, uint64(len(msg))*8)
			for w := 0; w < 16*nb; w++ {
				blocks[w/16][w%16][i] = binary.BigEndian.Uint32(padded[4*w:])
			}
		}
		var h [8][lanes]uint32
		for w := range h {
			for i := range h[w] {
				h[w][i] = sha256IV[w]
			}
		}
		sha256x16(&h, &blocks[0], nb)
		for i, msg := range msgs {
			want := sha256.Sum256(msg)
			for w := range h {
				if got := h[w][i]; got != binary.BigEndian.Uint32(want[4*w:]) {
					t.Fatalf("%d blocks, lane %d (%d bytes): word %d = %08x, crypto/sha256 %x", nb, i, len(msg), w, got, want)
				}
			}
		}
	}
}

// sha256IV is SHA-256's initial hash value (FIPS 180-4, 5.3.3).
var sha256IV = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
