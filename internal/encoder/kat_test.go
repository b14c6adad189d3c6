package encoder

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
)

// katSeed derives the seeded streams of the EncodeBatch known answers: keys
// and client Rand alike are ChaCha8 over a fixed seed, so every byte the
// encoder emits is a function of the code alone.
func katSeed(tag byte) *rand.ChaCha8 {
	var seed [32]byte
	seed[0] = tag
	copy(seed[1:], "prochlo-encode-kat")
	return rand.NewChaCha8(seed)
}

// katDigest hashes a batch of envelope fields, each length-prefixed so that
// moving a byte between fields changes the digest.
func katDigest(fields [][]byte) string {
	h := sha256.New()
	var l [4]byte
	for _, f := range fields {
		binary.BigEndian.PutUint32(l[:], uint32(len(f)))
		h.Write(l[:])
		h.Write(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeKATs pins SHA-256 over seeded Client.EncodeBatch and
// BlindedClient.EncodeBatch output. They were generated before the
// fixed-base multiplications of a batch ran through lanes and hold on every
// kernel (the lane comb, the scalar comb, -tags purego) and worker count:
// a kernel may change how a point is computed, never its bytes. The
// blinded entries were regenerated when C1 moved onto hop 1's blinding key;
// their C2 and blob bytes did not change.
var encodeKATs = map[string]string{
	"plain/n=1":     "680cdd04b3aae8713929bcc13ccd6387511abe29e9a19dd70c893cdd9a3aea6c",
	"plain/n=5":     "9a20ecf7ce797d5ab9acdf5c2ab05d08761e58aed0c8d4e8556efdc62e10ac4c",
	"plain/n=250":   "edeb546120cc072771253065bc236da9f3494d2273d170e3eb3555dcf6be68db",
	"blinded/n=1":   "1e3492ab3d26d627b68554e5c7721f9a1a5723040a9242d5d743c5c6d6410f19",
	"blinded/n=5":   "9f86a26144bfd60c66cb4d20d86d045b656c605c60fe8a9fd89eb60d971d5618",
	"blinded/n=250": "a772ca33f14e6e0021f644143150b6ab7cad39037aa7e35b018ed74be8eebc5a",
}

func TestEncodeBatchKnownAnswers(t *testing.T) {
	mustKey := func(tag byte) *hybrid.PrivateKey {
		k, err := hybrid.GenerateKey(katSeed(tag))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	shufPriv, anlzPriv, s2Priv := mustKey(1), mustKey(2), mustKey(3)
	blindKP, err := elgamal.GenerateKeyPair(katSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	hop1, err := elgamal.GenerateKeyPair(katSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, 250} {
		reports := make([]core.Report, n)
		labels := make([]string, n)
		data := make([][]byte, n)
		for i := range reports {
			labels[i] = fmt.Sprintf("crowd-%d", i%7)
			data[i] = []byte(fmt.Sprintf("value-%04d%s", i, make([]byte, i%11)))
			reports[i] = core.Report{CrowdID: core.HashCrowdID(labels[i]), Data: data[i]}
		}
		for _, workers := range []int{1, 2} {
			c := &Client{ShufflerKey: shufPriv.Public(), AnalyzerKey: anlzPriv.Public(), Rand: katSeed(5)}
			envs, err := c.EncodeBatch(reports, workers)
			if err != nil {
				t.Fatal(err)
			}
			var fields [][]byte
			for _, e := range envs {
				fields = append(fields, e.Blob)
			}
			name := fmt.Sprintf("plain/n=%d", n)
			if got := katDigest(fields); got != encodeKATs[name] {
				t.Errorf("%s workers=%d: digest %s, want %s", name, workers, got, encodeKATs[name])
			}

			bc := &BlindedClient{
				Shuffler1Blinding: hop1.H,
				Shuffler2Blinding: blindKP.H,
				Shuffler2Key:      s2Priv.Public(),
				AnalyzerKey:       anlzPriv.Public(),
				Rand:              katSeed(6),
			}
			benvs, err := bc.EncodeBatch(labels, data, workers)
			if err != nil {
				t.Fatal(err)
			}
			fields = fields[:0]
			for _, e := range benvs {
				fields = append(fields, e.CrowdC1, e.CrowdC2, e.Blob)
			}
			name = fmt.Sprintf("blinded/n=%d", n)
			if got := katDigest(fields); got != encodeKATs[name] {
				t.Errorf("%s workers=%d: digest %s, want %s", name, workers, got, encodeKATs[name])
			}
		}
	}
}
