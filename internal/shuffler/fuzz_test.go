package shuffler

import (
	"slices"
	"testing"

	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
)

// FuzzShuffler2Process hands hop 2 a seeded epoch of honest reports — eight
// in a crowd that passes a threshold of 5, four in one that does not — with
// the fuzzer's bytes spliced into one envelope's CrowdC1, CrowdC2 or Blob
// (an empty splice truncates the field there). Process must not panic, must
// account for what it forwards (Forwarded == len(out), Undecryptable +
// Forwarded <= Received), and may forward only inner ciphertexts of honest
// reports: no spliced bytes reach the analyzer.
func FuzzShuffler2Process(f *testing.F) {
	s2Priv, err := hybrid.GenerateKey(katSeed(1))
	if err != nil {
		f.Fatal(err)
	}
	anlzPriv, err := hybrid.GenerateKey(katSeed(2))
	if err != nil {
		f.Fatal(err)
	}
	blinding, err := elgamal.GenerateKeyPair(katSeed(3))
	if err != nil {
		f.Fatal(err)
	}
	var labels []string
	var data [][]byte
	for i := 0; i < 12; i++ {
		labels = append(labels, []string{"big", "big", "small"}[i%3])
		data = append(data, []byte{byte(i)})
	}
	client := &encoder.BlindedClient{Shuffler2Blinding: blinding.H, Shuffler2Key: s2Priv.Public(),
		AnalyzerKey: anlzPriv.Public(), Rand: katSeed(6)}
	honest, err := client.EncodeBatch(labels, data, 1)
	if err != nil {
		f.Fatal(err)
	}
	inner := make(map[string]bool)
	for _, env := range honest {
		pt, err := s2Priv.Open(env.Blob, nil)
		if err != nil {
			f.Fatal(err)
		}
		inner[string(pt)] = true
	}

	f.Add(uint8(0), uint8(0), uint16(0), []byte{})
	f.Add(uint8(1), uint8(2), uint16(31), []byte{0x80})
	f.Add(uint8(2), uint8(4), uint16(len(honest[4].Blob)-1), []byte{0x01})
	f.Add(uint8(2), uint8(5), uint16(0), honest[6].Blob)
	f.Add(uint8(0), uint8(7), uint16(0), honest[8].CrowdC1)
	f.Fuzz(func(t *testing.T, field, which uint8, off uint16, splice []byte) {
		batch := slices.Clone(honest)
		env := &batch[int(which)%len(batch)]
		target := []*[]byte{&env.CrowdC1, &env.CrowdC2, &env.Blob}[int(field)%3]
		b := *target
		at := min(int(off), len(b))
		rest := b[min(at+len(splice), len(b)):]
		if len(splice) == 0 {
			rest = nil
		}
		*target = slices.Concat(b[:at], splice, rest)

		for _, workers := range []int{1, 2} {
			s2 := &Shuffler2{Blinding: blinding, Priv: s2Priv, Threshold: Threshold{Naive: 5},
				Rand: newRNG(), MinBatch: 1, Workers: workers}
			out, stats, err := s2.Process(slices.Clone(batch))
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if stats.Forwarded != len(out) || stats.Undecryptable+stats.Forwarded > stats.Received {
				t.Fatalf("workers=%d: %d forwarded, stats %+v", workers, len(out), stats)
			}
			for _, ct := range out {
				if !inner[string(ct)] {
					t.Fatalf("workers=%d: forwarded %x, not an honest inner ciphertext", workers, ct)
				}
			}
		}
	})
}
