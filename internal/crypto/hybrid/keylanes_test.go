package hybrid

import (
	"bytes"
	"crypto/rand"
	mrand "math/rand/v2"
	"testing"

	"prochlo/internal/crypto/group"
)

// keyCase is one derivation's input.
type keyCase struct {
	shared    group.Element
	secret    []byte // shared's encoding, what a batch path derives from
	eph, rcpt []byte
}

// keyCases returns n derivations to three recipients, mixed, on random
// shared points and ephemeral keys. With identities, every 29th secret is
// the identity's, which the lanes leave to the scalar path.
func keyCases(t testing.TB, n int, seed uint64, identities bool) []keyCase {
	rng := mrand.New(mrand.NewPCG(seed, 3))
	var rcpts [3][]byte
	for i := range rcpts {
		k, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		rcpts[i] = k.publicBytes()
	}
	cs := make([]keyCase, n)
	for i := range cs {
		var s group.Scalar
		for j := range s {
			s[j] = byte(rng.Uint32())
		}
		s[0] &= 0x0f
		cs[i] = keyCase{shared: g.BaseMul(s), eph: make([]byte, pubKeyLen), rcpt: rcpts[rng.IntN(len(rcpts))]}
		if identities && i%29 == 28 {
			cs[i].shared = g.Identity()
		}
		cs[i].secret = g.SharedBytes(nil, cs[i].shared)
		for j := range cs[i].eph {
			cs[i].eph[j] = byte(rng.Uint32())
		}
	}
	return cs
}

// deriveAll runs the cases through one keyDeriver, as a batch path does.
func deriveAll(cs []keyCase) [][keyLen]byte {
	keys := make([][keyLen]byte, len(cs))
	d := derivers.Get().(*keyDeriver)
	defer derivers.Put(d)
	for i, c := range cs {
		d.add(&keys[i], c.secret, c.eph, c.rcpt)
	}
	d.flush()
	return keys
}

// withLanes runs f with the lane kernel set as the CPU selects it and then
// cleared, naming which ran.
func withLanes(t *testing.T, f func(t *testing.T)) {
	t.Run("scalar", func(t *testing.T) {
		saved := laneHKDF
		laneHKDF = nil
		defer func() { laneHKDF = saved }()
		f(t)
	})
	t.Run("lanes", func(t *testing.T) {
		if laneHKDF == nil {
			t.Skip("SHA-256 lanes not run: no AVX512F on this CPU, or a build without the vector files")
		}
		f(t)
	})
}

// TestDeriveKeysMatchScalar holds the lanes to scratch.sealKey: every key
// of a group of 1, 15, 16, 17, 255, 256 or 257 derivations to mixed
// recipients, identity secrets among them, equals the scalar derivation's.
// The kernel is also run directly on every group of one to sixteen, the
// short ones below minLanes included, so the repeated lanes are covered.
func TestDeriveKeysMatchScalar(t *testing.T) {
	cs := keyCases(t, 257, 1, true)
	d := derivers.Get().(*keyDeriver)
	defer derivers.Put(d)
	want := make([][keyLen]byte, len(cs))
	for i, c := range cs {
		copy(want[i][:], d.sealKey(c.shared, c.eph, c.rcpt))
	}
	withLanes(t, func(t *testing.T) {
		for _, n := range []int{1, 15, 16, 17, 255, 256, 257} {
			for i, got := range deriveAll(cs[:n]) {
				if got != want[i] {
					t.Fatalf("group of %d: key %d = %x, sealKey %x", n, i, got, want[i])
				}
			}
		}
	})
	if laneHKDF == nil {
		return
	}
	for n := 1; n <= lanes; n++ {
		keys := make([][keyLen]byte, n)
		q := make([]laneInput, n)
		for i := range q {
			c := cs[i+40]
			q[i] = laneInput{dst: &keys[i], eph: c.eph, rcpt: c.rcpt}
			g.SharedBytes(q[i].secret[:0], c.shared)
		}
		d.runLanes(q)
		for i := range keys {
			if keys[i] != want[i+40] {
				t.Fatalf("kernel on %d lanes: key %d = %x, sealKey %x", n, i, keys[i], want[i+40])
			}
		}
	}
}

// FuzzDeriveKeys holds the derivation of a group, lanes or not, to the
// RFC 5869 reference hkdf: the fuzzer picks the ephemeral keys' bytes (any
// bytes, whether or not they encode a point), the shared points' scalars
// and the group's size, and may shorten one public key, which sends that
// derivation to the scalar path.
func FuzzDeriveKeys(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0x5a}, 130), uint8(16), uint8(0))
	f.Add([]byte("short"), uint8(1), uint8(3))
	f.Add(bytes.Repeat([]byte{0xff, 0x00}, 200), uint8(33), uint8(200))
	rcpts := [2][]byte{fuzzKey.publicBytes(), bytes.Repeat([]byte{7}, pubKeyLen)}
	f.Fuzz(func(t *testing.T, data []byte, n, short uint8) {
		if len(data) == 0 {
			return
		}
		cs := make([]keyCase, 1+int(n)%40)
		for i := range cs {
			eph := make([]byte, pubKeyLen)
			for j := range eph {
				eph[j] = data[(i*pubKeyLen+j)%len(data)]
			}
			s := group.Scalar{0: byte(i), 31: data[i%len(data)]}
			cs[i] = keyCase{shared: g.BaseMul(s), eph: eph, rcpt: rcpts[i%2]}
			if data[i%len(data)] == 0 {
				cs[i].shared = g.Identity()
			}
			cs[i].secret = g.SharedBytes(nil, cs[i].shared)
		}
		if i := int(short); i < len(cs) {
			cs[i].eph = cs[i].eph[:pubKeyLen-1]
		}
		for i, got := range deriveAll(cs) {
			c := cs[i]
			want := hkdf(g.SharedBytes(nil, c.shared), append(append([]byte{}, c.eph...), c.rcpt...), hkdfInfo, keyLen)
			if !bytes.Equal(got[:], want) {
				t.Fatalf("group of %d: key %d = %x, hkdf %x", len(cs), i, got, want)
			}
		}
	})
}

// BenchmarkDeriveKeys derives 256 keys to mixed recipients per op, as the
// batch paths do for honest envelopes, and reports ns per derivation for
// the scalar path and the lanes.
func BenchmarkDeriveKeys(b *testing.B) {
	cs := keyCases(b, 256, 2, false)
	keys := make([][keyLen]byte, len(cs))
	run := func(b *testing.B) {
		d := derivers.Get().(*keyDeriver)
		defer derivers.Put(d)
		b.ReportAllocs()
		for b.Loop() {
			for i, c := range cs {
				d.add(&keys[i], c.secret, c.eph, c.rcpt)
			}
			d.flush()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cs)), "ns/derivation")
	}
	b.Run("scalar", func(b *testing.B) {
		saved := laneHKDF
		laneHKDF = nil
		defer func() { laneHKDF = saved }()
		run(b)
	})
	b.Run("lanes", func(b *testing.B) {
		if laneHKDF == nil {
			b.Skip("SHA-256 lanes not run: no AVX512F on this CPU")
		}
		run(b)
	})
}
