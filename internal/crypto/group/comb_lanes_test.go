package group

import (
	"bytes"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// combTables returns the two tables a client multiplies against: the
// generator's (width 8) and a key's (width 6).
func combTables(r *mrand.Rand) map[string]*edTable {
	var seed [32]byte
	r.Read(seed[:])
	key := edGroup{}.Precompute(Element{ed: edHashToPoint(seed[:])}).(*edTable)
	return map[string]*edTable{"generator": edBaseTable(), "key": key}
}

// combScalars are the scalars a lane comb could get wrong for a table of
// width w, besides random ones: zero, one and l-1; every digit but the top
// one negative (each window 2^(w-1), so every lower digit borrows); every
// digit but the top one zero.
func combScalars(w uint, positions int) map[string]Scalar {
	negative := new(big.Int)
	for j := 0; j < positions-1; j++ {
		negative.SetBit(negative, j*int(w)+int(w)-1, 1)
	}
	return map[string]Scalar{
		"0":                  ScalarFromBig(big.NewInt(0)),
		"1":                  ScalarFromBig(big.NewInt(1)),
		"l-1":                ScalarFromBig(new(big.Int).Sub(edOrder, big.NewInt(1))),
		"all-negative-digit": ScalarFromBig(negative),
		"all-zero-digit":     ScalarFromBig(new(big.Int).Lsh(big.NewInt(1), uint(positions-1)*w)),
	}
}

// TestCombBatchLanesMatchSolo holds Table.MulBatch to the solo Table.Mul,
// byte for byte after Normalize, on the generator's and a key's table,
// across group-of-eight boundaries and the short-batch cutoff, with the
// special scalars spread over every lane position. It runs once with the
// lane comb forced off and once with it on, when this process has one.
func TestCombBatchLanesMatchSolo(t *testing.T) {
	g := edGroup{}
	r := mrand.New(mrand.NewSource(47))
	const maxN = 257
	type job struct {
		table *edTable
		ks    []Scalar
		want  [][]byte
	}
	tables := combTables(r)
	jobs := map[string]job{}
	for _, name := range []string{"generator", "key"} {
		table := tables[name]
		positions := len(table.comb.entries)
		special := combScalars(table.comb.w, positions)
		// each special scalar's digits must be what its name says
		var digits [edCombMaxPositions]int16
		for _, c := range []struct {
			name  string
			wrong func(d int16) bool
		}{
			{"all-negative-digit", func(d int16) bool { return d >= 0 }},
			{"all-zero-digit", func(d int16) bool { return d != 0 }},
		} {
			combDigits(mustScalar(special[c.name])[:], table.comb.w, digits[:positions])
			for j, d := range digits[:positions-1] {
				if c.wrong(d) {
					t.Fatalf("%s table: scalar %s has digit %d = %d", name, c.name, j, d)
				}
			}
		}
		order := []string{"0", "1", "l-1", "all-negative-digit", "all-zero-digit"}
		ks := make([]Scalar, maxN)
		for i := range ks {
			switch {
			case i%5 == 0 && i/5 < 2*len(order):
				// spread the special scalars over the first groups, twice,
				// so that each sits in several lane positions
				ks[i] = special[order[(i/5)%len(order)]]
			case i%16 == 7:
				ks[i] = ks[i-1] // repeats inside a group
			default:
				ks[i] = ScalarFromBig(randEdScalar(r))
			}
		}
		want := make([][]byte, maxN)
		for i, k := range ks {
			want[i] = g.Encode(table.Mul(k))
		}
		jobs[name] = job{table, ks, want}
	}

	run := func(t *testing.T) {
		for _, name := range []string{"generator", "key"} {
			j := jobs[name]
			for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 255, 256, 257} {
				dst := make([]Element, n)
				j.table.MulBatch(dst, j.ks[:n])
				g.Normalize(dst)
				for i := range dst {
					if got := g.Encode(dst[i]); !bytes.Equal(got, j.want[i]) {
						t.Fatalf("%s table n=%d: entry %d (k=%x) = %x, Table.Mul says %x",
							name, n, i, j.ks[i], got, j.want[i])
					}
				}
			}
		}
	}
	selected := laneComb
	t.Run("scalar-comb", func(t *testing.T) {
		laneComb = nil
		defer func() { laneComb = selected }()
		run(t)
	})
	t.Run("lane-comb", func(t *testing.T) {
		if selected == nil {
			t.Skipf("lane comb not run: this process selected the %q kernel (no AVX-512 IFMA on this CPU, or a build without the vector files)", kernel())
		}
		run(t)
	})
}

// FuzzCombBatch holds the lane comb to mulComb on one to eight fuzzed
// scalars at once, on both tables: the kernel itself, below the cutoff
// MulBatch applies too, so one- and two-lane groups are covered.
func FuzzCombBatch(f *testing.F) {
	f.Add(make([]byte, 32), uint8(1), int64(0))
	f.Add(bytes.Repeat([]byte{0xff}, 32), uint8(8), int64(1))
	f.Add(bytes.Repeat([]byte{0x80}, 32), uint8(3), int64(2))
	f.Add(bytes.Repeat([]byte{0x20}, 32), uint8(2), int64(3))
	tables := combTables(mrand.New(mrand.NewSource(48)))
	f.Fuzz(func(t *testing.T, k []byte, n uint8, seed int64) {
		if laneComb == nil {
			t.Skipf("lane comb not run: this process selected the %q kernel", kernel())
		}
		// the fuzzed scalar in the first lane, derived ones in the others;
		// the top bits are cleared as in every scalar below 2^254, which is
		// all either table's recoding accepts
		r := mrand.New(mrand.NewSource(seed))
		ks := make([]Scalar, 1+int(n)%8)
		for i := range ks {
			ks[i] = make(Scalar, ScalarSize)
			r.Read(ks[i])
		}
		copy(ks[0], k)
		for _, s := range ks {
			s[0] &= 0x3f
		}
		for name, table := range tables {
			outs := make([]edPoint, len(ks))
			laneComb(table.comb, outs, ks)
			for i, s := range ks {
				var want edPoint
				table.comb.mulComb(&want, s)
				if !outs[i].equal(&want) {
					t.Fatalf("%s table lane %d of %d (k=%x): lane comb disagrees with mulComb", name, i, len(ks), s)
				}
			}
		}
	})
}

// BenchmarkEdCombBatch prices a table batch per point, next to
// BenchmarkEdCombMul: the scalar comb in a loop, and the lane comb called
// directly (below MulBatch's cutoff too). The n at which lanes first win
// is combLaneMin.
func BenchmarkEdCombBatch(b *testing.B) {
	r := mrand.New(mrand.NewSource(49))
	tables := combTables(r)
	ks := make([]Scalar, 256)
	for i := range ks {
		ks[i] = ScalarFromBig(randEdScalar(r))
	}
	outs := make([]edPoint, len(ks))
	for _, name := range []string{"key", "generator"} {
		table := tables[name]
		for _, n := range []int{1, 2, 3, 4, 8, 256} {
			b.Run(fmt.Sprintf("%s/scalar/n=%d", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j, k := range ks[:n] {
						table.comb.mulComb(&outs[j], k)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
			})
			b.Run(fmt.Sprintf("%s/lanes/n=%d", name, n), func(b *testing.B) {
				if laneComb == nil {
					b.Skipf("lane comb not run: this process selected the %q kernel", kernel())
				}
				for i := 0; i < b.N; i++ {
					laneComb(table.comb, outs[:n], ks[:n])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
			})
		}
	}
}
