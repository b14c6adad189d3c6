package group

import (
	"bytes"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// combTable is a table a client multiplies against, named for messages.
type combTable struct {
	name string
	t    *edTable
}

// combTables returns the generator's table (width 8, 32 positions) and two
// keys' (width 6, 43 positions): the three tables a blinded client's encode
// call reads.
func combTables(r *mrand.Rand) []combTable {
	tables := []combTable{{"generator", edBaseTable()}}
	for _, name := range []string{"key1", "key2"} {
		var seed [32]byte
		r.Read(seed[:])
		tables = append(tables, combTable{name, edGroup{}.Precompute(Element{ed: edHashToPoint(seed[:])}).(*edTable)})
	}
	return tables
}

// combScalars are the scalars a lane comb could get wrong for a table of
// width w, besides random ones: zero, one and l-1; every digit but the top
// one negative (each window 2^(w-1), so every lower digit borrows); every
// digit but the top one zero.
func combScalars(w uint, positions int) []Scalar {
	negative := new(big.Int)
	for j := 0; j < positions-1; j++ {
		negative.SetBit(negative, j*int(w)+int(w)-1, 1)
	}
	return []Scalar{
		ScalarFromBig(big.NewInt(0)),
		ScalarFromBig(big.NewInt(1)),
		ScalarFromBig(new(big.Int).Sub(edOrder, big.NewInt(1))),
		ScalarFromBig(negative),
		ScalarFromBig(new(big.Int).Lsh(big.NewInt(1), uint(positions-1)*w)),
	}
}

// digitScalars returns 2^w scalars for a table of width w whose digits take
// every value of [-2^(w-1), 2^(w-1)) in every lane: scalar m's digit at
// position j, below the top one, is (m+j) mod 2^w - 2^(w-1). In a batch of
// them alone scalar m runs in lane m mod 8, and j runs through every
// residue mod 8. The top digit is 1, which keeps the scalar positive; the
// recoding is checked to give the digits back.
func digitScalars(t *testing.T, c *edCombTable) []Scalar {
	full := 1 << c.w
	digit := func(m, j int) int { return (m+j)%full - full/2 }
	out := make([]Scalar, full)
	for m := range out {
		k := big.NewInt(1)
		for j := c.positions - 2; j >= 0; j-- {
			k.Lsh(k, c.w)
			k.Add(k, big.NewInt(int64(digit(m, j))))
		}
		out[m] = ScalarFromBig(k)
		var digits [edCombMaxPositions]int8
		combDigits(out[m], c, digits[:], 1)
		for j := 0; j < c.positions-1; j++ {
			if int(digits[j]) != digit(m, j) {
				t.Fatalf("width %d scalar %d: digit %d = %d, want %d", c.w, m, j, digits[j], digit(m, j))
			}
		}
	}
	return out
}

// combMul is one multiplication a test puts in a CombBatch.
type combMul struct {
	table combTable
	k     Scalar
	q     Element
}

// TestCombBatchLanesMatchSolo holds a CombBatch to the solo Table.Mul, plus
// the slot's addend by Add, byte for byte after Normalize, on the shapes a
// lane comb could get wrong:
//   - every digit value of both window widths, in every lane;
//   - one pass mixing the generator's table and two keys' tables, whose
//     generator lanes run past their table's last position;
//   - the special scalars, addends and repeats spread over lane positions in
//     a long mixed batch, cut at lengths whose last pass is full, short, or
//     below the cutoff and left to the scalar comb, and run in two ranges.
//
// It runs once with the lane comb forced off and once with it on, when this
// process has one.
func TestCombBatchLanesMatchSolo(t *testing.T) {
	g := edGroup{}
	r := mrand.New(mrand.NewSource(47))
	tables := combTables(r)
	cases := map[string][]combMul{}
	for _, tb := range tables[:2] {
		var ms []combMul
		for _, k := range digitScalars(t, tb.t.comb) {
			ms = append(ms, combMul{tb, k, Element{}})
		}
		cases["every digit, "+tb.name] = ms
	}
	var onePass []combMul
	for i := 0; i < 8; i++ {
		onePass = append(onePass, combMul{tables[i%3], ScalarFromBig(randEdScalar(r)), Element{}})
	}
	cases["one pass, three tables"] = onePass
	var mixed []combMul
	for i := 0; i < 257; i++ {
		tb := tables[(i/3)%3]
		m := combMul{tb, ScalarFromBig(randEdScalar(r)), Element{}}
		if special := combScalars(tb.t.comb.w, tb.t.comb.positions); i%5 == 0 && i/5 < 4*len(special) {
			m.k = special[(i/5)%len(special)]
		}
		switch i % 4 {
		case 1:
			m.q = Element{ed: randEdPoint(t, r)}
		case 2:
			m.q = g.Identity()
		}
		if i%16 == 7 {
			m.k = mixed[i-1].k // repeats inside a pass
		}
		mixed = append(mixed, m)
	}
	cases["mixed"] = mixed

	want := map[string][][]byte{}
	for name, ms := range cases {
		for _, m := range ms {
			want[name] = append(want[name], g.Encode(g.Add(m.table.t.Mul(m.k), m.q)))
		}
	}
	check := func(t *testing.T, name string, n, split int) {
		t.Helper()
		b := NewCombBatch(g, n)
		for i, m := range cases[name][:n] {
			b.Set(i, m.table.t, m.k, m.q)
		}
		b.Run(0, split)
		b.Run(split, n)
		b.Normalize()
		for i, m := range cases[name][:n] {
			if got := b.Out(i); !bytes.Equal(g.Encode(got), want[name][i]) {
				t.Fatalf("%s n=%d split=%d: slot %d (%s table, k=%x) = %x, Table.Mul says %x",
					name, n, split, i, m.table.name, m.k, g.Encode(got), want[name][i])
			}
		}
	}
	run := func(t *testing.T) {
		for name, ms := range cases {
			if name != "mixed" {
				check(t, name, len(ms), len(ms))
				continue
			}
			for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 20, 255, 256, 257} {
				check(t, name, n, n)
				check(t, name, n, n/2)
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
// multiplications at once, each reading a table drawn from the generator's
// and two keys' and about half of them with an addend: the kernel itself,
// below the cutoff mulTables applies too, so one- and two-lane passes are
// covered.
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
		ms := make([]edCombMul, 1+int(n)%8)
		outs := make([]edPoint, len(ms))
		for i := range ms {
			s := make(Scalar, ScalarSize)
			r.Read(s)
			if i == 0 {
				copy(s, k)
			}
			s[0] &= 0x3f
			ms[i] = edCombMul{t: tables[r.Intn(len(tables))].t.comb, k: s, out: &outs[i]}
			if r.Intn(2) == 0 {
				var p [32]byte
				r.Read(p[:])
				ms[i].q = edHashToPoint(p[:])
			}
		}
		laneComb(ms)
		for i, m := range ms {
			var want edPoint
			m.t.mulComb(&want, m.k)
			if m.q != nil {
				want.add(&want, m.q)
			}
			if !outs[i].equal(&want) {
				t.Fatalf("lane %d of %d (k=%x, addend %v): lane comb disagrees with mulComb", i, len(ms), m.k, m.q != nil)
			}
		}
	})
}

// BenchmarkEdCombBatch prices a comb batch per point, next to
// BenchmarkEdCombMul: the scalar comb in a loop, and CombBatch.Run on the
// lane comb (also below the cutoff, where Run hands the last group to the
// scalar comb), on each table alone and on the mixed batch of a plain
// 5-report encode call — 20 multiplications, half on the generator's
// table, five on each of two keys' — which fills three lane passes. The n
// at which lanes first win is combLaneMin.
func BenchmarkEdCombBatch(b *testing.B) {
	g := edGroup{}
	r := mrand.New(mrand.NewSource(49))
	tables := combTables(r)
	ks := make([]Scalar, 256)
	for i := range ks {
		ks[i] = ScalarFromBig(randEdScalar(r))
	}
	var out edPoint
	batch := func(b *testing.B, n int, table func(i int) *edTable) {
		if laneComb == nil {
			b.Skipf("lane comb not run: this process selected the %q kernel", kernel())
		}
		cb := NewCombBatch(g, n)
		for i := 0; i < n; i++ {
			cb.Set(i, table(i), ks[i], Element{})
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cb.Run(0, n)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
	}
	for _, tb := range tables[:2] {
		for _, n := range []int{1, 2, 3, 4, 8, 256} {
			b.Run(fmt.Sprintf("%s/scalar/n=%d", tb.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, k := range ks[:n] {
						tb.t.comb.mulComb(&out, k)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
			})
			b.Run(fmt.Sprintf("%s/lanes/n=%d", tb.name, n), func(b *testing.B) {
				batch(b, n, func(int) *edTable { return tb.t })
			})
		}
	}
	b.Run("mixed/lanes/n=20", func(b *testing.B) {
		batch(b, 20, func(i int) *edTable { return tables[[]int{0, 1, 0, 2}[i%4]].t })
	})
}
