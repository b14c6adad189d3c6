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
	t    *Table
}

// combTables returns the generator's table (width 8, 32 positions) and two
// keys' (width 6, 43 positions): the three tables a blinded client's encode
// call reads.
func combTables(r *mrand.Rand) []combTable {
	tables := []combTable{{"generator", edBaseTable()}}
	for _, name := range []string{"key1", "key2"} {
		var seed [32]byte
		r.Read(seed[:])
		tables = append(tables, combTable{name, Group{}.Precompute(Element{ed: edHashToPoint(seed[:])})})
	}
	return tables
}

// recordTables returns the tables of one blinded record's six fixed-base
// multiplications, in its slot order: C1 on Shuffler 1's key A, C2 on
// Shuffler 2's El Gamal key Y, then each seal's k*G and k*K, for the
// analyzer's key and Shuffler 2's hybrid key.
func recordTables(r *mrand.Rand) [6]combTable {
	key := func(name string) combTable {
		var seed [32]byte
		r.Read(seed[:])
		return combTable{name, Group{}.Precompute(Element{ed: edHashToPoint(seed[:])})}
	}
	gen := combTable{"generator", edBaseTable()}
	return [6]combTable{key("A"), key("Y"), gen, key("Ka"), gen, key("Ks2")}
}

// recordMuls returns n records of the blinded layout (recordTables), random
// scalars throughout and an addend, the crowd's point, on each C2.
func recordMuls(t testing.TB, r *mrand.Rand, n int) []combMul {
	tables := recordTables(r)
	var ms []combMul
	for i := 0; i < n; i++ {
		for j, tb := range tables {
			m := combMul{tb, ScalarFromBig(randEdScalar(r)), Element{}}
			if j == 1 {
				m.q = Element{ed: randEdPoint(t, r)}
			}
			ms = append(ms, m)
		}
	}
	return ms
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
func digitScalars(t *testing.T, c *Table) []Scalar {
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
		combDigits(&out[m], c, digits[:], 1)
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
// the slot's addend by Add, byte for byte in both encodings, on the shapes
// a lane comb could get wrong:
//   - every digit value of both window widths, in every lane;
//   - one pass mixing the generator's table and two keys' tables, whose
//     generator lanes run past their table's last position;
//   - the special scalars, addends and repeats spread over lane positions in
//     a long mixed batch, cut at lengths whose last pass is full, short, or
//     below the cutoff and left to the scalar comb, and run in two ranges;
//   - 250 blinded records (recordTables), six multiplications each over
//     five tables, run in two uneven ranges: each range's multiplications
//     reach the lanes in another order than their slots', so a product
//     written back to the wrong slot fails.
//
// It runs once with the lane comb forced off and once with it on, when this
// process has one.
func TestCombBatchLanesMatchSolo(t *testing.T) {
	g := Group{}
	r := mrand.New(mrand.NewSource(47))
	tables := combTables(r)
	cases := map[string][]combMul{}
	for _, tb := range tables[:2] {
		var ms []combMul
		for _, k := range digitScalars(t, tb.t) {
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
		if special := combScalars(tb.t.w, tb.t.positions); i%5 == 0 && i/5 < 4*len(special) {
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
	cases["blinded records"] = recordMuls(t, r, 250)

	// every third slot is encoded compressed, as a seal's shared point is
	slotForm := func(i int) int { return []int{WireSize, WireSize, CompressedSize}[i%3] }
	want := map[string][][]byte{}
	for name, ms := range cases {
		for i, m := range ms {
			p := g.Add(m.table.t.Mul(m.k), m.q)
			if slotForm(i) == WireSize {
				want[name] = append(want[name], g.Encode(nil, p))
			} else {
				want[name] = append(want[name], g.Compress(nil, p))
			}
		}
	}
	check := func(t *testing.T, name string, n, split int) {
		t.Helper()
		b := NewCombBatch(n)
		for i, m := range cases[name][:n] {
			b.Set(i, m.table.t, m.k, m.q, slotForm(i))
		}
		b.Run(0, split)
		b.Run(split, n)
		for i, m := range cases[name][:n] {
			if got := b.Bytes(i); !bytes.Equal(got, want[name][i]) {
				t.Fatalf("%s n=%d split=%d: slot %d (%s table, k=%x) = %x, Table.Mul says %x",
					name, n, split, i, m.table.name, m.k, got, want[name][i])
			}
		}
	}
	run := func(t *testing.T) {
		for name, ms := range cases {
			switch name {
			case "mixed":
				for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 20, 255, 256, 257} {
					check(t, name, n, n)
					check(t, name, n, n/2)
				}
			case "blinded records":
				check(t, name, len(ms), 6*97)
				check(t, name, len(ms), 701)
			default:
				check(t, name, len(ms), len(ms))
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
			t.Skipf("lane comb not run: this process selected the %q kernel (no AVX-512 IFMA on this CPU, or a build without the vector files)", Kernel())
		}
		run(t)
	})
}

// FuzzCombBatch holds the lane comb, through its encodings, to mulComb on
// one to eight fuzzed multiplications at once, each reading a table drawn from the generator's
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
			t.Skipf("lane comb not run: this process selected the %q kernel", Kernel())
		}
		// the fuzzed scalar in the first lane, derived ones in the others;
		// the top bits are cleared as in every scalar below 2^254, which is
		// all either table's recoding accepts
		r := mrand.New(mrand.NewSource(seed))
		ms := make([]edCombMul, 1+int(n)%8)
		for i := range ms {
			var s Scalar
			r.Read(s[:])
			if i == 0 {
				copy(s[:], k)
			}
			s[0] &= 0x3f
			ms[i] = edCombMul{t: tables[r.Intn(len(tables))].t, k: s, slot: i, form: WireSize}
			if r.Intn(2) == 0 {
				var p [32]byte
				r.Read(p[:])
				ms[i].q = edHashToPoint(p[:])
			}
		}
		enc, lens := make([]byte, WireSize*len(ms)), make([]uint8, len(ms))
		laneComb(ms, sink{dst: enc, lens: lens, ms: ms})
		for i, m := range ms {
			var want edPoint
			m.t.mulComb(&want, &m.k)
			if m.q != nil {
				want.add(&want, m.q)
			}
			if got := enc[WireSize*i : WireSize*i+int(lens[i])]; !bytes.Equal(got, Group{}.Encode(nil, Element{ed: &want})) {
				t.Fatalf("lane %d of %d (k=%x, addend %v): lane comb disagrees with mulComb", i, len(ms), m.k, m.q != nil)
			}
		}
	})
}

// combKernelPasses, where this build has the lane comb, loads the lane
// passes of ms, in the order and with the digits a CombBatch's Run gives
// them, and returns a function that runs the kernel alone over them: the
// reference that prices the Go side of a Run (fe25519x8_amd64_test.go).
var combKernelPasses func(ms []edCombMul) (run func())

// BenchmarkEdCombBatch prices a comb batch per point, next to
// BenchmarkEdCombMul: the scalar comb in a loop, and CombBatch.Run on the
// lane comb (also below the cutoff, where Run hands the last group to the
// scalar comb), on each table alone, on the mixed batch of a plain 5-report
// encode call — 20 multiplications, half on the generator's table, five on
// each of two keys' — which fills three lane passes, and on the 1500 of a
// 250-report blinded call (recordMuls). The n at which lanes first win is
// combLaneMin. Each kernel case runs fe8Comb alone over the passes of the
// lanes case beside it, so lanes minus kernel is what a Run spends in Go:
// ordering, recoding, loading and storing lanes.
func BenchmarkEdCombBatch(b *testing.B) {
	r := mrand.New(mrand.NewSource(49))
	tables := combTables(r)
	ks := make([]Scalar, 256)
	for i := range ks {
		ks[i] = ScalarFromBig(randEdScalar(r))
	}
	records := recordMuls(b, r, 250)
	var out edPoint
	newBatch := func(n int, mul func(i int) combMul) *CombBatch {
		cb := NewCombBatch(n)
		for i := 0; i < n; i++ {
			m := mul(i)
			cb.Set(i, m.table.t, m.k, m.q, WireSize)
		}
		return cb
	}
	perPoint := func(b *testing.B, n int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
	}
	lanes := func(b *testing.B, n int, mul func(i int) combMul) {
		if laneComb == nil {
			b.Skipf("lane comb not run: this process selected the %q kernel", Kernel())
		}
		cb := newBatch(n, mul)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cb.Run(0, n)
		}
		perPoint(b, n)
	}
	kernelOnly := func(b *testing.B, n int, mul func(i int) combMul) {
		if laneComb == nil || combKernelPasses == nil {
			b.Skipf("lane comb not run: this process selected the %q kernel", Kernel())
		}
		cb := newBatch(n, mul)
		combOrder(cb.slots, 0, cb.ms)
		run := combKernelPasses(cb.ms[:n-n%8])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		perPoint(b, n-n%8)
	}
	for _, tb := range tables[:2] {
		one := func(i int) combMul { return combMul{tb, ks[i], Element{}} }
		for _, n := range []int{1, 2, 3, 4, 8, 256} {
			b.Run(fmt.Sprintf("%s/scalar/n=%d", tb.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, k := range ks[:n] {
						tb.t.mulComb(&out, &k)
					}
				}
				perPoint(b, n)
			})
			b.Run(fmt.Sprintf("%s/lanes/n=%d", tb.name, n), func(b *testing.B) { lanes(b, n, one) })
		}
		b.Run(fmt.Sprintf("%s/kernel/n=256", tb.name), func(b *testing.B) { kernelOnly(b, 256, one) })
	}
	mixed := func(i int) combMul { return combMul{tables[[]int{0, 1, 0, 2}[i%4]], ks[i], Element{}} }
	b.Run("mixed/lanes/n=20", func(b *testing.B) { lanes(b, 20, mixed) })
	record := func(i int) combMul { return records[i] }
	b.Run("records/lanes/n=1500", func(b *testing.B) { lanes(b, len(records), record) })
	b.Run("records/kernel/n=1500", func(b *testing.B) { kernelOnly(b, len(records), record) })
}
