package group

import (
	"bytes"
	"math/big"
	mrand "math/rand"
	"os"
	"regexp"
	"testing"
)

// TestKernelMatchesCPU holds the dispatch rule to what the operating system
// reports: the lane kernels are selected exactly when this is the amd64
// assembly build and /proc/cpuinfo lists every extension they use —
// avx512f, avx512ifma, and avx512dq for the comb's VPMOVQ2M (Linux lists
// them only when it also saves the ZMM state). It logs the selected kernel
// either way; CI prints that line, to name the kernel a green run covered.
func TestKernelMatchesCPU(t *testing.T) {
	t.Logf("selected kernel: %s", kernel())
	cpuinfo, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot compare with the CPU's flags: %v", err)
	}
	flag := func(name string) bool {
		return regexp.MustCompile(`(?m)^flags\s*:.*\b` + name + `\b`).Match(cpuinfo)
	}
	want := feKernel
	if feKernel == "amd64" && flag("avx512f") && flag("avx512ifma") && flag("avx512dq") {
		want = "avx512ifma"
	}
	t.Logf("/proc/cpuinfo lists avx512ifma: %v, avx512dq: %v", flag("avx512ifma"), flag("avx512dq"))
	if got := kernel(); got != want {
		t.Errorf("kernel() = %q, want %q for this build and CPU", got, want)
	}
}

// edTorsionGenerator returns a point of order exactly 8: l times a point
// of the full curve (found by its y coordinate; hash-to-group images avoid
// half the torsion) kills the prime-order part.
func edTorsionGenerator(t *testing.T) *edPoint {
	t.Helper()
	var lb [32]byte
	edOrder.FillBytes(lb[:])
	var digits [258]int8
	n := wnafDigits(lb[:], &digits)
	for yv := int64(2); yv < 64; yv++ {
		var y fe25519
		y.fromBig(big.NewInt(yv))
		p, ok := edFromY(&y, false)
		if !ok {
			continue
		}
		var tor, four edPoint
		edScalarMulWNAF(&tor, digits[:n], p)
		four.double(&tor, true)
		four.double(&four, true)
		if !four.isIdentity() {
			return &tor
		}
	}
	t.Fatal("no small y with a full 8-torsion component")
	return nil
}

// TestMulBatchLanesMatchSolo holds MulBatch and MulDHBatch to the solo Mul and
// MulDH, byte for byte after Normalize, across group-of-eight boundaries and
// on the points a lane-parallel ladder could get wrong if its formulas were
// not complete: the identity, every small-order point, a point with a
// torsion component. It runs once with the lane ladder forced off and once
// with it on, when this process has one.
func TestMulBatchLanesMatchSolo(t *testing.T) {
	g := Group{}
	r := mrand.New(mrand.NewSource(46))

	tor := edTorsionGenerator(t)
	var special []Element
	special = append(special, g.Identity(), Element{}) // explicit and zero-value identity
	smallOrder := *tor
	for i := 1; i < 8; i++ { // tor, 2·tor, … 7·tor: the seven non-trivial small-order points
		p := smallOrder
		special = append(special, Element{ed: &p})
		smallOrder.add(&smallOrder, tor)
	}
	if !smallOrder.isIdentity() {
		t.Fatal("torsion generator does not have order 8")
	}
	shifted := *randEdPoint(t, r)
	shifted.add(&shifted, tor)
	special = append(special, Element{ed: &shifted}, generator(), generator())

	const maxN = 257
	points := make([]Element, maxN)
	for i := range points {
		switch {
		case i%3 == 0 && i/3 < len(special):
			// spread the special points over the first groups so that
			// every lane position holds one at some size
			points[i] = special[i/3]
		case i%16 == 5:
			points[i] = points[i-1] // repeats inside a group
		default:
			points[i] = Element{ed: randEdPoint(t, r)}
		}
	}
	scalars := map[string]Scalar{
		"0":      ScalarFromBig(big.NewInt(0)),
		"1":      ScalarFromBig(big.NewInt(1)),
		"l-1":    ScalarFromBig(new(big.Int).Sub(edOrder, big.NewInt(1))),
		"random": ScalarFromBig(randEdScalar(r)),
	}

	run := func(t *testing.T) {
		for name, k := range scalars {
			for _, dh := range []bool{false, true} {
				want := make([][]byte, maxN)
				for i, p := range points {
					if dh {
						want[i] = g.Encode(nil, g.MulDH(p, k))
					} else {
						want[i] = g.Encode(nil, g.Mul(p, k))
					}
				}
				for _, n := range []int{0, 1, 7, 8, 9, 255, 256, 257} {
					for _, alias := range []bool{false, true} {
						ps := append([]Element(nil), points[:n]...)
						dst := ps
						if !alias {
							dst = make([]Element, n)
						}
						mulBatch(dst, ps, k, dh)
						g.Normalize(dst)
						for i := range dst {
							if got := g.Encode(nil, dst[i]); !bytes.Equal(got, want[i]) {
								t.Fatalf("k=%s dh=%v n=%d alias=%v: entry %d = %x, solo path says %x",
									name, dh, n, alias, i, got, want[i])
							}
						}
					}
				}
			}
		}
	}

	selected := laneLadder
	t.Run("scalar-ladder", func(t *testing.T) {
		laneLadder = nil
		defer func() { laneLadder = selected }()
		run(t)
	})
	t.Run("lane-ladder", func(t *testing.T) {
		if selected == nil {
			t.Skipf("lane ladder not run: this process selected the %q kernel (no AVX-512 IFMA on this CPU, or a build without the vector files)", kernel())
		}
		run(t)
	})
}
