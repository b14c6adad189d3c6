//go:build amd64 && !purego

// Eight field elements per instruction: fe25519x8 is the lane form of
// fe25519 for the lane ladder and the lane comb in ed25519x8_amd64.go. The
// kernels are AVX-512 IFMA (fe25519x8_amd64.s, written by fe25519x8_gen.go)
// and exist in this build variant only; whether a process runs them is
// decided once, at init, from what the CPU and the operating system report
// (hasIFMA).

package group

//go:generate sh -c "go run fe25519x8_gen.go > fe25519x8_amd64.s"

// fe25519x8 is eight field elements, limb-major: row i holds limb i of all
// eight (radix 2^51, as in fe25519), so a 64-byte row is one ZMM register and
// one vector instruction works on the same limb of eight independent values.
type fe25519x8 [5][8]uint64

// fe8LimbBits bounds the limbs every fe25519x8 kernel accepts: below
// 2^fe8LimbBits on input, below 2^51 + 2^15 on output. The input bound is
// the instruction's, not a headroom choice: VPMADD52LUQ/HUQ multiply the low
// 52 bits of each lane and ignore the rest, so a limb at 2^52 or above would
// be silently truncated. That is why the scalar path's one-lazy-level
// contract (feLazyBits = 54) does not transfer: the sum of two carried limbs
// can reach 2^52 + 2^16, so Add and Sub run their carry pass inside the
// kernel and there is no addLazy/subLazy here.
//
// Output bound, Mul: a limb product is below 2^104, so its low and high
// halves are each below 2^52. Column k of the schoolbook product sums
// min(k+1, 9-k) low halves and twice as many high halves of column k-1
// (the high half sits one bit above the next radix-2^51 position). Folding
// columns 5-9 onto 0-4 times 19, the widest result limb is
// r0 = L0 + 19·(L5 + 2·H4) ≤ (1 + 19·(4 + 2·5))·2^52 = 267·2^52 < 2^60.1,
// inside 64 bits; its carry is below 2^9.1, the wrap-around carry times 19
// below 2^14, and every output limb below 2^51 + 2^14. Square sums the same
// products in a different order. Add: two limbs below 2^52 sum below 2^53,
// the carry is at most 3 and 19·3 = 57. Sub adds 4p limb-wise (limbs
// 2^53-76, 2^53-4, …), which keeps a - b non-negative for any subtrahend limb
// below 2^52; the sum is below 2^52 + 2^53, the carry at most 5. The point
// kernels (ed25519x8_amd64.go) run these same bodies back to back, and two
// of their products come out doubled, 2ab and 2a², doubled after the fold:
// each limb below 2·267·2^52 < 2^61.1, its carry below 2^10.1, the
// wrap-around one times 19 below 2^14.4, so those outputs too are below
// 2^51 + 2^15. Inside a point kernel, a product that feeds only a sum or
// a difference is left uncarried, and the sum's carry pass carries both;
// those sums stay below 2^51 + 2^16, inside the input bound (the argument
// is at foldCarryStore in fe25519x8_gen.go). TestFe25519x8Differential
// pins the field kernels, and TestPointKernelsx8 the point kernels, with
// limbs at 0, 2^51-1 and 2^52-1 in every position, and
// TestPointKernelsx8LimbBound the point kernels with every limb at 2^52-1.
const fe8LimbBits = 52

// Mul sets v = a * b. v may alias a and b.
func (v *fe25519x8) Mul(a, b *fe25519x8) { fe8Mul(v, a, b) }

// Square sets v = a * a. v may alias a.
func (v *fe25519x8) Square(a *fe25519x8) { fe8Square(v, a) }

// Add sets v = a + b, carried. v may alias a and b.
func (v *fe25519x8) Add(a, b *fe25519x8) { fe8Add(v, a, b) }

// Sub sets v = a - b, carried. v may alias a and b.
func (v *fe25519x8) Sub(a, b *fe25519x8) { fe8Sub(v, a, b) }

// setLane stores a into lane i; lane reads it back.
func (v *fe25519x8) setLane(i int, a *fe25519) {
	for l := range a {
		v[l][i] = a[l]
	}
}

func (v *fe25519x8) lane(i int, a *fe25519) {
	for l := range a {
		a[l] = v[l][i]
	}
}

//go:noescape
func fe8Mul(out, a, b *fe25519x8)

//go:noescape
func fe8Square(out, a *fe25519x8)

//go:noescape
func fe8Add(out, a, b *fe25519x8)

//go:noescape
func fe8Sub(out, a, b *fe25519x8)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasIFMA reports whether the kernels in fe25519x8_amd64.s can run: the CPU
// implements AVX512F, AVX512IFMA and AVX512DQ (the only extensions they use;
// DQ for fe8Comb's VPMOVQ2M) and the operating system saves the opmask and
// ZMM state across context switches.
func hasIFMA() bool {
	const avx512f, avx512dq, avx512ifma = 1 << 16, 1 << 17, 1 << 21
	return cpu.avx512&(avx512f|avx512dq|avx512ifma) == avx512f|avx512dq|avx512ifma
}

// HasAVX512F reports whether AVX512F kernels can run: the CPU implements
// AVX512F and the operating system saves the opmask and ZMM state. It is
// the CPU gate of hybrid's SHA-256 lanes, which need AVX512F alone;
// hasIFMA is this gate plus the extensions the field kernels add.
func HasAVX512F() bool {
	const avx512f = 1 << 16
	return cpu.avx512&avx512f != 0
}

// HasAESCLMUL reports whether hybrid's AES-128-GCM kernel can run: the CPU
// implements AES-NI and PCLMULQDQ, and SSSE3 and SSE4.1 for its PSHUFB and
// PINSRD/PINSRQ. These are SSE instructions, whose register state every
// amd64 operating system saves.
func HasAESCLMUL() bool {
	const pclmulqdq, ssse3, sse41, aes = 1 << 1, 1 << 9, 1 << 19, 1 << 25
	return cpu.leaf1&(pclmulqdq|ssse3|sse41|aes) == pclmulqdq|ssse3|sse41|aes
}

// cpu is what the module's kernel gates read, queried once.
var cpu = readCPU()

// cpuFeatures is CPUID leaf 1's ECX feature bits and leaf 7's EBX, the
// latter 0 when the operating system does not save the AVX-512 register
// state.
type cpuFeatures struct{ leaf1, avx512 uint32 }

func readCPU() (f cpuFeatures) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return f
	}
	_, _, f.leaf1, _ = cpuid(1, 0)
	const osxsave = 1 << 27
	if maxLeaf < 7 || f.leaf1&osxsave == 0 {
		return f
	}
	// XCR0 bits 1-2: SSE and AVX state; 5-7: opmask, ZMM0-15 upper
	// halves, ZMM16-31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState == zmmState {
		_, f.avx512, _, _ = cpuid(7, 0)
	}
	return f
}
