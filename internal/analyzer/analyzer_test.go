package analyzer

import (
	"bytes"
	crand "crypto/rand"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
)

func newAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &Analyzer{Priv: priv}
}

func sealTo(t *testing.T, a *Analyzer, data string) []byte {
	t.Helper()
	ct, err := hybrid.Seal(crand.Reader, a.Priv.Public(), []byte(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestOpenAndHistogram(t *testing.T) {
	a := newAnalyzer(t)
	items := [][]byte{
		sealTo(t, a, "x"), sealTo(t, a, "x"), sealTo(t, a, "y"),
		[]byte("garbage-record"),
	}
	db, undec := a.Open(items)
	if undec != 1 {
		t.Errorf("undecryptable = %d, want 1", undec)
	}
	h := Histogram(db)
	if h["x"] != 2 || h["y"] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestHistogramDP(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	db := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		db = append(db, []byte("v"))
	}
	// Average many releases: the Laplace mechanism is unbiased (modulo the
	// zero clamp, negligible at count 1000).
	var sum float64
	const runs = 200
	for i := 0; i < runs; i++ {
		out := HistogramDP(rng, db, 1.0)
		sum += out["v"]
	}
	mean := sum / runs
	if math.Abs(mean-1000) > 2 {
		t.Errorf("mean released count = %.2f, want ~1000", mean)
	}
	// No negative counts ever.
	for i := 0; i < 50; i++ {
		out := HistogramDP(rng, [][]byte{[]byte("w")}, 0.1)
		if out["w"] < 0 {
			t.Fatal("negative released count")
		}
	}
}

func TestRecoverSecretShared(t *testing.T) {
	var db [][]byte
	addShares := func(value string, n int) {
		for i := 0; i < n; i++ {
			rec, err := encoder.SecretShareData(crand.Reader, 5, []byte(value))
			if err != nil {
				t.Fatal(err)
			}
			db = append(db, rec)
		}
	}
	addShares("frequent", 12)
	addShares("rare", 3)
	db = append(db, []byte("not-an-encoding"))

	recovered, malformed, _ := RecoverSecretShared(5, db)
	if malformed != 1 {
		t.Errorf("malformed = %d, want 1", malformed)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d values, want 1", len(recovered))
	}
	if string(recovered[0].Value) != "frequent" || recovered[0].Count != 12 {
		t.Errorf("recovered = %+v", recovered[0])
	}
}

// TestOpenParallelEquivalence mirrors the shuffler's equivalence contract:
// at worker counts {1, 2, GOMAXPROCS} the materialized database — order
// included — and the undecryptable count are identical, corrupt records and
// all.
func TestOpenParallelEquivalence(t *testing.T) {
	a := newAnalyzer(t)
	n := 300
	if testing.Short() {
		n = 60
	}
	items := make([][]byte, 0, n+3)
	for i := 0; i < n; i++ {
		items = append(items, sealTo(t, a, fmt.Sprintf("rec-%04d-%s", i, string(make([]byte, i%23)))))
	}
	// Failure shapes: garbage, truncated, tampered — interleaved.
	items = append(items, []byte("garbage"))
	items[n/5] = items[n/5][:20]
	items[n/2] = append([]byte{}, items[n/2]...)
	items[n/2][80] ^= 1

	run := func(workers int) ([][]byte, int) {
		an := &Analyzer{Priv: a.Priv, Workers: workers}
		return an.Open(items)
	}
	refDB, refUndec := run(1)
	if refUndec != 3 {
		t.Fatalf("undecryptable = %d, want 3", refUndec)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0), 0} {
		db, undec := run(workers)
		if undec != refUndec {
			t.Errorf("workers=%d: undecryptable %d, want %d", workers, undec, refUndec)
		}
		if len(db) != len(refDB) {
			t.Fatalf("workers=%d: db length %d, want %d", workers, len(db), len(refDB))
		}
		for i := range db {
			if !bytes.Equal(db[i], refDB[i]) {
				t.Fatalf("workers=%d: db record %d diverges from serial reference", workers, i)
			}
		}
	}
}

// TestOpenBatchPositional pins OpenBatch's contract: results are positional
// with nil marking failures.
func TestOpenBatchPositional(t *testing.T) {
	a := newAnalyzer(t)
	items := [][]byte{
		sealTo(t, a, "first"), []byte("bad"), sealTo(t, a, "third"),
	}
	pts, undec := a.OpenBatch(items)
	if undec != 1 {
		t.Errorf("undecryptable = %d, want 1", undec)
	}
	if string(pts[0]) != "first" || pts[1] != nil || string(pts[2]) != "third" {
		t.Errorf("positional results = %q", pts)
	}
}

// TestHistogramInterning checks both correctness on duplicate-heavy input
// and the allocation contract: counting a database with a fixed value
// domain must not allocate per record.
func TestHistogramInterning(t *testing.T) {
	db := make([][]byte, 0, 3000)
	for i := 0; i < 3000; i++ {
		db = append(db, []byte(fmt.Sprintf("value-%d", i%7)))
	}
	h := Histogram(db)
	if len(h) != 7 {
		t.Fatalf("distinct values = %d, want 7", len(h))
	}
	total := 0
	for _, n := range h {
		total += n
	}
	if total != 3000 {
		t.Fatalf("total count = %d, want 3000", total)
	}
	// Allocation budget: interning bounds allocations by distinct values,
	// not records. The generous cap catches an accidental per-record string
	// conversion (3000 allocs) without being flaky about map internals.
	allocs := testing.AllocsPerRun(5, func() { Histogram(db) })
	if allocs > 100 {
		t.Errorf("Histogram allocated %.0f times for 3000 records of 7 values", allocs)
	}
}
