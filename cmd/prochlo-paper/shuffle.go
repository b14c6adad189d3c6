package main

import (
	"flag"
	"fmt"
	"time"

	"prochlo/internal/oblivious"
	"prochlo/internal/sgx"
)

// records builds n size-byte payloads, each tagged with its index.
func records(n, size int) [][]byte {
	in := make([][]byte, n)
	for i := range in {
		b := make([]byte, size)
		b[0], b[1], b[2], b[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		in[i] = b
	}
	return in
}

// runStashbench regenerates Tables 1 and 2: the Stash Shuffle's parameter
// scenarios (security and overhead) and its measured execution.
//
// Table 1 rows are computed from the cost and security models for the
// paper's exact parameters. Table 2 rows are measured by running the real
// Stash Shuffle (with real AES-GCM intermediate re-encryption against the
// simulated SGX enclave) at a scaled-down N, then reporting per-item costs;
// pass -run to raise the measured size toward paper scale.
func runStashbench(args []string) error {
	fs := flag.NewFlagSet("stashbench", flag.ExitOnError)
	table1 := fs.Bool("table1", true, "print Table 1 (parameters, security, overhead)")
	run := fs.Int("run", 200_000, "measured shuffle size for Table 2 (0 to skip)")
	itemSize := fs.Int("item", 72, "payload bytes per record for the measured run")
	workers := fs.Int("workers", 0, "distribution-phase workers (0 = GOMAXPROCS, 1 = serial)")
	fs.Parse(args)

	if *table1 {
		fmt.Println("Table 1: Stash Shuffle parameter scenarios")
		fmt.Println("N        B     C   W  S        paper log(eps)  model log(eps)  paper ovh  model ovh")
		for _, sc := range oblivious.PaperScenarios {
			model := oblivious.StashSecurityBound(sc.N, sc.B, sc.C, sc.S, sc.W, 0)
			ovh := oblivious.StashOverhead(sc.N, sc.B, sc.C, sc.S)
			fmt.Printf("%-8d %-5d %-3d %-2d %-8d %-15.1f %-15.1f %-10.2f %.2f\n",
				sc.N, sc.B, sc.C, sc.W, sc.S, sc.PaperLogEps, model, sc.PaperOverhead, ovh)
		}
		fmt.Println()
	}
	if *run <= 0 {
		return nil
	}
	n := *run
	fmt.Printf("Table 2 (measured, scaled): Stash Shuffle of %d %d-byte payloads\n", n, *itemSize)
	enclave := sgx.New(sgx.DefaultEPC, sgx.Measure("stashbench"))
	s := oblivious.NewStashShuffle(enclave, oblivious.Passthrough{}, n)
	s.Workers = *workers
	out, err := s.Shuffle(records(n, *itemSize))
	if err != nil {
		return fmt.Errorf("shuffle failed: %w", err)
	}
	m := s.Metrics
	fmt.Printf("N=%d B=%d C=%d W=%d S=%d workers=%d\n", n, s.B, s.C, s.W, s.S, *workers)
	fmt.Printf("%-10s %-14s %-14s %-10s %-10s\n", "N", "Distribution", "Compression", "Total", "SGX Mem")
	fmt.Printf("%-10d %-14v %-14v %-10v %.1f MB\n",
		n, m.DistributionTime.Round(1e6), m.CompressionTime.Round(1e6),
		(m.DistributionTime + m.CompressionTime).Round(1e6),
		float64(m.PeakEnclaveMemory)/(1<<20))
	fmt.Printf("attempts=%d intermediate items=%d (B²C+BK), output=%d\n",
		m.Attempts, m.IntermediateItems, len(out))
	c := enclave.Counters()
	fmt.Printf("enclave traffic: %.1f MB in, %.1f MB out; overhead %.2fx of input bytes\n",
		float64(c.BytesIn)/(1<<20), float64(c.BytesOut)/(1<<20),
		float64(c.BytesIn)/float64(int64(n)*int64(*itemSize)))
	return nil
}

// runShufflecmp regenerates the §4.1.3 comparison of oblivious-shuffle
// algorithms: the analytic SGX-processed-data overheads at the paper's
// reference sizes (10M and 100M 318-byte records, 92 MB enclave), plus a
// measured small-scale run of every implemented algorithm to demonstrate
// them working against the same enclave.
func runShufflecmp(args []string) error {
	fs := flag.NewFlagSet("shufflecmp", flag.ExitOnError)
	n := fs.Int("n", 20_000, "measured run size")
	workers := fs.Int("workers", 0, "StashShuffle distribution workers (0 = GOMAXPROCS, 1 = serial)")
	fs.Parse(args)

	fmt.Println("§4.1.3 analytic overheads (318-byte records, 92 MB EPC, paper figures in parens)")
	bucket := oblivious.BatcherBucketSize(sgx.DefaultEPC, oblivious.PaperItemSize)
	colCap := oblivious.EnclaveItemCapacity(sgx.DefaultEPC, oblivious.PaperItemSize)
	for _, cmp := range oblivious.PaperComparisons {
		var stash float64
		for _, sc := range oblivious.PaperScenarios {
			if sc.N == cmp.N {
				stash = oblivious.StashOverhead(sc.N, sc.B, sc.C, sc.S)
			}
		}
		colStr := "8.00"
		if cmp.N > oblivious.ColumnSortMaxItems(colCap) {
			colStr = "infeasible"
		}
		fmt.Printf("N=%-11d Batcher %.0fx (%.0f)   ColumnSort %s (8, cap %dM)   Cascade(model) %.0fx (%.0f)   Stash %.2fx (%.2f)\n",
			cmp.N,
			oblivious.BatcherOverhead(cmp.N, bucket), cmp.BatcherOverhead,
			colStr, oblivious.ColumnSortMaxItems(colCap)/1_000_000,
			oblivious.CascadeOverhead(cmp.N, colCap, -64), cmp.CascadeOverhead,
			stash, cmp.StashOverhead)
	}
	fmt.Printf("Melbourne Shuffle permutation cap: %dM items in 92 MB (paper: \"a few dozen million\")\n\n",
		oblivious.MelbourneMaxItems(sgx.DefaultEPC)/1_000_000)

	fmt.Printf("Measured runs at N=%d, 72-byte payloads (real crypto against the simulated enclave):\n", *n)
	in := records(*n, 72)
	inputBytes := float64(*n) * 72
	runOne := func(name string, mk func(e *sgx.Enclave) oblivious.Shuffler) {
		e := sgx.New(sgx.DefaultEPC, sgx.Measure(name))
		s := mk(e)
		start := time.Now()
		out, err := s.Shuffle(in)
		if err != nil {
			fmt.Printf("%-18s FAILED: %v\n", name, err)
			return
		}
		el := time.Since(start)
		c := e.Counters()
		fmt.Printf("%-18s time=%-12v enclave-in=%6.1fx  items=%d\n",
			name, el.Round(time.Millisecond), float64(c.BytesIn)/inputBytes, len(out))
	}
	runOne("StashShuffle", func(e *sgx.Enclave) oblivious.Shuffler {
		s := oblivious.NewStashShuffle(e, oblivious.Passthrough{}, *n)
		s.Workers = *workers
		return s
	})
	runOne("BatcherSort", func(e *sgx.Enclave) oblivious.Shuffler {
		return &oblivious.BatcherShuffle{Enclave: e, Codec: oblivious.Passthrough{}, BucketSize: 512}
	})
	runOne("ColumnSort", func(e *sgx.Enclave) oblivious.Shuffler {
		// Pick a column size r with r*s >= n and r >= 2(s-1)^2.
		r := 1024
		for oblivious.ColumnSortMaxItems(r) < *n {
			r *= 2
		}
		return &oblivious.ColumnSortShuffle{Enclave: e, Codec: oblivious.Passthrough{}, ColumnSize: r}
	})
	runOne("MelbourneShuffle", func(e *sgx.Enclave) oblivious.Shuffler {
		return &oblivious.MelbourneShuffle{Enclave: e, Codec: oblivious.Passthrough{}}
	})
	runOne("CascadeMix", func(e *sgx.Enclave) oblivious.Shuffler {
		return &oblivious.CascadeMixShuffle{Enclave: e, Codec: oblivious.Passthrough{}, ChunkSize: 2048, Rounds: 8}
	})
	return nil
}
