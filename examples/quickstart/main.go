// Quickstart: collect a word histogram through a full ESA pipeline with the
// paper's (2.25, 1e-6)-DP randomized crowd thresholding — values reported by
// too few clients never reach the analyzer.
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"prochlo"
)

func main() {
	p, err := prochlo.New(
		prochlo.WithSeed(7),                   // reproducible demo
		prochlo.WithNoisyThreshold(20, 10, 2), // the paper's §5 setting
	)
	if err != nil {
		log.Fatal(err)
	}

	eps, err := p.PrivacyGuarantee(1e-6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crowd-ID multiset guarantee: (%.2f, 1e-6)-differential privacy\n\n", eps)

	// 120 clients report "settings-v2", 40 report "settings-v1", and one
	// lone client reports something unique. The whole fleet is submitted as
	// one batch: SubmitBatch encodes on a worker pool (every core by
	// default — see prochlo.WithWorkers), which is the fast path for
	// population-scale collection; the single-report p.Submit is equivalent
	// report for report.
	var labels []string
	var data [][]byte
	report := func(value string, n int) {
		for i := 0; i < n; i++ {
			labels = append(labels, "setting:"+value)
			data = append(data, []byte(value))
		}
	}
	report("settings-v2", 120)
	report("settings-v1", 40)
	report("my-secret-custom-build", 1)
	if err := p.SubmitBatch(labels, data); err != nil {
		log.Fatal(err)
	}

	res, err := p.Flush()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("analyzer histogram (unique report suppressed, common ones slightly thinned):")
	for _, v := range slices.Sorted(maps.Keys(res.Histogram)) {
		fmt.Printf("  %-24s %d\n", v, res.Histogram[v])
	}
	fmt.Printf("\nshuffler saw %d crowds, forwarded %d\n",
		res.ShufflerStats.Crowds, res.ShufflerStats.CrowdsForwarded)
}
