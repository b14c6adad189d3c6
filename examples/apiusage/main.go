// API-usage monitoring (§2.1): which system APIs does each application use?
// Each client fragments its app's API bitvector into per-API reports, so no
// report carries a linkable multi-API pattern; the crowd ID is the
// application, so APIs of rare (possibly secret) applications never reach
// the analyzer. This example also runs the shuffler inside the simulated
// SGX enclave with key attestation (§4.1).
package main

import (
	"fmt"
	"log"
	"sort"

	"prochlo"
)

// Synthetic fleet: three apps with different API profiles and popularity.
var fleet = []struct {
	app     string
	apis    []string
	devices int
}{
	{"com.example.browser", []string{"net.socket", "gfx.render", "fs.read"}, 90},
	{"com.example.editor", []string{"fs.read", "fs.write"}, 45},
	{"com.corp.secret-prototype", []string{"net.socket", "legacy.ioctl"}, 2},
}

func main() {
	p, err := prochlo.New(
		prochlo.WithSeed(11),
		prochlo.WithMode(prochlo.ModeSGX), // attested, obliviously-shuffled
		prochlo.WithNoisyThreshold(20, 10, 2),
	)
	if err != nil {
		log.Fatal(err)
	}
	m := p.Quote().Measurement
	fmt.Printf("shuffler key attested by quote over measurement %x...\n\n", m[:6])

	// Fixed-size reports: "app\x00api" padded to 48 bytes (the oblivious
	// shuffler sets aside, as undecryptable, any report of another size).
	pad := func(s string) []byte {
		b := make([]byte, 48)
		copy(b, s)
		return b
	}
	var labels []string
	var data [][]byte
	for _, f := range fleet {
		for d := 0; d < f.devices; d++ {
			for _, api := range f.apis {
				// One fragment per (app, API): no report links APIs.
				labels = append(labels, "app:"+f.app)
				data = append(data, pad(f.app+"\x00"+api))
			}
		}
	}
	// One parallel batch for the whole fleet (see prochlo.SubmitBatch).
	if err := p.SubmitBatch(labels, data); err != nil {
		log.Fatal(err)
	}

	res, err := p.Flush()
	if err != nil {
		log.Fatal(err)
	}
	type row struct {
		key   string
		count int
	}
	var rows []row
	for k, v := range res.Histogram {
		rows = append(rows, row{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	fmt.Println("per-app API usage reaching the analyzer:")
	for _, r := range rows {
		fmt.Printf("  %-52q %d\n", r.key, r.count)
	}
	fmt.Println("\nnote: com.corp.secret-prototype (2 devices) is absent — its crowd was below threshold")
}
