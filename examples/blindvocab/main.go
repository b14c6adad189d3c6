// Blinded-Crowd word collection (§5.2's strongest configuration): words are
// secret-share encoded (§4.2) so the analyzer can only decrypt values
// reported by >= t clients, and crowd IDs are El Gamal-blinded across two
// shufflers (§4.3) so neither shuffler can dictionary-attack them.
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
		prochlo.WithSeed(13),
		prochlo.WithMode(prochlo.ModeBlinded),
		prochlo.WithSecretShare(20),
		prochlo.WithNoisyThreshold(20, 10, 2),
	)
	if err != nil {
		log.Fatal(err)
	}

	// The crowd label is the word itself; on the wire it travels only as an
	// El Gamal encryption of its curve-hash. The fleet submits as one batch
	// so the El Gamal + double-seal encoding runs on every core.
	var labels []string
	var data [][]byte
	report := func(word string, n int) {
		for i := 0; i < n; i++ {
			labels = append(labels, "word:"+word)
			data = append(data, []byte(word))
		}
	}
	report("the", 150)
	report("prochlo", 60)
	report("4d7a9c-unique-love-letter", 7) // hard-to-guess, rare: stays secret
	if err := p.SubmitBatch(labels, data); err != nil {
		log.Fatal(err)
	}

	res, err := p.Flush()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered words (count >= t=20 shares after thresholding):")
	for _, w := range slices.Sorted(maps.Keys(res.Recovered)) {
		fmt.Printf("  %-12q %d\n", w, res.Recovered[w])
	}
	fmt.Printf("\nrare unique value recovered? %v (7 shares < t)\n",
		func() bool { _, ok := res.Recovered["4d7a9c-unique-love-letter"]; return ok }())
	fmt.Printf("shuffler-2 saw %d blinded crowds, forwarded %d\n",
		res.ShufflerStats.Crowds, res.ShufflerStats.CrowdsForwarded)
}
