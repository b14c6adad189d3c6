package main

import (
	"flag"
	"fmt"

	"prochlo/internal/flix"
	"prochlo/internal/perms"
	"prochlo/internal/suggest"
	"prochlo/internal/vocab"
	"prochlo/internal/workload"
)

// runVocab regenerates Figure 5 (unique words recovered by collection method
// and sample size) and, with -time, Table 3 (Vocab pipeline execution time).
func runVocab(args []string) error {
	fs := flag.NewFlagSet("vocab", flag.ExitOnError)
	maxSize := fs.Int("max", 1_000_000, "largest sample size (paper: 10M; RAPPOR decode dominates)")
	timing := fs.Bool("time", false, "measure Table 3 pipeline timing instead")
	timeClients := fs.Int("clients", 10_000, "client count for -time")
	seed := fs.Uint64("seed", 42, "workload seed")
	fs.Parse(args)

	if *timing {
		res, err := vocab.MeasureTiming(*timeClients)
		if err != nil {
			return err
		}
		fmt.Println("Table 3: Vocab pipeline execution time")
		fmt.Printf("%-10s %-28s %-28s %-20s\n", "# clients",
			"Encoder+Shuffler1 {SC,NoC,C}", "Blinded-C Encoder+Shuffler1", "Blinded-C Shuffler2")
		fmt.Printf("%-10d %-28v %-28v %-20v\n", res.Clients,
			res.EncoderShuffler1.Round(1e6),
			res.BlindedEncoderShuffler1.Round(1e6),
			res.BlindedShuffler2.Round(1e6))
		return nil
	}

	cfg := vocab.DefaultConfig()
	sizes := []int{}
	for _, s := range vocab.Figure5Sizes {
		if s <= *maxSize {
			sizes = append(sizes, s)
		}
	}
	methods := []vocab.Method{vocab.GroundTruth, vocab.NoCrowd, vocab.Crowd, vocab.Partition, vocab.RAPPOR}

	fmt.Println("Figure 5: unique words recovered (paper values in parens where reported)")
	fmt.Printf("%-22s", "method \\ sample")
	for _, s := range sizes {
		fmt.Printf("%14d", s)
	}
	fmt.Println()
	for _, m := range methods {
		fmt.Printf("%-22s", m)
		for _, s := range sizes {
			r := cfg.Run(workload.NewRand(*seed+uint64(s)), m, s)
			paper := ""
			if p, ok := vocab.PaperFigure5[m][s]; ok {
				paper = fmt.Sprintf(" (%d)", p)
			}
			fmt.Printf("%14s", fmt.Sprintf("%d%s", r.Unique, paper))
		}
		fmt.Println()
	}
	fmt.Println("\n*-Crowd = Crowd/Secret-Crowd/Blinded-Crowd (identical utility, different attack resistance)")
	return nil
}

// runPerms regenerates Table 4: Web pages recovered per Chrome permission
// feature, under a naive threshold and under noisy per-action crowd
// thresholds.
func runPerms(args []string) error {
	fs := flag.NewFlagSet("perms", flag.ExitOnError)
	n := fs.Int("n", 2_000_000, "permission events to synthesize")
	seed := fs.Uint64("seed", 21, "workload seed")
	fs.Parse(args)

	rng := workload.NewRand(*seed)
	events := workload.DefaultPerms.Generate(rng, *n)
	cfg := perms.DefaultConfig()
	res := perms.Run(rng, cfg, events)

	eps, _ := cfg.Privacy(1e-7)
	fmt.Printf("Table 4: pages recovered from %d events (threshold %d, sigma %.0f => (%.2f, 1e-7)-DP; paper values in parens)\n\n",
		*n, cfg.Threshold, cfg.Sigma, eps)
	fmt.Printf("%-16s", "")
	for f := 0; f < workload.NumFeatures; f++ {
		fmt.Printf("%16s", workload.FeatureName(f))
	}
	fmt.Println()
	row := func(name string, vals [workload.NumFeatures]int, paperRow int) {
		fmt.Printf("%-16s", name)
		for f := 0; f < workload.NumFeatures; f++ {
			fmt.Printf("%16s", fmt.Sprintf("%d (%d)", vals[f], perms.PaperTable4[paperRow][f]))
		}
		fmt.Println()
	}
	row("Naive Thresh.", res.Naive, 0)
	for a := 0; a < workload.NumActions; a++ {
		row(workload.ActionName(a), res.ByAction[a], a+1)
	}
	return nil
}

// runSuggest regenerates the §5.4 Suggest result: a next-view predictor
// trained on anonymous, disjoint 3-tuples retains ~90% of the accuracy of
// one trained on full view histories, and predicts the next view better
// than 1 in 8.
func runSuggest(args []string) error {
	fs := flag.NewFlagSet("suggest", flag.ExitOnError)
	users := fs.Int("users", 40_000, "training users")
	tupleLen := fs.Int("m", 3, "fragment tuple length")
	seed := fs.Uint64("seed", 31, "workload seed")
	fs.Parse(args)

	e := suggest.DefaultExperiment()
	e.Users = *users
	e.TupleLen = *tupleLen
	out := e.Run(workload.NewRand(*seed))

	fmt.Printf("Suggest (§5.4): catalog %d, %d users, %d-tuples\n",
		e.Workload.Catalog, e.Users, e.TupleLen)
	fmt.Printf("full-history model accuracy:   %.4f\n", out.FullAccuracy)
	fmt.Printf("fragmented-tuple model:        %.4f (%.0f%% of full; paper: ~90%%)\n",
		out.TupleAccuracy, 100*out.TupleAccuracy/out.FullAccuracy)
	fmt.Printf("better than 1-in-8 claim:      %v (1/8 = 0.125)\n", out.TupleAccuracy > 0.125)
	fmt.Printf("tuples surviving thresholding: %d / %d\n", out.TuplesKept, out.TuplesTotal)
	return nil
}

// runFlix regenerates Table 5: collaborative-filtering RMSE with and without
// the PROCHLO pipeline, at two dataset scales (users scaled down from the
// paper's Netflix-shaped corpus; pass -scale to adjust).
func runFlix(args []string) error {
	fs := flag.NewFlagSet("flix", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "user-count multiplier")
	seed := fs.Uint64("seed", 45, "workload seed")
	fs.Parse(args)

	rows := []struct {
		movies, users int
		threshold     int
	}{
		{200, 9_000, 5}, // Table 5 footnote: threshold 5 for the sparse set
		{2_000, 35_000, 20},
	}
	fmt.Println("Table 5: Flix RMSE (lower is better; paper values in parens)")
	fmt.Printf("%-10s %-10s %-10s %-22s %-22s\n", "# movies", "# users", "# reports", "no privacy", "PROCHLO")
	for i, r := range rows {
		wcfg := workload.DefaultFlix
		wcfg.Movies = r.movies
		wcfg.Users = int(float64(r.users) * *scale)
		cfg := flix.DefaultConfig()
		cfg.Threshold.T = r.threshold
		cfg.Threshold.D = float64(r.threshold) / 2
		cfg.Threshold.Sigma = 1
		out := flix.Run(workload.NewRand(*seed+uint64(i)), wcfg, cfg)
		paper := flix.PaperTable5[i]
		fmt.Printf("%-10d %-10d %-10d %-22s %-22s\n",
			out.Movies, out.Users, out.Reports,
			fmt.Sprintf("%.4f (%.4f)", out.BaselineRMSE, paper.NoPrivacy),
			fmt.Sprintf("%.4f (%.4f)", out.ProchloRMSE, paper.ProchloRMSE))
	}
	fmt.Println("\nabsolute RMSE differs (synthetic latent-factor corpus); the comparison is the gap")
	return nil
}
