package vocab

import (
	crand "crypto/rand"
	"fmt"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/shuffler"
)

// TimingResult is one row of Table 3: wall-clock execution of the Vocab
// pipeline for a number of clients, for the single-shuffler configurations
// (Secret-Crowd, NoCrowd, Crowd — whose costs are identical: two hybrid
// seals per client plus one shuffler decryption), and for the two-shuffler
// blinded configuration.
type TimingResult struct {
	Clients int
	// EncoderShuffler1 is the "Encoder+Shuffler 1 {Secret-C, NoC, C}"
	// column: client encoding plus single-shuffler processing.
	EncoderShuffler1 time.Duration
	// BlindedEncoderShuffler1 is the "Blinded-C" encoder+Shuffler 1
	// column: El Gamal crowd-ID encryption plus blinding.
	BlindedEncoderShuffler1 time.Duration
	// BlindedShuffler2 is the Shuffler 2 column: pseudonym decryption and
	// layer peeling.
	BlindedShuffler2 time.Duration
}

// MeasureTiming reproduces Table 3's measurement at the given client count.
// Costs scale linearly in clients and are dominated by public-key
// operations, the property the paper calls out.
func MeasureTiming(nClients int) (TimingResult, error) {
	res := TimingResult{Clients: nClients}
	// One tier's secrets and stage per role, as a deployment builds them.
	secs, stages := map[string]shuffler.Secrets{}, map[string]shuffler.Stage{}
	for _, role := range []string{"shuffler", "shuffler1", "shuffler2"} {
		sec, err := shuffler.GenerateSecrets()
		if err != nil {
			return res, err
		}
		st, err := shuffler.NewStage(role, sec, shuffler.Params{Seed: 99, MinBatch: 1})
		if err != nil {
			return res, err
		}
		secs[role], stages[role] = sec, st
	}
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		return res, err
	}
	client := &encoder.Client{ShufflerKey: secs["shuffler"].Priv.Public(), AnalyzerKey: anlzPriv.Public(), Rand: crand.Reader}

	// Single-shuffler path: encode every report, then shuffler-process.
	start := time.Now()
	batch := make([]core.Envelope, nClients)
	for i := range batch {
		w := fmt.Sprintf("word-%d", i%1000)
		env, err := client.Encode(core.Report{CrowdID: core.HashCrowdID(w), Data: []byte(w)})
		if err != nil {
			return res, err
		}
		batch[i] = env
	}
	if _, _, err := stages["shuffler"].ProcessEpoch(core.Batch{Envelopes: batch}); err != nil {
		return res, err
	}
	res.EncoderShuffler1 = time.Since(start)

	// Blinded path.
	s2 := secs["shuffler2"]
	bclient := &encoder.BlindedClient{
		Shuffler2Blinding: s2.Blinding.H, Shuffler2Key: s2.Priv.Public(),
		AnalyzerKey: anlzPriv.Public(), Rand: crand.Reader,
	}
	start = time.Now()
	bbatch := make([]core.BlindedEnvelope, nClients)
	for i := range bbatch {
		w := fmt.Sprintf("word-%d", i%1000)
		env, err := bclient.Encode(w, []byte(w))
		if err != nil {
			return res, err
		}
		bbatch[i] = env
	}
	blinded, _, err := stages["shuffler1"].ProcessEpoch(core.Batch{Blinded: bbatch})
	if err != nil {
		return res, err
	}
	res.BlindedEncoderShuffler1 = time.Since(start)

	start = time.Now()
	if _, _, err := stages["shuffler2"].ProcessEpoch(blinded); err != nil {
		return res, err
	}
	res.BlindedShuffler2 = time.Since(start)
	return res, nil
}
