package transport

import (
	"strconv"

	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
)

// Tier is one tier of a Fleet: Replicas services of one role ("shuffler",
// "shuffler1", "shuffler2" or "analyzer"), every one with the epoch config
// Epochs (zero for the analyzer, which emits nothing).
type Tier struct {
	Role     string
	Replicas int
	Epochs   EpochConfig
}

// Fleet is a whole deployment in one process, every party on its own
// loopback port: its tiers in chain order, the analyzer's last, each replica
// pushing to every replica of the next tier. It is the deployment
// cmd/prochlod runs as separate daemons, standing in one process for the
// load generator, the examples and the tests.
type Fleet struct {
	Tiers [][]string // each tier's replica addresses, in chain order, the analyzer's last

	closers []func()
}

// StartFleet starts a fleet, downstream first. tiers lists it in chain
// order, the analyzer tier (Role "analyzer") last; the engine refuses an
// analyzer anywhere else and a shuffler tier with nothing behind it. Each
// tier's replicas share one shuffler.GenerateSecrets, as daemons sharing a
// -key-file do; every stage is shuffler.NewStage(role, the tier's secrets,
// p), so a seeded replica draws the stream a seeded prochlod daemon of its
// role and prochlo.New(WithSeed) draw. With reg set, every party registers
// its metrics there under {role, replica} labels. Close stops the fleet.
func StartFleet(tiers []Tier, p shuffler.Params, reg *metrics.Registry) (_ *Fleet, err error) {
	f := &Fleet{Tiers: make([][]string, len(tiers))}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	for t := len(tiers) - 1; t >= 0; t-- {
		var next []string
		if t+1 < len(tiers) {
			next = f.Tiers[t+1]
		}
		sec, err := shuffler.GenerateSecrets()
		if err != nil {
			return nil, err
		}
		for i := 0; i < tiers[t].Replicas; i++ {
			st, err := shuffler.NewStage(tiers[t].Role, sec, p)
			if err != nil {
				return nil, err
			}
			cfg := tiers[t].Epochs
			if reg != nil {
				cfg.Metrics, cfg.MetricsLabels = reg, metrics.Labels{"role": tiers[t].Role, "replica": strconv.Itoa(i)}
			}
			svc, err := NewStageService(st, next, cfg)
			if err != nil {
				return nil, err
			}
			f.closers = append(f.closers, func() { svc.Close() })
			l, err := Serve("127.0.0.1:0", svc)
			if err != nil {
				return nil, err
			}
			f.closers = append(f.closers, func() { l.Close() })
			f.Tiers[t] = append(f.Tiers[t], l.Addr().String())
		}
	}
	return f, nil
}

// Close stops the parties entry tier first — each stage's listener, then its
// drain into the still-running tier below — and the analyzers last.
func (f *Fleet) Close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}
