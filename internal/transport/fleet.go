package transport

import (
	"slices"
	"strconv"

	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
)

// Tier is one shuffler tier of a Fleet: Replicas services of one role
// ("shuffler", "shuffler1" or "shuffler2"), every one with the epoch config
// Epochs.
type Tier struct {
	Role     string
	Replicas int
	Epochs   EpochConfig
}

// Fleet is a whole deployment in one process, every party on its own
// loopback port: shuffler tiers in chain order, each replica pushing to every
// replica of the next tier (the last tier's to every analyzer partition). It
// is the deployment cmd/prochlod runs as separate daemons, standing in one
// process for the load generator, the examples and the tests.
type Fleet struct {
	Tiers     [][]string // each shuffler tier's replica addresses, in chain order
	Analyzers []string   // the analyzer partitions' addresses

	closers []func()
}

// StartFleet starts a fleet, downstream first: the analyzer partitions are one
// more tier of role "analyzer", behind the last shuffler tier. Each tier's
// replicas share one shuffler.GenerateSecrets, as daemons sharing a -key-file
// do; every stage is shuffler.NewStage(role, the tier's secrets, p), so a
// seeded replica draws the stream a seeded prochlod daemon of its role and
// prochlo.New(WithSeed) draw. With reg set, every party registers its metrics
// there under {role, replica} labels. Close stops the fleet.
func StartFleet(tiers []Tier, analyzers int, p shuffler.Params, reg *metrics.Registry) (_ *Fleet, err error) {
	f := &Fleet{}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	// The analyzer tier emits nothing, so its epoch config stays zero.
	all := append(slices.Clone(tiers), Tier{Role: "analyzer", Replicas: analyzers})
	addrs := make([][]string, len(all))
	for t := len(all) - 1; t >= 0; t-- {
		var next []string
		if t+1 < len(all) {
			next = addrs[t+1]
		}
		sec, err := shuffler.GenerateSecrets()
		if err != nil {
			return nil, err
		}
		for i := 0; i < all[t].Replicas; i++ {
			st, err := shuffler.NewStage(all[t].Role, sec, p)
			if err != nil {
				return nil, err
			}
			cfg := all[t].Epochs
			if reg != nil {
				cfg.Metrics, cfg.MetricsLabels = reg, metrics.Labels{"role": all[t].Role, "replica": strconv.Itoa(i)}
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
			addrs[t] = append(addrs[t], l.Addr().String())
		}
	}
	f.Tiers, f.Analyzers = addrs[:len(tiers)], addrs[len(tiers)]
	return f, nil
}

// Close stops the parties entry tier first — each stage's listener, then its
// drain into the still-running tier below — and the analyzers last.
func (f *Fleet) Close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}
