package transport

import (
	"strconv"

	"prochlo/internal/analyzer"
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

	analyzers []*AnalyzerService
	closers   []func()
}

// StartFleet starts a fleet, downstream first. The analyzer partitions share
// one key, and each tier's replicas share one shuffler.GenerateSecrets, as
// daemons sharing a -key-file do; every stage is shuffler.NewStage(role,
// the tier's secrets, p), so a seeded replica draws the stream a seeded
// prochlod daemon of its role and prochlo.New(WithSeed) draw. With reg set,
// every party registers its metrics there under {role, replica} labels.
// Close stops the fleet.
func StartFleet(tiers []Tier, analyzers int, p shuffler.Params, reg *metrics.Registry) (_ *Fleet, err error) {
	f := &Fleet{Tiers: make([][]string, len(tiers))}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	labels := func(role string, i int) metrics.Labels {
		return metrics.Labels{"role": role, "replica": strconv.Itoa(i)}
	}
	serve := func(svc Service) (string, error) {
		l, err := Serve("127.0.0.1:0", svc)
		if err != nil {
			return "", err
		}
		f.closers = append(f.closers, func() { l.Close() })
		return l.Addr().String(), nil
	}

	anlz, err := shuffler.GenerateSecrets()
	if err != nil {
		return nil, err
	}
	for i := 0; i < analyzers; i++ {
		svc := NewAnalyzerService(&analyzer.Analyzer{Priv: anlz.Priv, Workers: p.Workers})
		if reg != nil {
			svc.RegisterMetrics(reg, labels("analyzer", i))
		}
		addr, err := serve(svc)
		if err != nil {
			return nil, err
		}
		f.analyzers = append(f.analyzers, svc)
		f.Analyzers = append(f.Analyzers, addr)
	}
	next := f.Analyzers
	for t := len(tiers) - 1; t >= 0; t-- {
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
				cfg.Metrics, cfg.MetricsLabels = reg, labels(tiers[t].Role, i)
			}
			svc, err := NewStageService(st, next, cfg)
			if err != nil {
				return nil, err
			}
			f.closers = append(f.closers, func() { svc.Close() })
			addr, err := serve(svc)
			if err != nil {
				return nil, err
			}
			f.Tiers[t] = append(f.Tiers[t], addr)
		}
		next = f.Tiers[t]
	}
	return f, nil
}

// Records sums the records the analyzer partitions have materialized.
func (f *Fleet) Records() int {
	total := 0
	for _, a := range f.analyzers {
		total += a.Stats().Records
	}
	return total
}

// Close stops the parties entry tier first — each stage's listener, then its
// drain into the still-running tier below — and the analyzers last.
func (f *Fleet) Close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}
