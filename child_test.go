package prochlo_test

import (
	"math/big"
	"testing"

	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/faultnet"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

// The crash soaks run each shuffler replica they crash in a child process
// (faultnet.StartChild) and end it with a real SIGKILL, which severs the
// listener and every connection at once, as a dead daemon's are. The child
// builds its replica from a childSpec as the fleet builder does.
func TestMain(m *testing.M) { faultnet.ChildMain(m, serveChild) }

// childSpec is everything a child replica is built from: its role, its
// tier's secrets, the deployment's seed and floor, where it pushes, where
// it listens and its epochs.
type childSpec struct {
	Role     string
	Priv     []byte   // the tier's hybrid key
	X        *big.Int // the tier's El Gamal secret
	Seed     uint64
	MinBatch int
	Next     []string
	Listen   string // "127.0.0.1:0", or a dead replica's address to take over
	Cfg      transport.EpochConfig
}

// serveChild is the child's main: it serves the replica spec describes and
// returns its address and its graceful stop.
func serveChild(spec childSpec) (string, func() error, error) {
	var sec shuffler.Secrets
	var err error
	if sec.Priv, err = hybrid.ParsePrivateKey(spec.Priv); err != nil {
		return "", nil, err
	}
	if sec.Blinding, err = elgamal.NewKeyPair(spec.X); err != nil {
		return "", nil, err
	}
	svc, err := newStage(spec.Role, sec, shuffler.Params{Seed: spec.Seed, MinBatch: spec.MinBatch}, spec.Next, spec.Cfg)
	if err != nil {
		return "", nil, err
	}
	l, err := transport.Serve(spec.Listen, svc)
	if err != nil {
		return "", nil, err
	}
	return l.Addr().String(), func() error { l.Close(); return svc.Close() }, nil
}

// startChild starts a replica of role in a child process, listening at
// listen, and waits for its address. It is safe to call from a fault
// plan's kill hook: it reports failure as an error, not through t.
func startChild(t *testing.T, role string, sec shuffler.Secrets, p shuffler.Params, next []string,
	cfg transport.EpochConfig, listen string) (*faultnet.Child, error) {
	return faultnet.StartChild(t, childSpec{Role: role, Priv: sec.Priv.Bytes(), X: sec.Blinding.X, Seed: p.Seed,
		MinBatch: p.MinBatch, Next: next, Listen: listen, Cfg: cfg})
}

// stageStats fetches a stage's stats over the wire.
func stageStats(t *testing.T, addr string) transport.ServiceStats {
	t.Helper()
	cl, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}
