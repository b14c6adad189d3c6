package transport

import (
	"math/big"
	"math/rand/v2"
	"testing"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/faultnet"
	"prochlo/internal/shuffler"
)

// A crash test runs the stage it crashes in a child process
// (faultnet.StartChild) and ends it with a real SIGKILL; the child's WAL
// directory is then exactly what a dead daemon leaves. The child builds its
// StageService from a childSpec.
func TestMain(m *testing.M) { faultnet.ChildMain(m, serveChild) }

// childSpec is everything a child stage is built from.
type childSpec struct {
	Kind   core.BatchKind // KindEnvelopes: the plain shuffler; KindBlinded: hop 2
	Floor  int            // the stage's anonymity floor; 0 is 1
	Priv   []byte         // the stage's hybrid key
	X      *big.Int       // hop 2's El Gamal secret; unused by the plain shuffler
	Next   []string
	Listen string // "127.0.0.1:0", or a dead child's address to take over
	Cfg    EpochConfig
}

// crashStage builds the stage a crash test runs, in the child or, for a
// test that needs one in process, in the parent. The stage RNG restarts
// from a fixed seed: without thresholding the histogram is
// permutation-independent, which is the restart-determinism contract the
// engine promises.
func crashStage(kind core.BatchKind, floor int, priv *hybrid.PrivateKey, blind *elgamal.KeyPair) shuffler.Stage {
	rng := rand.New(rand.NewPCG(5, 7))
	if kind == core.KindBlinded {
		return &shuffler.Shuffler2{Blinding: blind, Priv: priv, Rand: rng, MinBatch: max(1, floor)}
	}
	return &shuffler.Shuffler{Priv: priv, Rand: rng, MinBatch: max(1, floor)}
}

// serveChild is the child's main: it serves the stage spec describes and
// returns its address and its graceful stop.
func serveChild(spec childSpec) (string, func() error, error) {
	priv, err := hybrid.ParsePrivateKey(spec.Priv)
	if err != nil {
		return "", nil, err
	}
	blind, err := elgamal.NewKeyPair(spec.X)
	if err != nil {
		return "", nil, err
	}
	svc, err := NewStageService(crashStage(spec.Kind, spec.Floor, priv, blind), spec.Next, spec.Cfg)
	if err != nil {
		return "", nil, err
	}
	l, err := Serve(spec.Listen, svc)
	if err != nil {
		return "", nil, err
	}
	return l.Addr().String(), func() error { l.Close(); return svc.Close() }, nil
}

// startChild starts a child stage and waits for its listen address.
func startChild(t testing.TB, spec childSpec) *faultnet.Child {
	t.Helper()
	c, err := faultnet.StartChild(t, spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
