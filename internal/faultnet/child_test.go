package faultnet

import (
	"fmt"
	"net"
	"strings"
	"testing"
)

// childSpec is the faultnet tests' child party: a bare listener that, when
// Race is set, commits a data race as it stops.
type childSpec struct{ Race bool }

func TestMain(m *testing.M) {
	ChildMain(m, func(spec childSpec) (string, func() error, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		return l.Addr().String(), func() error {
			if spec.Race {
				x, done := 0, make(chan struct{})
				go func() { x++; close(done) }()
				x++
				<-done
			}
			return l.Close()
		}, nil
	})
}

// TestChildKillAndStop: a killed child's wait status says SIGKILL, a
// stopped one exits 0, and a child left running is stopped at the end of
// its test; a spawned child killed before it printed its address too.
func TestChildKillAndStop(t *testing.T) {
	spawned, err := SpawnChild(t, childSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := spawned.Kill(); err != nil {
		t.Errorf("kill at spawn: %v", err)
	}
	for _, end := range []string{"kill", "stop", "cleanup"} {
		c, err := StartChild(t, childSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if conn, err := net.Dial("tcp", c.Addr); err != nil {
			t.Fatalf("dialing the child's address %q: %v", c.Addr, err)
		} else {
			conn.Close()
		}
		switch end {
		case "kill":
			err = c.Kill()
		case "stop":
			err = c.Stop()
		}
		if err != nil {
			t.Errorf("%s: %v", end, err)
		}
	}
}

// recorder is a testing.TB whose cleanups and errors the test collects.
type recorder struct {
	testing.TB
	cleanups []func()
	errs     []string
}

func (r *recorder) Cleanup(f func())  { r.cleanups = append(r.cleanups, f) }
func (r *recorder) Error(args ...any) { r.errs = append(r.errs, fmt.Sprint(args...)) }
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestChildRaceFailsTheTest: a data race in a child fails the test that
// started it, though the race detector's exit status never reaches the
// parent of a killed child.
func TestChildRaceFailsTheTest(t *testing.T) {
	if !raceEnabled {
		t.Skip("needs -race")
	}
	r := &recorder{TB: t}
	if _, err := StartChild(r, childSpec{Race: true}); err != nil {
		t.Fatal(err)
	}
	for _, f := range r.cleanups {
		f()
	}
	got := strings.Join(r.errs, "\n")
	if !strings.Contains(got, "want exit status 0") || !strings.Contains(got, "WARNING: DATA RACE") {
		t.Errorf("the racing child's test got errors %q, want a failed stop and the race report", got)
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool
