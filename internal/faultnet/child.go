package faultnet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// A crash test runs the party it crashes in a child process: the test
// binary run again with the party's spec in childEnv, so it is built like
// the parent, -race included. The test ends it with a real SIGKILL, which
// can land at any instruction. A killed child exits with no race-detector
// status, so every child writes its race reports to a file and halts on
// the first, and the test fails on any report.
const childEnv = "PROCHLO_FAULTNET_CHILD"

// stopWait bounds how long Stop waits for a child to exit.
const stopWait = 30 * time.Second

// ChildMain is a test binary's TestMain. In the test process it runs the
// tests. In a child it decodes the spec StartChild passed, calls serve,
// prints the address serve returns, and once stdin reaches EOF (so no child
// outlives its test) calls the stop serve returned and exits 0 if it
// succeeds.
func ChildMain[S any](m *testing.M, serve func(spec S) (addr string, stop func() error, err error)) {
	raw, ok := os.LookupEnv(childEnv)
	if !ok {
		os.Exit(m.Run())
	}
	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "faultnet child:", err)
		os.Exit(code)
	}
	var spec S
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fail(2, err)
	}
	addr, stop, err := serve(spec)
	if err != nil {
		fail(2, err)
	}
	fmt.Println(addr)
	io.Copy(io.Discard, os.Stdin) //nolint:errcheck // EOF or an error: either way the parent is done
	if err := stop(); err != nil {
		fail(1, err)
	}
	os.Exit(0)
}

// Child is a party running in a child process.
type Child struct {
	Addr   string // where the party listens
	cmd    *exec.Cmd
	stdin  io.Closer
	stdout *bufio.Reader // the child prints its address here
	exited chan struct{} // closed once Wait has returned
	ended  atomic.Bool   // Kill or Stop was called
}

// StartChild starts a child serving spec, passed as JSON, and returns once
// the child has printed its address. When t ends it stops a child still
// running and fails t if the stop fails or the child reported a data race.
// It returns its own failure instead of failing t, so a Plan's Kill hook
// may call it.
func StartChild(t testing.TB, spec any) (*Child, error) {
	c, err := SpawnChild(t, spec)
	if err != nil {
		return nil, err
	}
	line, err := c.stdout.ReadString('\n')
	if err != nil {
		c.ended.Store(true)
		<-c.exited
		return nil, fmt.Errorf("faultnet: child exited before it listened: %v", c.cmd.ProcessState)
	}
	c.Addr = strings.TrimSpace(line)
	return c, nil
}

// SpawnChild is StartChild without the wait for the address: it returns as
// soon as the child runs, so a Kill lands somewhere in its start-up (a
// stage's WAL replay, say), and the child's Addr stays empty.
func SpawnChild(t testing.TB, spec any) (*Child, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	raceLog := filepath.Join(t.TempDir(), "race")
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw),
		"GORACE="+os.Getenv("GORACE")+" halt_on_error=1 log_path="+raceLog)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	// The address is read from a pipe of the test's own, not StdoutPipe's,
	// which Wait closes: Wait runs from the start, so Kill can reap a child
	// that never printed.
	stdout, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = w
	err = cmd.Start()
	w.Close()
	if err != nil {
		stdout.Close()
		return nil, err
	}
	c := &Child{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout), exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // the status is read from ProcessState
		close(c.exited)
	}()
	t.Cleanup(func() {
		if !c.ended.Load() {
			if err := c.Stop(); err != nil {
				t.Error(err)
			}
		}
		<-c.exited
		stdout.Close()
		reports, _ := filepath.Glob(raceLog + ".*")
		for _, f := range reports {
			b, _ := os.ReadFile(f)
			t.Errorf("faultnet: data race in the child at %s:\n%s", c.Addr, b)
		}
	})
	return c, nil
}

// Kill ends the child with SIGKILL and checks that its wait status says so:
// a child that had already exited, on a data race say, is an error.
func (c *Child) Kill() error {
	c.ended.Store(true)
	c.cmd.Process.Kill() //nolint:errcheck // an exited child fails the status check
	<-c.exited
	if ws, ok := c.cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		return fmt.Errorf("faultnet: child at %s ended with %v, want killed by SIGKILL", c.Addr, c.cmd.ProcessState)
	}
	return nil
}

// Stop closes the child's stdin, on which the party stops gracefully, and
// checks that it exits 0. A child still running after stopWait is killed.
func (c *Child) Stop() error {
	c.ended.Store(true)
	c.stdin.Close()
	select {
	case <-c.exited:
	case <-time.After(stopWait):
		c.cmd.Process.Kill() //nolint:errcheck // it may have exited meanwhile
		<-c.exited
		return fmt.Errorf("faultnet: child at %s did not stop within %v", c.Addr, stopWait)
	}
	if !c.cmd.ProcessState.Success() {
		return fmt.Errorf("faultnet: child at %s stopped with %v, want exit status 0", c.Addr, c.cmd.ProcessState)
	}
	return nil
}
