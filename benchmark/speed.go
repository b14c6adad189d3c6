package main

import (
	"crypto/ecdh"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Machine-speed reference.
//
// The machines this benchmark runs on are small shared VMs whose speed, for
// exactly this kind of code — multiply-heavy elliptic-curve arithmetic on
// every core — shifts by tens of percent for minutes at a time (what the
// neighbours on the host do decides). Unscaled, ten runs of one commit spread
// by 15-20 % of their median and no regression bound below that means
// anything. So every timed sample is scaled by how fast the machine was
// while it was taken: around every round (and set-up, and replay
// repetition) a fixed reference kernel runs on every core, and the sample is
// multiplied by nominal ÷ measured reference time. The kernel is X25519 from
// the Go standard library: the same class of work as the program's hot path,
// so it feels the same interference, yet no code of this repository, so no
// change to the program can move it. A register-only integer loop was tried
// first and does not track (3 % spread while the workload moved 17 %).
//
// The scaled figures read as "on a machine where one X25519 costs
// refNominalOpUS"; that is about what this sandbox does when its neighbours
// are quiet, so scaled and raw agree there. Raw samples and the measured
// speeds are kept in every result record.
const (
	refOpsPerCore  = 800 // X25519 shared-secret computations per core per sample, ~40 ms
	refNominalOpUS = 50.0
)

var (
	refOnce sync.Once
	refPriv *ecdh.PrivateKey
	refPub  *ecdh.PublicKey
	refErr  error
)

func refKeys() error {
	refOnce.Do(func() {
		a, b := make([]byte, 32), make([]byte, 32)
		for i := range a {
			a[i], b[i] = byte(i+1), byte(2*i+3)
		}
		if refPriv, refErr = ecdh.X25519().NewPrivateKey(a); refErr != nil {
			return
		}
		var peer *ecdh.PrivateKey
		if peer, refErr = ecdh.X25519().NewPrivateKey(b); refErr == nil {
			refPub = peer.PublicKey()
		}
	})
	return refErr
}

// speed is how fast the machine ran the reference kernel, relative to
// nominal: 1 is nominal, 0.5 is half speed. Wall is by elapsed time (for
// rates and latencies), CPU by processor time (for CPU costs); they differ
// when the cores were not all available.
type speed struct{ Wall, CPU float64 }

// refTimes is one run of the reference kernel: elapsed and processor
// microseconds per operation.
type refTimes struct{ WallUS, CPUUS float64 }

// sampleRef runs the reference kernel once, on every core at the same time.
// The elapsed figure is the mean of what each core's goroutine took for its
// own share (not the time until the last one finished, which a single
// scheduling hiccup decides).
func sampleRef() (refTimes, error) {
	if err := refKeys(); err != nil {
		return refTimes{}, fmt.Errorf("reference kernel keys: %w", err)
	}
	cores := runtime.GOMAXPROCS(0)
	errs := make([]error, cores)
	elapsed := make([]time.Duration, cores)
	cpu0, err := selfCPU()
	if err != nil {
		return refTimes{}, err
	}
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for i := 0; i < refOpsPerCore; i++ {
				if _, err := refPriv.ECDH(refPub); err != nil {
					errs[c] = err
					return
				}
			}
			elapsed[c] = time.Since(start)
		}()
	}
	wg.Wait()
	cpu1, err := selfCPU()
	if err != nil {
		return refTimes{}, err
	}
	var total time.Duration
	for c, err := range errs {
		if err != nil {
			return refTimes{}, fmt.Errorf("reference kernel: %w", err)
		}
		total += elapsed[c]
	}
	ops := float64(cores * refOpsPerCore)
	return refTimes{
		WallUS: float64(total.Nanoseconds()) / 1e3 / ops,
		CPUUS:  cpu1.sub(cpu0).total() / ops,
	}, nil
}

// speedBetween is the machine speed over an interval bracketed by two
// reference samples.
func speedBetween(before, after refTimes) speed {
	return speed{
		Wall: refNominalOpUS / ((before.WallUS + after.WallUS) / 2),
		CPU:  refNominalOpUS / ((before.CPUUS + after.CPUUS) / 2),
	}
}

// keepCoresBusy runs the reference kernel on all cores but one until the
// returned stop function is called (which waits for the goroutines to end).
// The staged replay is serial, and on hyperthreaded vCPUs a core runs
// markedly faster while its sibling idles; with the siblings kept busy the
// replay pays what the same work pays in a live run, where every core is
// busy, and the two can be summed and compared.
func keepCoresBusy() (stop func(), err error) {
	if err := refKeys(); err != nil {
		return nil, fmt.Errorf("reference kernel keys: %w", err)
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for c := 1; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-quit:
					return
				default:
					refPriv.ECDH(refPub) //nolint:errcheck // fixed valid keys; only the work matters
				}
			}
		}()
	}
	return func() { close(quit); wg.Wait() }, nil
}
