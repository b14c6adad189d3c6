package main

// sut.go is the benchmark's only binding to the system under test: no other
// file imports prochlo or prochlo/internal/..., and no other file knows a
// prochlod flag or what prochlod prints. A change that renames or removes
// anything below must re-bind it here (or be preceded by a benchmark issue
// that does); nothing else in this directory needs to change.
//
// Bound surface
//
//	package prochlo
//	  New, WithMode(ModeBlinded), WithSeed
//	  (*Pipeline).SubmitBatch, Flush; Result.Histogram/Undecryptable/ShufflerStats
//	  DialRemoteFleet, DialRemoteChainFleet, WithRemoteWorkers
//	  (*RemotePipeline).SubmitBatch, Flush, HopStats, Close; ServiceStats
//
//	cmd/prochlod
//	  flags  -role -listen -next -flush-at -seed -wal-dir -key-file -metrics-addr
//	  stdout "... listening on ADDR", "metrics on http://ADDR/metrics ..."
//	  /metrics series named in scrape.go (prochlo_stage_*_seconds,
//	  prochlo_reports_*_total, prochlo_epochs_flushed_total, prochlo_wal_fsync_seconds)
//
//	staged replay (internal packages, every call with one worker)
//	  encoder   Client.EncodeBatch, BlindedClient.EncodeBatch
//	  hybrid    GenerateKeyGroup, SealBatch, (*PrivateKey).OpenBatch, DrawSeeds/Seeds.RNG/PutRNG
//	  elgamal   GenerateKeyPairGroup, NewEncrypter, (*Encrypter).EncryptCrowdIDBatch,
//	            NewBlinderGroup, (*Blinder).BlindBatch, (*KeyPair).Decrypter,
//	            (*Decrypter).PseudonymBatch, HashToPointGroup, NewPoint, Point.Bytes
//	  group     Default, Group.Decode/MulBatch/RandomScalar
//	  core      HashCrowdID, Report, Batch, AppendBatch, DecodeBatchAlias
//	  shuffler  NewShuffler1Group, Shuffler1/Shuffler2/Shuffler.ProcessEpoch, StageRand, Threshold
//	  dp        PaperThresholdNoise
//	  analyzer  Analyzer.Open, Histogram

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"prochlo"
	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/group"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/shuffler"
)

// daemonSeed is the shuffle/threshold seed every daemon and the in-process
// pipeline run under, so the program's own randomness is the same on every
// run and only the generated inputs follow the workload seed.
const daemonSeed = 1

// hashCacheCap is the encoder's hash-to-point cache size
// (elgamal.encrypterCacheMax, unexported): the first hashCacheCap distinct
// crowd labels a client sees are cached, later ones are hashed every time.
const hashCacheCap = 4096

// blindChunk is the slice length the shuffler hops hand the El Gamal batch
// kernels (shuffler.blindChunk, unexported); the kernel replays use the same.
const blindChunk = 256

// hopLedger is one shuffler hop's exactly-once ledger, cumulative since
// set-up, read at a drain barrier.
type hopLedger struct {
	Role                                     string
	Accepted, Rejected, Dropped, Unaccounted int64
	Pending, EpochsFlushed, EpochsFailed     int
	Received, Forwarded, Undecryptable       int
}

// system is a running deployment of the pipeline — daemons or in-process —
// seen through the calls a client fleet makes.
type system interface {
	// Submit encodes one client batch and submits it on submitter i's own
	// connection. It returns once the entry hop has acknowledged the batch.
	Submit(i int, labels []string, data [][]byte) error
	// Flush is the drain barrier: when it returns, every report submitted
	// so far has been thresholded and the survivors counted. The histogram
	// and the analyzer's undecryptable count are cumulative since set-up.
	Flush() (hist map[string]int, undecryptable int, err error)
	// Ledger reads every hop's ledger in chain order; the last entry is the
	// thresholding hop.
	Ledger() ([]hopLedger, error)
	// Daemons lists the child processes (nil in-process).
	Daemons() []*daemon
	Close() error
}

// --- in-process ---

type inprocSystem struct {
	p     *prochlo.Pipeline
	hist  map[string]int
	undec int
	hop   hopLedger
}

func newInprocSystem() (*inprocSystem, error) {
	p, err := prochlo.New(prochlo.WithMode(prochlo.ModeBlinded), prochlo.WithSeed(daemonSeed))
	if err != nil {
		return nil, err
	}
	return &inprocSystem{p: p, hist: make(map[string]int), hop: hopLedger{Role: "inproc"}}, nil
}

func (s *inprocSystem) Submit(_ int, labels []string, data [][]byte) error {
	if err := s.p.SubmitBatch(labels, data); err != nil {
		return err
	}
	s.hop.Accepted += int64(len(labels))
	return nil
}

// Flush runs the pending epoch through both hops and the analyzer. The
// pipeline reports per-epoch results; they are folded into running totals
// here (tens of map entries, against hundreds of milliseconds of crypto) so
// both kinds of system answer in the same cumulative terms.
func (s *inprocSystem) Flush() (map[string]int, int, error) {
	res, err := s.p.Flush()
	if err != nil {
		return nil, 0, err
	}
	for k, v := range res.Histogram {
		s.hist[k] += v
	}
	s.undec += res.Undecryptable
	s.hop.EpochsFlushed++
	s.hop.Received += res.ShufflerStats.Received
	s.hop.Forwarded += res.ShufflerStats.Forwarded
	s.hop.Undecryptable += res.ShufflerStats.Undecryptable
	return s.hist, s.undec, nil
}

func (s *inprocSystem) Ledger() ([]hopLedger, error) { return []hopLedger{s.hop}, nil }
func (s *inprocSystem) Daemons() []*daemon           { return nil }
func (s *inprocSystem) Close() error                 { return nil }

// --- daemons ---

// daemon is one prochlod child process.
type daemon struct {
	Role       string
	Addr       string // service address, from the "listening on" line
	MetricsURL string // "" unless started with -metrics-addr
	Pid        int

	cmd    *exec.Cmd
	cancel context.CancelFunc
	exited chan struct{} // closed once output is drained and Wait returned
	mu     sync.Mutex
	tail   []string // last lines of output, for error reports
}

// startDaemon runs one prochlod role and waits for its listening line.
func startDaemon(bin, role string, traced bool, extra ...string) (*daemon, error) {
	args := []string{"-role", role, "-listen", "127.0.0.1:0", "-seed", strconv.Itoa(daemonSeed)}
	if traced {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	args = append(args, extra...)
	ctx, cancel := context.WithCancel(context.Background())
	cmd := exec.CommandContext(ctx, bin, args...)
	// A graceful stop is SIGTERM (the daemon drains and exits); the kill
	// after WaitDelay only covers a daemon that hangs. Pdeathsig covers the
	// benchmark itself dying: no daemon outlives it.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		cancel()
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := cmd.Start(); err != nil {
		cancel()
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start prochlod %s: %w", role, err)
	}
	pw.Close()
	d := &daemon{Role: role, Pid: cmd.Process.Pid, cmd: cmd, cancel: cancel, exited: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if d.Addr != "" {
				continue
			}
			if rest, ok := strings.CutPrefix(line, "metrics on "); ok {
				d.MetricsURL, _, _ = strings.Cut(rest, " ")
			}
			if _, addr, ok := strings.Cut(line, " listening on "); ok {
				d.Addr = strings.TrimSpace(addr)
				close(ready)
			}
		}
		pr.Close()
		cmd.Wait() //nolint:errcheck // a SIGTERM exit status is expected
	}()
	select {
	case <-ready:
		if traced && d.MetricsURL == "" {
			d.stop()
			return nil, fmt.Errorf("prochlod %s: no metrics line before the listening line", role)
		}
		return d, nil
	case <-d.exited:
		cancel()
		return nil, fmt.Errorf("prochlod %s exited during start-up:\n%s", role, d.output())
	case <-time.After(15 * time.Second):
		d.stop()
		return nil, fmt.Errorf("prochlod %s: no listening line within 15s:\n%s", role, d.output())
	}
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop terminates the daemon and returns once the process has been reaped.
func (d *daemon) stop() {
	d.cancel()
	<-d.exited
}

type remoteSystem struct {
	daemons []*daemon // start order: analyzer first
	roles   []string  // shuffler hops in chain order
	pipes   []*prochlo.RemotePipeline
}

// newRemoteSystem starts the workload's daemons on loopback and dials one
// client pipeline per submitter (one encode worker each, so the generator
// never runs more encode threads than submitters). dir receives the WAL and
// key file of a durable deployment.
func newRemoteSystem(bin string, w workload, traced bool, dir string) (sys *remoteSystem, err error) {
	s := &remoteSystem{}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	start := func(role string, extra ...string) (*daemon, error) {
		d, err := startDaemon(bin, role, traced, extra...)
		if err == nil {
			s.daemons = append(s.daemons, d)
		}
		return d, err
	}
	an, err := start("analyzer")
	if err != nil {
		return nil, err
	}
	flushAt := strconv.Itoa(w.FlushAt)
	var dial func() (*prochlo.RemotePipeline, error)
	switch w.Topology {
	case topoChain:
		s2, err := start("shuffler2", "-next", an.Addr, "-flush-at", flushAt)
		if err != nil {
			return nil, err
		}
		s1, err := start("shuffler1", "-next", s2.Addr, "-flush-at", flushAt)
		if err != nil {
			return nil, err
		}
		s.roles = []string{"shuffler1", "shuffler2"}
		dial = func() (*prochlo.RemotePipeline, error) {
			return prochlo.DialRemoteChainFleet([]string{s1.Addr}, []string{s2.Addr}, []string{an.Addr},
				prochlo.WithRemoteWorkers(1))
		}
	case topoPlain:
		extra := []string{"-next", an.Addr, "-flush-at", flushAt}
		if w.WAL {
			extra = append(extra, "-wal-dir", filepath.Join(dir, "wal"), "-key-file", filepath.Join(dir, "shuffler.key"))
		}
		sh, err := start("shuffler", extra...)
		if err != nil {
			return nil, err
		}
		s.roles = []string{"shuffler"}
		dial = func() (*prochlo.RemotePipeline, error) {
			return prochlo.DialRemoteFleet([]string{sh.Addr}, []string{an.Addr}, prochlo.WithRemoteWorkers(1))
		}
	default:
		return nil, fmt.Errorf("workload %s: topology %q runs no daemons", w.Name, w.Topology)
	}
	for i := 0; i < w.Submitters; i++ {
		p, err := dial()
		if err != nil {
			return nil, err
		}
		s.pipes = append(s.pipes, p)
	}
	return s, nil
}

func (s *remoteSystem) Submit(i int, labels []string, data [][]byte) error {
	return s.pipes[i].SubmitBatch(labels, data)
}

func (s *remoteSystem) Flush() (map[string]int, int, error) {
	res, err := s.pipes[0].Flush()
	if err != nil {
		return nil, 0, err
	}
	return res.Histogram, res.Undecryptable, nil
}

func (s *remoteSystem) Ledger() ([]hopLedger, error) {
	hops, err := s.pipes[0].HopStats()
	if err != nil {
		return nil, err
	}
	out := make([]hopLedger, len(hops))
	for i, h := range hops {
		out[i] = hopLedger{
			Role:     s.roles[i],
			Accepted: h.Accepted, Rejected: h.Rejected, Dropped: h.Dropped, Unaccounted: h.Unaccounted,
			Pending: h.Pending, EpochsFlushed: h.EpochsFlushed, EpochsFailed: h.EpochsFailed,
			Received: h.Cumulative.Received, Forwarded: h.Cumulative.Forwarded,
			Undecryptable: h.Cumulative.Undecryptable,
		}
	}
	return out, nil
}

func (s *remoteSystem) Daemons() []*daemon { return s.daemons }

// Close hangs up the clients, then stops the daemons entry hop first, so
// each hop's shutdown drain still finds its downstream listening.
// A second Close is a no-op.
func (s *remoteSystem) Close() error {
	var first error
	for _, p := range s.pipes {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	for i := len(s.daemons) - 1; i >= 0; i-- {
		s.daemons[i].stop()
	}
	s.pipes, s.daemons = nil, nil
	return first
}

// --- staged replay ---

// layerCall is one timed call (or run of identical calls) into a layer's
// public functions. Prep, if set, runs untimed first; Run does the work on
// the calling goroutine and returns how many operations it performed.
// Kernel calls name the layer whose span they are replayed under.
type layerCall struct {
	Name   string
	Parent string
	Prep   func() error
	Run    func() (ops int, err error)
}

// replayKit holds one set of stage keys and stage objects, built the way
// prochlo.New and the daemons build them but with a single worker
// everywhere, so a call's wall time is its CPU time.
type replayKit struct {
	blinded bool
	wire    bool
	batch   int // client batch size B
	epoch   int // reports per epoch

	g        group.Group
	anlzPriv *hybrid.PrivateKey
	an       *analyzer.Analyzer

	// plain path
	shufPriv *hybrid.PrivateKey
	client   *encoder.Client
	plain    *shuffler.Shuffler

	// blinded path
	s2Priv  *hybrid.PrivateKey
	blindKP *elgamal.KeyPair
	bclient *encoder.BlindedClient
	enc     *elgamal.Encrypter
	s1      *shuffler.Shuffler1
	s2      *shuffler.Shuffler2

	// ForwardedShare is forwarded ÷ received at the thresholding hop in the
	// last replay; WireBytes is the encoded size of its client batches.
	Received, Forwarded int
	WireBytes           int
}

func newReplayKit(w workload) (*replayKit, error) {
	k := &replayKit{
		blinded: w.Topology != topoPlain,
		wire:    w.Topology != topoInproc,
		batch:   w.Batch, epoch: w.FlushAt,
		g: group.Default(),
	}
	var err error
	if k.anlzPriv, err = hybrid.GenerateKeyGroup(k.g, crand.Reader); err != nil {
		return nil, err
	}
	k.an = &analyzer.Analyzer{Priv: k.anlzPriv, Workers: 1}
	threshold := shuffler.Threshold{Noise: dp.PaperThresholdNoise}
	stageRand := func(role string) (*rand.Rand, error) { return shuffler.StageRand(daemonSeed, role) }
	if !k.blinded {
		if k.shufPriv, err = hybrid.GenerateKeyGroup(k.g, crand.Reader); err != nil {
			return nil, err
		}
		rng, err := stageRand("shuffler")
		if err != nil {
			return nil, err
		}
		k.plain = &shuffler.Shuffler{Priv: k.shufPriv, Threshold: threshold, Rand: rng, Workers: 1}
		k.client = &encoder.Client{ShufflerKey: k.shufPriv.Public(), AnalyzerKey: k.anlzPriv.Public(), Rand: crand.Reader}
		return k, nil
	}
	if k.s2Priv, err = hybrid.GenerateKeyGroup(k.g, crand.Reader); err != nil {
		return nil, err
	}
	if k.blindKP, err = elgamal.GenerateKeyPairGroup(k.g, crand.Reader); err != nil {
		return nil, err
	}
	rng1, err := stageRand("shuffler1")
	if err != nil {
		return nil, err
	}
	rng2, err := stageRand("shuffler2")
	if err != nil {
		return nil, err
	}
	if k.s1, err = shuffler.NewShuffler1Group(k.g, rng1); err != nil {
		return nil, err
	}
	k.s1.Workers = 1
	k.s2 = &shuffler.Shuffler2{Blinding: k.blindKP, Priv: k.s2Priv, Threshold: threshold, Rand: rng2, MinBatch: 1, Workers: 1}
	k.bclient = &encoder.BlindedClient{
		Shuffler2Blinding: k.blindKP.H, Shuffler2Key: k.s2Priv.Public(),
		AnalyzerKey: k.anlzPriv.Public(), Rand: crand.Reader,
	}
	k.enc = elgamal.NewEncrypter(k.blindKP.H)
	return k, nil
}

// Prewarm brings the kit's two hash-to-point caches (the client's and the
// kernel replay's) to the state a live client reaches after seeing labels
// in this order: the first hashCacheCap distinct ones are cached.
func (k *replayKit) Prewarm(distinct []string) error {
	if !k.blinded || len(distinct) == 0 {
		return nil
	}
	data := make([][]byte, len(distinct))
	ids := make([][]byte, len(distinct))
	for i, l := range distinct {
		data[i] = []byte{0}
		ids[i] = []byte(l)
	}
	if _, err := k.bclient.EncodeBatch(distinct, data, 1); err != nil {
		return err
	}
	rngs, release, err := recordRNGs(len(distinct))
	if err != nil {
		return err
	}
	defer release()
	_, err = k.enc.EncryptCrowdIDBatch(rngs, ids, 1)
	return err
}

// recordRNGs draws one per-record randomness stream per report, the way the
// batch encoders do.
func recordRNGs(n int) ([]io.Reader, func(), error) {
	seeds, err := hybrid.DrawSeeds(crand.Reader, n)
	if err != nil {
		return nil, nil, err
	}
	chachas := make([]*rand.ChaCha8, n)
	rngs := make([]io.Reader, n)
	for i := range rngs {
		chachas[i] = seeds.RNG(i)
		rngs[i] = chachas[i]
	}
	return rngs, func() {
		for _, r := range chachas {
			hybrid.PutRNG(r)
		}
	}, nil
}

// chunks calls fn on consecutive [lo,hi) windows of size step over n items.
func chunks(n, step int, fn func(lo, hi int) error) error {
	for lo := 0; lo < n; lo += step {
		if err := fn(lo, min(lo+step, n)); err != nil {
			return err
		}
	}
	return nil
}

// sealKernel replays one encryption layer of the encoder: SealBatch per
// client batch, as EncodeBatch runs one encapsulation sweep per layer.
func (k *replayKit) sealKernel(parent string, pub *hybrid.PublicKey, in func() [][]byte, out *[][]byte) layerCall {
	return layerCall{Name: "hybrid.seal", Parent: parent, Run: func() (int, error) {
		pts := in()
		*out = make([][]byte, 0, len(pts))
		err := chunks(len(pts), k.batch, func(lo, hi int) error {
			sealed, err := hybrid.SealBatch(crand.Reader, pub, pts[lo:hi], nil, 1)
			*out = append(*out, sealed...)
			return err
		})
		return len(pts), err
	}}
}

func openKernel(parent string, priv *hybrid.PrivateKey, in func() [][]byte) layerCall {
	return layerCall{Name: "hybrid.open", Parent: parent, Run: func() (int, error) {
		sealed := in()
		_, errs := priv.OpenBatch(sealed, nil, 1)
		for _, err := range errs {
			if err != nil {
				return len(sealed), err
			}
		}
		return len(sealed), nil
	}}
}

// decodeKernel replays a hop's wire-boundary point decompression: both
// ciphertext components of every envelope.
func (k *replayKit) decodeKernel(parent string, in func() []core.BlindedEnvelope, out *[]group.Element) layerCall {
	return layerCall{Name: "group.decode", Parent: parent, Run: func() (int, error) {
		envs := in()
		els := make([]group.Element, 0, 2*len(envs))
		for i := range envs {
			for _, b := range [][]byte{envs[i].CrowdC1, envs[i].CrowdC2} {
				e, err := k.g.Decode(b)
				if err != nil {
					return 0, err
				}
				els = append(els, e)
			}
		}
		*out = els
		return len(els), nil
	}}
}

func ciphertexts(g group.Group, els []group.Element) []elgamal.Ciphertext {
	cts := make([]elgamal.Ciphertext, len(els)/2)
	for i := range cts {
		cts[i] = elgamal.Ciphertext{C1: elgamal.NewPoint(g, els[2*i]), C2: elgamal.NewPoint(g, els[2*i+1])}
	}
	return cts
}

// Calls returns, in path order, the layer calls that carry one round's
// reports from plaintext to histogram, each layer followed by replays of
// the kernels it runs inside. Later calls consume earlier calls' outputs,
// so the list must be run in order and in full.
func (k *replayKit) Calls(labels []string, data [][]byte) []layerCall {
	n := len(labels)
	var (
		calls    []layerCall
		payloads [][]byte // thresholding hop's output
		db       [][]byte
	)
	add := func(c ...layerCall) { calls = append(calls, c...) }

	// wireCalls replays the client-to-entry-hop batch codec.
	wireCalls := func(batchAt func(lo, hi int) core.Batch) {
		if !k.wire {
			return
		}
		var frames [][]byte
		add(layerCall{Name: "core.batch_encode", Run: func() (int, error) {
			frames, k.WireBytes = frames[:0], 0
			err := chunks(n, k.batch, func(lo, hi int) error {
				f := core.AppendBatch(nil, batchAt(lo, hi))
				k.WireBytes += len(f)
				frames = append(frames, f)
				return nil
			})
			return n, err
		}}, layerCall{Name: "core.batch_decode", Run: func() (int, error) {
			for _, f := range frames {
				if _, _, err := core.DecodeBatchAlias(f); err != nil {
					return 0, err
				}
			}
			return n, nil
		}})
	}

	if !k.blinded {
		var envs []core.Envelope
		var inners, outerIn, sealedOuter [][]byte
		add(layerCall{Name: "encoder.encode", Run: func() (int, error) {
			envs = envs[:0]
			err := chunks(n, k.batch, func(lo, hi int) error {
				reports := make([]core.Report, hi-lo)
				for i := range reports {
					reports[i] = core.Report{CrowdID: core.HashCrowdID(labels[lo+i]), Data: data[lo+i]}
				}
				out, err := k.client.EncodeBatch(reports, 1)
				envs = append(envs, out...)
				return err
			})
			return n, err
		}})
		add(k.sealKernel("encoder.encode", k.anlzPriv.Public(), func() [][]byte { return data }, &inners))
		outer := k.sealKernel("encoder.encode", k.shufPriv.Public(), func() [][]byte { return outerIn }, &sealedOuter)
		outer.Prep = func() error {
			outerIn = make([][]byte, n)
			for i := range outerIn {
				id := core.HashCrowdID(labels[i])
				outerIn[i] = append(append(make([]byte, 0, len(id)+len(inners[i])), id[:]...), inners[i]...)
			}
			return nil
		}
		add(outer)
		wireCalls(func(lo, hi int) core.Batch { return core.Batch{Envelopes: envs[lo:hi]} })
		add(layerCall{Name: "shuffler.plain_epoch", Run: func() (int, error) {
			payloads = payloads[:0]
			k.Received, k.Forwarded = 0, 0
			err := chunks(n, k.epoch, func(lo, hi int) error {
				out, st, err := k.plain.ProcessEpoch(core.Batch{Envelopes: envs[lo:hi]})
				payloads = append(payloads, out.Payloads...)
				k.Received += st.Received
				k.Forwarded += st.Forwarded
				return err
			})
			return n, err
		}})
		add(openKernel("shuffler.plain_epoch", k.shufPriv, func() [][]byte {
			blobs := make([][]byte, len(envs))
			for i := range envs {
				blobs[i] = envs[i].Blob
			}
			return blobs
		}))
	} else {
		var envs, blindedOut []core.BlindedEnvelope
		var inners, sealedOuter [][]byte
		var inEls, outEls []group.Element
		var cts []elgamal.Ciphertext
		add(layerCall{Name: "encoder.encode", Run: func() (int, error) {
			envs = envs[:0]
			err := chunks(n, k.batch, func(lo, hi int) error {
				out, err := k.bclient.EncodeBatch(labels[lo:hi], data[lo:hi], 1)
				envs = append(envs, out...)
				return err
			})
			return n, err
		}})
		var rngs []io.Reader
		var release func()
		ids := make([][]byte, n)
		for i, l := range labels {
			ids[i] = []byte(l)
		}
		add(layerCall{Name: "elgamal.encrypt", Parent: "encoder.encode",
			Prep: func() (err error) { rngs, release, err = recordRNGs(n); return err },
			Run: func() (int, error) {
				defer release()
				err := chunks(n, k.batch, func(lo, hi int) error {
					_, err := k.enc.EncryptCrowdIDBatch(rngs[lo:hi], ids[lo:hi], 1)
					return err
				})
				return n, err
			}})
		add(k.sealKernel("encoder.encode", k.anlzPriv.Public(), func() [][]byte { return data }, &inners))
		add(k.sealKernel("encoder.encode", k.s2Priv.Public(), func() [][]byte { return inners }, &sealedOuter))
		wireCalls(func(lo, hi int) core.Batch { return core.Batch{Blinded: envs[lo:hi]} })

		add(layerCall{Name: "shuffler.s1_epoch", Run: func() (int, error) {
			blindedOut = blindedOut[:0]
			err := chunks(n, k.epoch, func(lo, hi int) error {
				// Shuffler 1 strips metadata in place and allocates its
				// output, so envs stays valid for the kernel replays.
				out, _, err := k.s1.ProcessEpoch(core.Batch{Blinded: envs[lo:hi]})
				blindedOut = append(blindedOut, out.Blinded...)
				return err
			})
			return n, err
		}})
		add(k.decodeKernel("shuffler.s1_epoch", func() []core.BlindedEnvelope { return envs }, &inEls))
		blinder := elgamal.NewBlinderGroup(k.g, k.s1.Alpha)
		add(layerCall{Name: "elgamal.blind", Parent: "shuffler.s1_epoch",
			Prep: func() error { cts = ciphertexts(k.g, inEls); return nil },
			Run: func() (int, error) {
				return len(cts), chunks(len(cts), blindChunk, func(lo, hi int) error {
					blinder.BlindBatch(cts[lo:hi])
					return nil
				})
			}})
		add(layerCall{Name: "group.encode", Parent: "shuffler.s1_epoch", Run: func() (int, error) {
			for i := range cts {
				_, _ = cts[i].C1.Bytes(), cts[i].C2.Bytes()
			}
			return 2 * len(cts), nil
		}})

		add(layerCall{Name: "shuffler.s2_epoch", Run: func() (int, error) {
			payloads = payloads[:0]
			k.Received, k.Forwarded = 0, 0
			err := chunks(len(blindedOut), k.epoch, func(lo, hi int) error {
				out, st, err := k.s2.ProcessEpoch(core.Batch{Blinded: blindedOut[lo:hi]})
				payloads = append(payloads, out.Payloads...)
				k.Received += st.Received
				k.Forwarded += st.Forwarded
				return err
			})
			return len(blindedOut), err
		}})
		add(k.decodeKernel("shuffler.s2_epoch", func() []core.BlindedEnvelope { return blindedOut }, &outEls))
		add(openKernel("shuffler.s2_epoch", k.s2Priv, func() [][]byte {
			blobs := make([][]byte, len(blindedOut))
			for i := range blindedOut {
				blobs[i] = blindedOut[i].Blob
			}
			return blobs
		}))
		dec := k.blindKP.Decrypter()
		add(layerCall{Name: "elgamal.pseudonym", Parent: "shuffler.s2_epoch",
			Prep: func() error { cts = ciphertexts(k.g, outEls); return nil },
			Run: func() (int, error) {
				return len(cts), chunks(len(cts), blindChunk, func(lo, hi int) error {
					dec.PseudonymBatch(cts[lo:hi])
					return nil
				})
			}})
	}

	add(layerCall{Name: "analyzer.open", Run: func() (int, error) {
		var undec int
		db, undec = k.an.Open(payloads)
		if undec != 0 {
			return len(payloads), fmt.Errorf("replay: analyzer could not open %d of %d records", undec, len(payloads))
		}
		return len(payloads), nil
	}})
	add(openKernel("analyzer.open", k.anlzPriv, func() [][]byte { return payloads }))
	add(layerCall{Name: "analyzer.histogram", Run: func() (int, error) {
		analyzer.Histogram(db)
		return len(db), nil
	}})

	if k.blinded {
		add(k.primitives(labels)...)
	}
	return calls
}

// primitiveOps is how many operations each group primitive is timed over:
// enough to average, few enough that the primitives cost the replay little.
const primitiveOps = 512

// primitives times the two group operations the El Gamal kernels spend their
// time in, each on its own (no parent: they are not subtracted from
// anything). Point decode and encode are already covered by the hop kernels.
func (k *replayKit) primitives(labels []string) []layerCall {
	m := min(primitiveOps, len(labels))
	var els []group.Element
	var scalar group.Scalar
	return []layerCall{
		{Name: "elgamal.hash_to_point", Run: func() (int, error) {
			els = els[:0]
			for _, l := range labels[:m] {
				els = append(els, elgamal.HashToPointGroup(k.g, []byte(l)).Element())
			}
			return m, nil
		}},
		{Name: "group.mul",
			Prep: func() (err error) { scalar, err = k.g.RandomScalar(crand.Reader); return err },
			Run: func() (int, error) {
				k.g.MulBatch(els, els, scalar)
				return len(els), nil
			}},
	}
}
