package transport

import (
	crand "crypto/rand"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/shuffler"
)

// TestSubmitAllBackoffDrains pins the hold path: with auto-flush draining
// epochs underneath, a batch larger than the free occupancy is held until a
// cut frees room and then accepted whole — no reports lost, none
// duplicated, none refused.
func TestSubmitAllBackoffDrains(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{FlushAt: 4})
	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	env := rig.envelope(t, "c:backoff", "backoff-value")
	fill := make([]core.Envelope, 8) // the limit: 2*FlushAt = 8
	for i := range fill {
		fill[i] = env
	}
	for range 2 {
		if err := cl.Submit(core.Batch{Envelopes: fill}); err != nil {
			t.Fatalf("Submit with auto-flush draining: %v", err)
		}
	}
	if st, err := cl.Drain(); err != nil || st.Rejected != 0 {
		t.Fatalf("drain = %+v, %v; want nothing rejected", st, err)
	}
	ac, err := Dial(rig.anlz)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	counts, _, err := ac.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if counts["backoff-value"] != 16 {
		t.Errorf("count = %d, want 16 (8 filled + 8 held)", counts["backoff-value"])
	}
}

// TestDrainEmptyBelowFloor pins Drain's barrier semantics against the
// anonymity floor: draining a service with nothing pending succeeds and
// flushes nothing, and draining a below-floor epoch preserves it without
// polluting the failure counters.
func TestDrainEmptyBelowFloor(t *testing.T) {
	rig := newStreamingRigMin(t, EpochConfig{}, 5)
	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stats, err := cl.Drain()
	if err != nil {
		t.Fatalf("Drain on an empty service: %v, want nil (pure barrier)", err)
	}
	if stats.Pending != 0 || stats.EpochsFlushed != 0 || stats.EpochsFailed != 0 {
		t.Fatalf("empty Drain stats = %+v, want all-zero epoch counters", stats)
	}

	env := rig.envelope(t, "c:floor", "floor-value")
	if err := cl.Submit(core.Batch{Envelopes: []core.Envelope{env, env}}); err != nil {
		t.Fatal(err)
	}
	stats, err = cl.Drain()
	if err != nil {
		t.Fatalf("Drain below the floor: %v, want nil (epoch left pending)", err)
	}
	if stats.Pending != 2 || stats.EpochsFlushed != 0 || stats.EpochsFailed != 0 || stats.Dropped != 0 {
		t.Fatalf("below-floor Drain stats = %+v, want 2 pending and untouched counters", stats)
	}
}

// TestForwardDedup pins the inter-hop ingestion contract: an at-least-once
// push retry of the same (stream, epoch) must be acknowledged without
// re-ingesting, and a batch of the wrong wire kind must be refused.
func TestForwardDedup(t *testing.T) {
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzSvc, anlz := serveAnalyzer(t, anlzPriv)

	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2Priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2 := &shuffler.Shuffler2{
		Blinding: blindKP, Priv: s2Priv,
		Rand: rand.New(rand.NewPCG(21, 23)), MinBatch: 1,
	}
	svc, err := NewStageService(s2, []string{anlz}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	benc := &encoder.BlindedClient{
		Shuffler2Blinding: blindKP.H,
		Shuffler2Key:      s2Priv.Public(),
		AnalyzerKey:       anlzPriv.Public(),
		Rand:              crand.Reader,
	}
	envs := make([]core.BlindedEnvelope, 3)
	for i := range envs {
		envs[i], err = benc.Encode("c:dedup", []byte("dedup-value"))
		if err != nil {
			t.Fatal(err)
		}
	}

	batch := core.Batch{Blinded: envs}
	if n, err := svc.Submit(9, 1, batch); err != nil || n != 3 {
		t.Fatalf("first forward = (%d, %v), want 3 accepted", n, err)
	}
	// The retry (reply lost upstream) must ack without ingesting again.
	if n, err := svc.Submit(9, 1, batch); err != nil || n != 3 {
		t.Fatalf("retried forward = (%d, %v), want 3 accepted (idempotent ack)", n, err)
	}
	if pending := svc.Stats().Pending; pending != 3 {
		t.Fatalf("pending after duplicate forward = %d, want 3", pending)
	}

	// Wrong wire kind: a blinded hop must refuse plain envelopes.
	bad := core.Batch{Envelopes: []core.Envelope{{Blob: []byte("x")}}}
	if _, err := svc.Submit(9, 2, bad); err == nil {
		t.Error("forward of plain envelopes into a blinded hop succeeded")
	}

	if _, err := svc.Drain(false); err != nil {
		t.Fatal(err)
	}
	if as, err := anlzSvc.Drain(false); err != nil || as.Cumulative.Forwarded != 3 {
		t.Errorf("analyzer records = %d (%v), want 3 (dedup prevented double ingestion)", as.Cumulative.Forwarded, err)
	}
}

// TestDialTimeoutFailsFast: dialing a dead peer must fail within a bounded
// window instead of hanging in the TCP handshake. A closed loopback port is
// the portable dead peer (an unroutable address can be swallowed by
// sandboxed-network proxies); the connect-timeout itself is stdlib
// net.DialTimeout behavior, and every dial in this package routes through
// it with DefaultDialTimeout. Dial itself does not retry: the redial policy
// belongs to calls on a connection that was once up.
func TestDialTimeoutFailsFast(t *testing.T) {
	start := time.Now()
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a closed port succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("dials took %v, want a refused connect to fail at once", elapsed)
	}
}

// TestMiswiredChainNamesTheKind: how a hop pushes follows from what its stage
// emits, with no argument left to state the intent — so a chain wired to the
// wrong sort of tier must still fail at its first push, naming the kind the
// receiver refused, rather than deliver somewhere that cannot use it. The
// refusal is an answer, not a connection failure, so the sender returns it
// at once instead of redialing for an answer that cannot change.
func TestMiswiredChainNamesTheKind(t *testing.T) {
	rig := newCrashRig(t, core.KindBlinded, EpochConfig{}) // hop 2, which ingests blinded envelopes
	sec, err := shuffler.GenerateSecrets()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := shuffler.NewStage("shuffler1", sec, shuffler.Params{MinBatch: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		stage shuffler.Stage
		next  string
		want  string
	}{
		{"blinded envelopes at an analyzer", s1, rig.anlz,
			"stage ingests " + core.KindPayloads.String() + ", got " + core.KindBlinded.String()},
		{"payloads at a stage", rig.stage(core.KindBlinded), rig.addr,
			"stage ingests " + core.KindBlinded.String() + ", got " + core.KindPayloads.String()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewStageService(tc.stage, []string{tc.next}, EpochConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if _, err := svc.Submit(1, 1, rig.batch(3, "astray")); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = svc.Drain(false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("first push of the miswired hop = %v, want a refusal saying %q", err, tc.want)
			}
			if took := time.Since(start); took > 300*time.Millisecond {
				t.Errorf("the refusal took %v to surface, want it at once (no redial)", took)
			}
		})
	}
	if st := rig.stats(); st.Accepted != 0 {
		t.Errorf("the stage ingested %d of the stray payloads", st.Accepted)
	}
	if st := rig.anlzSvc.Stats(); st.Accepted != 0 || st.EpochsFlushed != 0 {
		t.Errorf("the analyzer accepted %d stray records in %d epochs", st.Accepted, st.EpochsFlushed)
	}
}
