package transport

import (
	"bufio"
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/faultnet"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
)

// batchRequest builds one finished batch-call request frame (method is
// methodSubmit except where a test sends a method id the service refuses).
func batchRequest(reqID uint64, method uint8, stream, pos int64, b core.Batch) []byte {
	return finishFrame(appendBatchCall(beginRequest(make([]byte, 0, 256), reqID, method), stream, pos, b))
}

// openFrame strips a finished frame's length prefix and checksum.
func openFrame(t testing.TB, frame []byte) []byte {
	t.Helper()
	n, k := binary.Uvarint(frame)
	if k <= 0 || int(n) != len(frame)-k {
		t.Fatalf("frame length prefix = %d (%d bytes), frame body = %d", n, k, len(frame)-k)
	}
	body, err := checkCRC(frame[k:])
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestWireFrameRoundTrip covers the frame codec symmetrically and checks
// that corrupting any body byte is caught by the checksum.
func TestWireFrameRoundTrip(t *testing.T) {
	batch := core.Batch{Payloads: [][]byte{[]byte("alpha"), nil, []byte("gamma")}}
	frame := batchRequest(7, methodSubmit, 42, -9, batch)
	reqID, method, body, err := parseRequest(openFrame(t, frame))
	if err != nil || reqID != 7 || method != methodSubmit {
		t.Fatalf("request header = %d, %d, %v", reqID, method, err)
	}
	stream, pos, got, err := parseBatchCall(body)
	if err != nil || stream != 42 || pos != -9 {
		t.Fatalf("request stamp = %d, %d, %v", stream, pos, err)
	}
	if got.Kind() != core.KindPayloads || got.Len() != 3 || !bytes.Equal(got.Payloads[0], []byte("alpha")) {
		t.Fatalf("request batch = %+v", got)
	}

	// Every single-byte corruption of the body must fail the checksum.
	_, k := binary.Uvarint(frame)
	for i := k; i < len(frame); i++ {
		torn := append([]byte(nil), frame...)
		torn[i] ^= 0x40
		if _, err := checkCRC(torn[k:]); err == nil {
			t.Fatalf("corrupting byte %d went undetected", i)
		}
	}

	// Reply framing, success and error forms.
	rf := finishFrame(appendWireInts(beginReply(make([]byte, 0, 64), 9, nil), 1234))
	id, body, serverErr, err := parseReply(openFrame(t, rf))
	if err != nil || serverErr != nil || id != 9 || !bytes.Equal(body, appendWireInts(nil, 1234)) {
		t.Fatalf("success reply = %d, % x, %v, %v", id, body, serverErr, err)
	}
	rf = finishFrame(beginReply(make([]byte, 0, 64), 10, ErrEpochFull))
	id, _, serverErr, err = parseReply(openFrame(t, rf))
	if err != nil || id != 10 || serverErr == nil {
		t.Fatalf("error reply = %d, %v, %v", id, serverErr, err)
	}
	if !IsEpochFull(serverErr) {
		t.Fatalf("epoch-full error did not survive the wire: %v", serverErr)
	}
	if IsTransient(serverErr) {
		t.Fatal("a server-returned error must not look transient")
	}
}

// fillDistinct sets every int, bool, string and byte-slice field reachable
// from v to a distinct non-zero value, so a codec that drops, swaps or
// truncates a field cannot round-trip it.
func fillDistinct(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Int, reflect.Int64:
		*next += 1000003 // spans one to four varint bytes across a message
		v.SetInt(*next)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		*next++
		v.SetString(fmt.Sprintf("s%d\xff", *next))
	case reflect.Slice:
		*next++
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte(fmt.Sprintf("b%d\x00", *next)))
		} else {
			v.Set(reflect.ValueOf([]string{"p1", "", fmt.Sprintf("p%d", *next)}))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			v.Index(i).SetUint(uint64(i + 1))
		}
	default:
		panic("fillDistinct: unhandled kind " + v.Kind().String())
	}
}

// TestControlBodiesRoundTrip pins every control-call body: each message,
// with every field distinct, must decode to exactly what was encoded, and
// no truncation of the encoding may decode.
func TestControlBodiesRoundTrip(t *testing.T) {
	check := func(name string, msg any, enc []byte, dec func([]byte) (any, error)) {
		t.Helper()
		got, err := dec(enc)
		if err != nil || !reflect.DeepEqual(got, msg) {
			t.Errorf("%s round trip = %+v, %v\nwant %+v", name, got, err, msg)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := dec(enc[:cut]); err == nil {
				t.Errorf("%s: %d/%d-byte prefix decoded", name, cut, len(enc))
			}
		}
		if _, err := dec(append(append([]byte(nil), enc...), 0)); err == nil {
			t.Errorf("%s: trailing byte went undetected", name)
		}
	}
	var next int64
	var ss ServiceStats
	fillDistinct(reflect.ValueOf(&ss).Elem(), &next)
	check("ServiceStats", ss, ss.appendWire(nil), func(b []byte) (any, error) { return decodeServiceStats(b) })
	var ks Keys
	fillDistinct(reflect.ValueOf(&ks).Elem(), &next)
	check("Keys", ks, ks.appendWire(nil), func(b []byte) (any, error) { return decodeKeys(b) })
	var att AttestationReply
	fillDistinct(reflect.ValueOf(&att).Elem(), &next)
	check("AttestationReply", att, att.appendWire(nil), func(b []byte) (any, error) { return decodeAttestation(b) })
	var es shuffler.Stats
	fillDistinct(reflect.ValueOf(&es).Elem(), &next)
	check("shuffler.Stats", es, appendEpochStats(nil, es), func(b []byte) (any, error) {
		r := wireReader{b: b}
		st := readEpochStats(&r)
		return st, r.done()
	})
}

// TestHistogramKeysAreBytes: histogram keys are decrypted report payloads,
// so a key that is not UTF-8, contains NUL, or is empty must reach the
// querying client byte-exact — through the whole chain and the frame.
func TestHistogramKeysAreBytes(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{})
	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	values := []string{"\xff\xfe\x00\x80binary", "", "plain", "\xff\xfe\x00\x80binary"}
	batch := make([]core.Envelope, len(values))
	for i, v := range values {
		batch[i] = rig.envelope(t, "c:bytes", v)
	}
	if err := cl.Submit(core.Batch{Envelopes: batch}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	ac, err := Dial(rig.anlz)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	counts, undec, err := ac.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"\xff\xfe\x00\x80binary": 2, "": 1, "plain": 1}
	if undec != 0 || !reflect.DeepEqual(counts, want) {
		t.Fatalf("histogram over the wire = %q (undec %d), want %q", counts, undec, want)
	}
	if local, _, _ := rig.anlzSvc.Histogram(); !reflect.DeepEqual(counts, local) {
		t.Fatalf("wire histogram %q differs from the service's own %q", counts, local)
	}
}

// rawConn dials addr and completes the handshake by hand, for tests that
// write frames the client code never would.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := handshake(conn, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestWireServerKillsCorruptConnection sends a checksum-corrupted frame:
// the server must drop the connection rather than act on the frame.
func TestWireServerKillsCorruptConnection(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{})
	conn := rawConn(t, rig.shuf)
	frame := batchRequest(1, methodSubmit, 1, 1, core.Batch{Envelopes: []core.Envelope{{Blob: []byte("x")}}})
	frame[len(frame)-1] ^= 0xff // corrupt the CRC
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("server replied to a checksum-corrupted frame instead of killing the connection")
	} else if os.IsTimeout(err) {
		t.Fatalf("connection not killed within deadline: %v", err)
	}
	if st := rig.svc.Stats(); st.Accepted != 0 {
		t.Fatalf("corrupt frame was ingested: accepted = %d", st.Accepted)
	}
}

// waitGoroutines polls until the process is back to at most base
// goroutines, failing with a dump if it never gets there.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want <= %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireNonMagicPeerClosed: a peer that opens with anything but the magic
// (a port scanner, an HTTP client) is closed promptly, is never answered,
// and leaves no goroutine behind.
func TestWireNonMagicPeerClosed(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{})
	base := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var one [1]byte
	if n, err := conn.Read(one[:]); n != 0 || err == nil || os.IsTimeout(err) {
		t.Fatalf("read after a non-magic opening = %d bytes, %v; want a prompt close", n, err)
	}
	waitGoroutines(t, base)
}

// stallConn scripts the read side of a connection: the first Read delivers
// head; the next — the one a real connection would block in — delivers
// rest, or, without rest, signals stalled and blocks until the test releases
// it. It records the read deadline and how often it was set, and counts the
// reads past head made without one.
type stallConn struct {
	net.Conn  // nil: only the methods below are reached
	head      []byte
	rest      []byte
	stalled   chan struct{}
	release   chan struct{}
	deadline  time.Time
	deadlines int // SetReadDeadline calls
	unbounded int // reads past head with no deadline set
}

func (c *stallConn) Read(p []byte) (int, error) {
	if len(c.head) > 0 {
		n := copy(p, c.head)
		c.head = c.head[n:]
		return n, nil
	}
	if c.deadline.IsZero() {
		c.unbounded++
	}
	if len(c.rest) > 0 {
		n := copy(p, c.rest)
		c.rest = c.rest[n:]
		return n, nil
	}
	close(c.stalled)
	<-c.release
	return 0, io.ErrUnexpectedEOF
}

func (c *stallConn) SetReadDeadline(t time.Time) error {
	c.deadline = t
	c.deadlines++
	return nil
}

// TestReadFrameDeadline: once a frame has begun, every read that can block
// runs under wireIOTimeout, and the deadline is cleared after it — but a
// frame already whole in the buffer is read without touching the deadline.
func TestReadFrameDeadline(t *testing.T) {
	frame := batchRequest(3, methodSubmit, 1, 2, core.Batch{Payloads: [][]byte{bytes.Repeat([]byte("p"), 300)}})
	if frame[0]&0x80 == 0 {
		t.Fatalf("frame of %d bytes has a one-byte length prefix; the test splits inside it", len(frame))
	}
	for _, tc := range []struct {
		name          string
		split         int // bytes the first read delivers
		wantDeadlines int
	}{
		{"whole in the buffer", len(frame), 0},
		{"split inside the length prefix", 1, 2},
		{"split inside the body", len(frame) / 2, 2},
	} {
		conn := &stallConn{head: frame[:tc.split], rest: frame[tc.split:]}
		body, err := readFrame(bufio.NewReaderSize(conn, 4096), conn)
		if err != nil || !bytes.Equal(body, openFrame(t, frame)) {
			t.Errorf("%s: read %d bytes, %v", tc.name, len(body), err)
		}
		if conn.unbounded != 0 {
			t.Errorf("%s: %d reads blocked with no deadline", tc.name, conn.unbounded)
		}
		if conn.deadlines != tc.wantDeadlines || !conn.deadline.IsZero() {
			t.Errorf("%s: %d SetReadDeadline calls, deadline left %v; want %d and cleared",
				tc.name, conn.deadlines, conn.deadline, tc.wantDeadlines)
		}
	}
}

// TestWireHostileLengthPrefix: a peer that announces a maximal frame and
// then stalls must cost the reader no more than one read chunk — the body
// buffer grows with the bytes that arrive, not with the length prefix.
func TestWireHostileLengthPrefix(t *testing.T) {
	head := append(binary.AppendUvarint(nil, maxWireFrame), "ten bytes."...)
	conn := &stallConn{head: head, stalled: make(chan struct{}), release: make(chan struct{})}
	br := bufio.NewReaderSize(conn, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan error, 1)
	go func() {
		_, err := readFrame(br, conn)
		done <- err
	}()
	<-conn.stalled
	runtime.ReadMemStats(&after)
	close(conn.release)
	if err := <-done; err == nil {
		t.Fatal("torn frame read succeeded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*frameReadChunk {
		t.Fatalf("a stalled %d-byte announcement allocated %d bytes, want at most one %d-byte chunk",
			maxWireFrame, grew, frameReadChunk)
	}

	// Growth must still deliver a body larger than several chunks intact.
	big := make([]byte, 5*frameReadChunk+123)
	crand.Read(big) //nolint:errcheck
	got, err := readBody(bytes.NewReader(big), len(big))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("readBody of %d bytes = %d bytes, %v", len(big), len(got), err)
	}
}

// gateService is a scripted Service: a Drain parks until the gate is
// released, every other method answers at once, and the handler high-water
// mark is recorded.
type gateService struct {
	running, peak atomic.Int64
	drain         chan struct{}
}

func (g *gateService) serveFrame(method uint8, _, dst []byte) ([]byte, error) {
	n := g.running.Add(1)
	defer g.running.Add(-1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	if method == methodDrain {
		<-g.drain
	}
	return append(dst, method), nil
}

// requestFrames concatenates one finished request frame per id, all of
// method (Drain requests carry the force byte 0).
func requestFrames(method uint8, ids ...uint64) []byte {
	var frames []byte
	for _, id := range ids {
		buf := beginRequest(make([]byte, 0, 32), id, method)
		if method == methodDrain {
			buf = append(buf, 0)
		}
		frames = append(frames, finishFrame(buf)...)
	}
	return frames
}

// idRange lists the ids lo, lo+1, ..., lo+n-1.
func idRange(lo uint64, n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = lo + uint64(i)
	}
	return ids
}

// TestWireHandlersBounded: only a Drain leaves the read loop. A flood of
// Stats queued behind a parked Drain is answered in order by the read loop
// itself, with no goroutine per frame; a flood of blocking Drains holds at
// the handler bound, back-pressuring the read loop instead of growing the
// goroutine count; and the parked Drains are answered once released.
func TestWireHandlersBounded(t *testing.T) {
	svc := &gateService{drain: make(chan struct{})}
	l, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn := rawConn(t, l.Addr().String())
	br := bufio.NewReader(conn)
	base := runtime.NumGoroutine()

	const flood = 10 * maxConnHandlers
	frames := append(requestFrames(methodDrain, 1), requestFrames(methodStats, idRange(2, flood)...)...)
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flood; i++ {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		frame, err := readFrame(br, conn)
		if err != nil {
			t.Fatalf("stats reply %d/%d behind a parked drain: %v", i, flood, err)
		}
		id, body, _, err := parseReply(frame)
		if err != nil || id != uint64(2+i) || !bytes.Equal(body, []byte{methodStats}) {
			t.Fatalf("reply %d = id %d body % x (%v), want stats id %d in arrival order", i, id, body, err, 2+i)
		}
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Fatalf("%d goroutines after a %d-frame stats flood (base %d), want one for the parked drain",
			n, flood, base)
	}
	if peak := svc.peak.Load(); peak > 2 {
		t.Fatalf("peak concurrent handlers = %d over the stats flood, want the drain and the read loop's one", peak)
	}

	// Drains, unlike the rest, leave the read loop: a flood of them fills
	// the bound (one is parked already) and no more.
	if _, err := conn.Write(requestFrames(methodDrain, idRange(uint64(2+flood), flood)...)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.running.Load() < maxConnHandlers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d drains running, want the bound %d reached", svc.running.Load(), maxConnHandlers)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let an unbounded server overshoot
	if peak := svc.peak.Load(); peak != maxConnHandlers {
		t.Fatalf("peak concurrent drains = %d, want exactly the bound %d", peak, maxConnHandlers)
	}
	if n := runtime.NumGoroutine(); n > base+maxConnHandlers+2 {
		t.Fatalf("%d goroutines for a %d-drain flood (base %d), want at most the bound %d more",
			n, flood, base, maxConnHandlers)
	}

	// Released, every drain is answered — the first one included.
	close(svc.drain)
	seen := make(map[uint64]bool)
	for i := 0; i < 1+flood; i++ {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		frame, err := readFrame(br, conn)
		if err != nil {
			t.Fatalf("drain reply %d/%d: %v", i, 1+flood, err)
		}
		id, body, _, err := parseReply(frame)
		if err != nil || !bytes.Equal(body, []byte{methodDrain}) || seen[id] {
			t.Fatalf("drain reply %d = id %d body % x (%v)", i, id, body, err)
		}
		seen[id] = true
	}
	if !seen[1] {
		t.Fatal("the drain parked behind the stats flood was never answered")
	}
	if peak := svc.peak.Load(); peak != maxConnHandlers {
		t.Fatalf("peak concurrent drains = %d after the flood drained, want %d", peak, maxConnHandlers)
	}
}

// TestWireRefusedMethodKeepsConnection: an unknown method id, a retired one,
// and a method the role does not serve get an error reply, as does a Submit
// on stream 0, which no sender stamps — and the connection carries the next
// call as if nothing happened.
func TestWireRefusedMethodKeepsConnection(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{})
	for _, tc := range []struct {
		name, addr string
		method     uint8
		body       []byte
	}{
		{"unknown method id", rig.shuf, 0xee, nil},
		{"retired Forward id at a shuffler", rig.shuf, 2, nil},
		{"retired Ingest id at an analyzer", rig.anlz, 3, nil},
		{"retired Flush id at a shuffler", rig.shuf, 8, nil},
		{"retired Healthz id at a shuffler", rig.shuf, 5, nil},
		{"histogram asked of a shuffler", rig.shuf, methodHistogram, nil},
		{"Submit on stream 0 at a shuffler", rig.shuf, methodSubmit,
			appendBatchCall(nil, 0, 1, core.Batch{Envelopes: []core.Envelope{{Blob: []byte("unstamped")}}})},
		{"Submit on stream 0 at an analyzer", rig.anlz, methodSubmit,
			appendBatchCall(nil, 0, 1, core.Batch{Payloads: [][]byte{[]byte("unstamped")}})},
	} {
		wc, err := dialWire(tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		_, err = wc.call(tc.method, func(dst []byte) []byte { return append(dst, tc.body...) })
		var se ServerError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v, want a ServerError reply", tc.name, err)
		} else if tc.body != nil && !strings.Contains(err.Error(), "stream 0") {
			t.Errorf("%s: err = %v, want it to name stream 0", tc.name, err)
		}
		if wc.isBroken() {
			t.Errorf("%s: refusal broke the connection", tc.name)
		}
		if body, err := wc.call(methodStats, nil); err != nil {
			t.Errorf("%s: stats on the same connection afterwards: %v", tc.name, err)
		} else if st, err := decodeServiceStats(body); err != nil || !st.Healthy {
			t.Errorf("%s: stats afterwards = %+v, %v", tc.name, st, err)
		}
		wc.close()
	}
	// The analyzer runs the engine every party runs, so it serves Drain: the
	// reply is its stats, and the connection serves on.
	anlz, err := Dial(rig.anlz)
	if err != nil {
		t.Fatal(err)
	}
	defer anlz.Close()
	if st, err := anlz.Drain(); err != nil || st.Unaccounted != 0 {
		t.Errorf("drain asked of an analyzer = %+v, %v; want its stats", st, err)
	}
	if st, err := anlz.Stats(); err != nil || !st.Healthy {
		t.Errorf("drain asked of an analyzer: stats afterwards = %+v, %v", st, err)
	}
	// A sound frame whose body is malformed for its method is refused the
	// same way (the frame layer cannot see inside the body).
	wc, err := dialWire(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	for _, method := range []uint8{methodDrain, methodSubmit} {
		_, err = wc.call(method, func(dst []byte) []byte { return append(dst, 0x07, 0x07) })
		var se ServerError
		if !errors.As(err, &se) || wc.isBroken() {
			t.Errorf("malformed body for method %d: err = %v, broken = %v", method, err, wc.isBroken())
		}
	}
}

// hungWireServer completes the handshake and then never answers — the
// black-holed peer.
func hungWireServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var magic [4]byte
				if _, err := io.ReadFull(conn, magic[:]); err != nil || magic != wireMagic {
					return
				}
				if _, err := conn.Write(wireMagicAck[:]); err != nil {
					return
				}
				io.Copy(io.Discard, conn) //nolint:errcheck // swallow frames forever
			}()
		}
	}()
	return l.Addr().String()
}

// submitCall issues one Submit on wc and decodes the accepted count.
func submitCall(wc *wireConn, stream, pos int64, b core.Batch) (int, error) {
	reply, err := wc.call(methodSubmit, func(dst []byte) []byte { return appendBatchCall(dst, stream, pos, b) })
	if err != nil {
		return 0, err
	}
	r := wireReader{b: reply}
	n := r.int()
	return int(n), r.done()
}

// TestWireHungPeerTimesOut: a peer that accepts a push but never replies
// must fail the call with a deadline error the retry machinery recognizes
// as transient, not wedge the calling goroutine.
func TestWireHungPeerTimesOut(t *testing.T) {
	addr := hungWireServer(t)
	wc, err := dialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	wc.timeout = 50 * time.Millisecond
	start := time.Now()
	_, err = submitCall(wc, 1, 1, core.Batch{Payloads: [][]byte{[]byte("x")}})
	if err == nil {
		t.Fatal("call against a hung peer succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	if !IsTransient(err) {
		t.Fatalf("deadline error must be transient (retry on a fresh conn): %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("timed out only after %v", waited)
	}
	// The connection is poisoned; later calls must fail fast, and the
	// client-side owner replaces it.
	if !wc.isBroken() {
		t.Fatal("timed-out connection not marked broken")
	}
	if _, err := submitCall(wc, 1, 2, core.Batch{}); err == nil {
		t.Fatal("call on a broken connection succeeded")
	}
}

// TestDrainOutlivesWireTimeout: Drain is exempt from the per-call bound — a
// barrier legitimately waits on the downstream push — so a Drain
// several timeouts long returns its stats on a connection whose other calls
// are bounded, and the connection survives it.
func TestDrainOutlivesWireTimeout(t *testing.T) {
	const timeout = 40 * time.Millisecond
	fault := &faultnet.Plan{Seed: 1, PDelay: 1, Delay: 6 * timeout}
	rig := newStreamingRigVia(t, EpochConfig{}, 1, fault)
	if _, err := rig.svc.Submit(1, 1, core.Batch{Envelopes: []core.Envelope{rig.envelope(t, "c:slow", "slow")}}); err != nil {
		t.Fatal(err)
	}
	wc, err := dialWire(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	wc.timeout = timeout
	start := time.Now()
	body, err := wc.call(methodDrain, func(dst []byte) []byte { return append(dst, 0) })
	if err != nil {
		t.Fatalf("drain past the wire timeout: %v", err)
	}
	if took := time.Since(start); took < 2*timeout {
		t.Fatalf("drain took %v, want it to outlive the %v timeout (the push is delayed %v)", took, timeout, fault.Delay)
	}
	st, err := decodeServiceStats(body)
	if err != nil || st.EpochsFlushed != 1 || st.Cumulative.Forwarded != 1 || st.Unaccounted != 0 {
		t.Fatalf("drain stats = %+v, %v, want the one delayed epoch flushed", st, err)
	}
	if wc.isBroken() {
		t.Fatal("an unbounded Drain broke the connection")
	}
}

// emfileListener fails its first Accept as a process out of file
// descriptors does, then accepts normally.
type emfileListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *emfileListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestServeSurvivesAcceptError: an Accept error other than a closed
// listener (here EMFILE, a burst of connections past the fd limit) must not
// end the accept loop — a dial after it is served — and closing the
// listener still does.
func TestServeSurvivesAcceptError(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &emfileListener{Listener: inner}
	done := make(chan struct{})
	go func() {
		serveListener(l, nullService{})
		close(done)
	}()
	wc, err := dialWire(inner.Addr().String())
	if err != nil {
		t.Fatalf("dial after a failed Accept: %v", err)
	}
	defer wc.close()
	if _, err := wc.call(methodStats, nil); err != nil {
		t.Fatalf("call after a failed Accept: %v", err)
	}
	if !l.failed.Load() {
		t.Fatal("the stub listener never failed an Accept")
	}
	inner.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the accept loop outlived its closed listener")
	}
}

// TestWirePipelinedOutOfOrderReplies proves requests share one connection
// without head-of-line round-trip serialization: a scripted server answers
// the second in-flight request first, and each call still gets its own
// reply.
func TestWirePipelinedOutOfOrderReplies(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serverErr := make(chan error, 1)
	firstSeen := make(chan struct{})
	go func() {
		serverErr <- func() error {
			conn, err := l.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			var magic [4]byte
			if _, err := io.ReadFull(conn, magic[:]); err != nil {
				return err
			}
			if _, err := conn.Write(wireMagicAck[:]); err != nil {
				return err
			}
			br := bufio.NewReader(conn)
			// Answer in reverse order, echoing 100+stream as accepted so
			// each reply is attributable.
			var replies [2][]byte
			for i := range replies {
				frame, err := readFrame(br, conn)
				if err != nil {
					return fmt.Errorf("request %d: %w", i+1, err)
				}
				reqID, _, body, err := parseRequest(frame)
				if err != nil {
					return err
				}
				stream, _, _, err := parseBatchCall(body)
				if err != nil {
					return err
				}
				replies[1-i] = finishFrame(appendWireInts(beginReply(make([]byte, 0, 64), reqID, nil), 100+stream))
				if i == 0 {
					close(firstSeen)
				}
			}
			for _, frame := range replies {
				if _, err := conn.Write(frame); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	wc, err := dialWire(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()

	results := make([]int, 2)
	callErrs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		results[0], callErrs[0] = submitCall(wc, 1, 1, core.Batch{})
	}()
	go func() {
		defer wg.Done()
		<-firstSeen // guarantee ordering: call 0 is on the wire first
		results[1], callErrs[1] = submitCall(wc, 2, 1, core.Batch{})
	}()
	wg.Wait()
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	for i, err := range callErrs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if results[0] != 101 || results[1] != 102 {
		t.Fatalf("replies crossed: got %v, want [101 102]", results)
	}
}

// TestErrorPredicates pins IsEpochFull and IsTransient over every error
// shape the chain produces: local sentinels, the same errors after crossing
// the wire as ServerError, a link a fault proxy closed (a connection
// failure like any other), a deadline hit, and dead connections.
func TestErrorPredicates(t *testing.T) {
	_, dialErr := net.DialTimeout("tcp", deadAddr(t), time.Second)
	if dialErr == nil {
		t.Fatal("dialing a dead address succeeded")
	}
	for _, tc := range []struct {
		name                 string
		err                  error
		epochFull, transient bool
	}{
		{"nil", nil, false, false},
		{"ErrEpochFull", ErrEpochFull, true, false},
		{"epoch-full over the wire", ServerError(ErrEpochFull.Error()), true, false},
		{"epoch-full over the wire, new text", ServerError("transport: epoch full: held past its bound; the refusal is final"), true, false},
		{"epoch-full over the wire, old text", ServerError("transport: epoch full, retry after flush"), true, false},
		{"epoch-full refusing a push", fmt.Errorf("transport: push to next hop 127.0.0.1:1: %w", ServerError(ErrEpochFull.Error())), true, false},
		{"epoch-full through the balancer", fmt.Errorf("127.0.0.1:1: %w", ServerError(ErrEpochFull.Error())), true, false},
		{"other server error", ServerError("transport: shuffler stage does not serve method 238"), false, false},
		{"ErrClosed over the wire", ServerError(ErrClosed.Error()), false, true},
		{"ErrClosed inside another message", ServerError("stage: " + ErrClosed.Error()), false, false},
		{"link closed by a fault proxy", fmt.Errorf("%w (transport: wire connection: %w)", io.ErrUnexpectedEOF, io.EOF), false, true},
		{"deadline hit", fmt.Errorf("transport: wire call timed out after 2m0s: %w", os.ErrDeadlineExceeded), false, true},
		{"peer hung up", io.EOF, false, true},
		{"broken connection", fmt.Errorf("%w (transport: wire connection: read tcp: connection reset)", io.ErrUnexpectedEOF), false, true},
		{"handshake refused", fmt.Errorf("transport: handshake with 127.0.0.1:1: %w", io.EOF), false, true},
		{"dial refused", dialErr, false, true},
		{"push refused at redial", fmt.Errorf("transport: push to next hop 127.0.0.1:1: %w", dialErr), false, true},
		{"push refused by the hop", fmt.Errorf("transport: push to next hop 127.0.0.1:1: %w", ServerError("transport: stage ingests blinded envelopes, got payloads")), false, false},
		{"plain error", errors.New("boom"), false, false},
	} {
		if got := IsEpochFull(tc.err); got != tc.epochFull {
			t.Errorf("IsEpochFull(%s) = %v, want %v", tc.name, got, tc.epochFull)
		}
		if got := IsTransient(tc.err); got != tc.transient {
			t.Errorf("IsTransient(%s) = %v, want %v", tc.name, got, tc.transient)
		}
	}
}

// FuzzWireFrameParse hammers the frame parsers and every body decoder with
// arbitrary bytes: they must reject garbage gracefully, never panic, and a
// batch call parseRequest and parseBatchCall accept must re-encode to a
// frame that parses identically.
func FuzzWireFrameParse(f *testing.F) {
	body := func(frame []byte) []byte {
		n, k := binary.Uvarint(frame)
		return frame[k : k+int(n)]
	}
	f.Add(body(batchRequest(3, methodSubmit, 5, 6,
		core.Batch{Envelopes: []core.Envelope{{Blob: []byte("b")}}})))
	f.Add(body(batchRequest(4, methodSubmit, 5, 6, core.Batch{Payloads: [][]byte{[]byte("p"), nil}})))
	f.Add(body(finishFrame(append(beginRequest(make([]byte, 0, 32), 5, methodDrain), 1))))
	// 5, once Healthz, is retired: its request is refused, and still a seed.
	for _, m := range []uint8{methodKeys, 5, methodStats, methodAttestation, methodHistogram} {
		f.Add(body(finishFrame(beginRequest(make([]byte, 0, 32), 6, m))))
	}
	// A sound frame whose batch announces 2^40 payloads in two bytes: the
	// count must be refused before it sizes anything.
	oversized := appendWireInts(beginRequest(make([]byte, 0, 32), 7, methodSubmit), 5, 6)
	oversized = append(binary.AppendUvarint(append(oversized, byte(core.KindPayloads)), 1<<40), 1, 'p')
	f.Add(body(finishFrame(oversized)))
	reply := func(b []byte) []byte {
		return body(finishFrame(append(beginReply(make([]byte, 0, 256), 1, nil), b...)))
	}
	f.Add(reply(appendWireInts(nil, 10)))
	f.Add(reply(Keys{Blinding: []byte("h"), Key: []byte("k")}.appendWire(nil)))
	f.Add(reply(ServiceStats{Healthy: true, Pending: 3, Accepted: 7}.appendWire(nil)))
	f.Add(reply(ServiceStats{Accepted: 9, LastError: "boom", Cumulative: shuffler.Stats{Received: 9}}.appendWire(nil)))
	// an analyzer's Stats: records received, opened and counted, and not
	f.Add(reply(ServiceStats{Accepted: 4, EpochsFlushed: 1, Cumulative: shuffler.Stats{Received: 4, Undecryptable: 1, Forwarded: 3}}.appendWire(nil)))
	f.Add(reply(AttestationReply{Quote: sgx.Quote{ReportData: []byte("key")}}.appendWire(nil)))
	f.Add(reply(appendHistogram(nil, map[string]int{"\xff\x00": 2, "": 1}, 3)))
	f.Add(body(finishFrame(beginReply(make([]byte, 0, 64), 2, errors.New("boom")))))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		data, err := checkCRC(frame)
		if err != nil {
			return
		}
		if _, rb, _, err := parseReply(data); err == nil {
			// None of these may panic, whatever the body.
			decodeKeys(rb)         //nolint:errcheck
			decodeServiceStats(rb) //nolint:errcheck
			decodeAttestation(rb)  //nolint:errcheck
			decodeHistogram(rb)    //nolint:errcheck
		}
		reqID, method, rb, err := parseRequest(data)
		if err != nil {
			return
		}
		stream, pos, b, err := parseBatchCall(rb)
		if err != nil {
			return
		}
		id2, m2, rb2, err := parseRequest(openFrame(t, batchRequest(reqID, method, stream, pos, b)))
		if err != nil {
			t.Fatalf("re-encoded frame does not parse: %v", err)
		}
		s2, p2, b2, err := parseBatchCall(rb2)
		if err != nil {
			t.Fatalf("re-encoded batch call does not parse: %v", err)
		}
		if id2 != reqID || m2 != method || s2 != stream || p2 != pos ||
			b2.Kind() != b.Kind() || b2.Len() != b.Len() {
			t.Fatalf("re-encode changed the request: (%d %d %d %d %v/%d) vs (%d %d %d %d %v/%d)",
				reqID, method, stream, pos, b.Kind(), b.Len(), id2, m2, s2, p2, b2.Kind(), b2.Len())
		}
	})
}

// benchBatch builds a push-shaped batch: n envelopes of blobSize bytes.
func benchBatch(n, blobSize int) core.Batch {
	envs := make([]core.Envelope, n)
	blob := make([]byte, blobSize)
	crand.Read(blob) //nolint:errcheck
	for i := range envs {
		envs[i] = core.Envelope{Blob: blob}
	}
	return core.Batch{Envelopes: envs}
}

// BenchmarkWireCodec measures one marshal+unmarshal of a 500-envelope batch
// through the batch codec, receiver-side buffer included.
func BenchmarkWireCodec(b *testing.B) {
	batch := benchBatch(500, 128)
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var arena []byte
		for i := 0; i < b.N; i++ {
			arena = core.AppendBatch(arena[:0], batch)
			buf := make([]byte, len(arena)) // the receiver's fresh frame buffer
			copy(buf, arena)
			if _, _, err := core.DecodeBatchAlias(buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(arena)))
	})
}
