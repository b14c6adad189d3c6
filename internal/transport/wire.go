package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"prochlo/internal/core"
)

// Frame protocol. Every call between two parties — a batch (a client's
// submission, an epoch one hop pushes to the next or to an analyzer) and the
// control calls — is one request frame answered by one reply frame on a TCP
// connection:
//
//	request frame: uvarint len | body
//	  body:  uvarint reqID | method byte | request body | crc32 (LE)
//	reply   frame: uvarint len | body
//	  body:  uvarint reqID | status byte | reply body (status 0)
//	         or uvarint msglen + msg (status 1) | crc32 (LE)
//
// The request and reply bodies are opaque to the frame layer. Per method
// (ints are varints, bytes and strings are uvarint-length-prefixed, a batch
// is the internal/core codec — kind byte, uvarint count, items — an item's
// only encoding; the WAL logs a Submit's request body as it arrived):
//
//	method           request body                reply body
//	 1 Submit        stream | pos | batch        accepted
//	 4 Keys          -                           blinding bytes | key bytes
//	 6 Stats         -                           ServiceStats
//	 7 Drain         force byte                  ServiceStats
//	 9 Attestation   -                           quote
//	10 Histogram     -                           count | (key bytes | n)* | undecryptable
//
// Every party serves every method but two, each only over a stage that has
// what it serves: Attestation over the SGX shuffler, whose stage holds its
// quote, and Histogram over the analyzer's sink, which drains before it
// answers.
// Submit carries every batch: pos is a client's sequence number or the
// pushing hop's epoch id, and (stream, pos) is the receiver's dedup key.
// Ids 2, 3, 5 and 8 are retired. Histogram keys are decrypted report payloads —
// arbitrary bytes — which is why every body is binary rather than text.
//
// The CRC covers the body up to itself (IEEE, like the WAL records). A
// frame that fails the CRC, truncates, or exceeds maxWireFrame kills the
// connection — the one sender, (*peerConn).retry, treats that as the
// transient connection failure it is and resends on a fresh connection. A
// request the service refuses (unknown method, a method its role does not
// serve, a malformed body inside a sound frame) gets an error reply and the
// connection stays up.
//
// Requests are pipelined: a connection carries any number of in-flight
// requests, correlated by reqID. The server answers every method but Drain
// on its read loop, in arrival order; a Drain — the one call that waits on
// other parties — runs in its own goroutine (at most maxConnHandlers at once
// per connection), so its reply may overtake the calls behind it. Server
// errors travel as strings and surface as ServerError.
//
// A dialer opens with a 4-byte magic and the server acks it before any
// frame flows, so dialing something that is not a prochlo party fails at
// Dial instead of at the first call; a server closes a peer that opens with
// anything else.

// DefaultDialTimeout bounds connecting to a peer and its handshake, so a
// party whose peer is dead fails fast instead of hanging in the TCP
// handshake forever; a server closes a peer that has not opened with the
// magic by then.
const DefaultDialTimeout = 5 * time.Second

// DefaultWireTimeout bounds one call end to end: a peer that accepted the
// connection but never answers (hung process, black-holed route) fails the
// call with a deadline error — transient, so the sender redials — instead of
// blocking its flusher goroutine forever. Drain is exempt: it legitimately
// blocks for as long as the downstream barrier takes.
const DefaultWireTimeout = 2 * time.Minute

// wireIOTimeout bounds individual frame reads and writes once a frame has
// started (a mid-frame stall is a torn frame, not patience), while idle
// connections wait for the next frame without any deadline.
const wireIOTimeout = 30 * time.Second

// maxWireFrame caps a frame body; anything larger is corruption, not data.
const maxWireFrame = 1 << 30

// frameReadChunk is the most a frame reader allocates ahead of the bytes it
// has actually received; see readBody. It is sized so the frames a chain
// normally carries — a client batch, an epoch of a few thousand reports —
// fit in it and are read into one exact-size buffer with no regrowth.
const frameReadChunk = 1 << 20

// maxConnHandlers bounds the Drain handlers one connection may have in
// flight. Past it the read loop stops parsing frames, so a peer that floods
// Drains is back-pressured by TCP instead of growing the server's goroutine
// count without limit.
const maxConnHandlers = 64

// Frame method ids. The gaps are retired ids, never reused.
const (
	methodSubmit      uint8 = 1
	methodKeys        uint8 = 4
	methodStats       uint8 = 6
	methodDrain       uint8 = 7
	methodAttestation uint8 = 9
	methodHistogram   uint8 = 10
)

// wireMagic opens a connection; wireMagicAck confirms it.
var (
	wireMagic    = [4]byte{0x00, 'P', 'W', '1'}
	wireMagicAck = [4]byte{0x00, 'P', 'A', '1'}
)

// ServerError is an error the peer's service returned, as opposed to a
// failure of the connection that carried the call. It crosses the wire as
// its message, so IsEpochFull matches on text; IsTransient
// is false for it (the call was delivered and answered).
type ServerError string

func (e ServerError) Error() string { return string(e) }

// framePool recycles frame encode buffers so a steady-state push allocates
// nothing for its marshal: the arena grows to the fleet's epoch size and is
// reused across pushes and connections.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// frameHeaderMax is the room a frame under construction leaves in front of
// its body for the uvarint length finishFrame writes last.
const frameHeaderMax = binary.MaxVarintLen64

// finishFrame seals the body built at buf[frameHeaderMax:] with its checksum
// and prefixes it with its length, so the whole frame is one contiguous
// write. It returns the frame slice within buf.
func finishFrame(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[frameHeaderMax:]))
	var hdr [frameHeaderMax]byte
	n := binary.PutUvarint(hdr[:], uint64(len(buf)-frameHeaderMax))
	copy(buf[frameHeaderMax-n:], hdr[:n])
	return buf[frameHeaderMax-n:]
}

// checkCRC verifies and strips a received body's trailing checksum.
func checkCRC(body []byte) ([]byte, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("transport: wire frame too short for checksum")
	}
	data, tail := body[:len(body)-4], body[len(body)-4:]
	if crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("transport: wire frame checksum mismatch")
	}
	return data, nil
}

// readFrame reads one length-prefixed frame body. The wait for the first
// length byte is unbounded (idle connections are normal); once a frame has
// begun, the remainder must arrive within wireIOTimeout or the read fails —
// a torn frame from a hung peer becomes an error instead of a stuck
// goroutine. A frame already whole in br's buffer is read without a
// blocking read, so it sets no deadline.
func readFrame(br *bufio.Reader, conn net.Conn) ([]byte, error) {
	if _, err := br.Peek(1); err != nil {
		return nil, err
	}
	if !frameBuffered(br) {
		if err := conn.SetReadDeadline(time.Now().Add(wireIOTimeout)); err != nil {
			return nil, err
		}
		defer conn.SetReadDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("transport: wire frame length: %w", err)
	}
	if n > maxWireFrame {
		return nil, fmt.Errorf("transport: wire frame of %d bytes exceeds limit", n)
	}
	body, err := readBody(br, int(n))
	if err != nil {
		return nil, fmt.Errorf("transport: wire frame body: %w", err)
	}
	return checkCRC(body)
}

// frameBuffered reports whether br's buffer holds a whole frame: its length
// prefix and every body byte the prefix announces.
func frameBuffered(br *bufio.Reader) bool {
	buf, _ := br.Peek(br.Buffered())
	n, k := binary.Uvarint(buf)
	return k > 0 && n <= uint64(len(buf)-k)
}

// readBody reads an n-byte frame body into a fresh buffer (a decoded batch
// aliases it, so it is handed over with the items rather than pooled). The
// length prefix comes from a peer nobody has authenticated, so the buffer
// grows only as bytes actually arrive — doubling from frameReadChunk — and a
// peer that announces maxWireFrame and then stalls costs one chunk, not n.
func readBody(r io.Reader, n int) ([]byte, error) {
	var body []byte
	for len(body) < n {
		next := min(n, max(2*len(body), frameReadChunk))
		body = append(make([]byte, 0, next), body...)
		m, err := io.ReadFull(r, body[len(body):next])
		body = body[:len(body)+m]
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// writeFrame writes one already-finished frame under a write deadline.
func writeFrame(conn net.Conn, frame []byte) error {
	if err := conn.SetWriteDeadline(time.Now().Add(wireIOTimeout)); err != nil {
		return err
	}
	_, err := conn.Write(frame)
	return err
}

// beginRequest starts a request frame in a pooled buffer; the caller appends
// the request body and finishes the frame.
func beginRequest(buf []byte, reqID uint64, method uint8) []byte {
	buf = binary.AppendUvarint(buf[:frameHeaderMax], reqID)
	return append(buf, method)
}

// parseRequest splits a checksum-verified request frame body into its
// header and the method's opaque request body (which aliases frame).
func parseRequest(frame []byte) (reqID uint64, method uint8, body []byte, err error) {
	reqID, k := binary.Uvarint(frame)
	if k <= 0 || len(frame) == k {
		return 0, 0, nil, fmt.Errorf("transport: wire request header: corrupt or truncated")
	}
	return reqID, frame[k], frame[k+1:], nil
}

// beginReply starts a reply frame; an error reply is complete after this,
// a success reply gets the method's reply body appended.
func beginReply(buf []byte, reqID uint64, herr error) []byte {
	buf = binary.AppendUvarint(buf[:frameHeaderMax], reqID)
	if herr != nil {
		return appendWireBytes(append(buf, 1), []byte(herr.Error()))
	}
	return append(buf, 0)
}

// parseReply splits a checksum-verified reply frame body. A status-1 reply
// yields its message as a ServerError in serverErr; err reports a frame
// that cannot be trusted at all.
func parseReply(frame []byte) (reqID uint64, body []byte, serverErr, err error) {
	reqID, k := binary.Uvarint(frame)
	if k <= 0 || len(frame) == k {
		return 0, nil, nil, fmt.Errorf("transport: wire reply header: corrupt or truncated")
	}
	status, body := frame[k], frame[k+1:]
	switch status {
	case 0:
		return reqID, body, nil, nil
	case 1:
		r := wireReader{b: body}
		msg := r.bytes()
		if r.err != nil {
			return 0, nil, nil, fmt.Errorf("transport: wire reply error text: %w", r.err)
		}
		return reqID, nil, ServerError(msg), nil
	}
	return 0, nil, nil, fmt.Errorf("transport: wire reply status 0x%02x", status)
}

// appendBatchCall encodes a Submit request body: the (stream, pos) dedup
// stamp and the batch.
func appendBatchCall(dst []byte, stream, pos int64, b core.Batch) []byte {
	return core.AppendBatch(appendWireInts(dst, stream, pos), b)
}

// errStreamZero refuses a Submit on stream 0: every sender stamps its calls
// with a stream newStreamID drew, and it never draws 0.
var errStreamZero = errors.New("transport: malformed Submit: stream 0")

// parseBatchCall decodes a Submit request body. The batch
// aliases body, which the caller must therefore not reuse.
func parseBatchCall(body []byte) (stream, pos int64, b core.Batch, err error) {
	r := wireReader{b: body}
	stream, pos = r.int(), r.int()
	if r.err != nil {
		return 0, 0, b, fmt.Errorf("transport: wire request stamp: %w", r.err)
	}
	if stream == 0 {
		return 0, 0, b, errStreamZero
	}
	b, rest, err := core.DecodeBatchAlias(r.b)
	if err != nil {
		return 0, 0, b, err
	}
	if len(rest) != 0 {
		return 0, 0, b, fmt.Errorf("transport: wire request has %d trailing bytes", len(rest))
	}
	return stream, pos, b, nil
}

// appendWireBytes appends one uvarint-length-prefixed field.
func appendWireBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// appendWireInts appends each value as a varint.
func appendWireInts(dst []byte, vs ...int64) []byte {
	for _, v := range vs {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// wireReader decodes a body field by field. The first malformed field
// sticks in err and every later read returns a zero value, so a decoder
// reads all its fields and checks err once.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) int() int64 {
	v, k := binary.Varint(r.b)
	if k <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[k:]
	return v
}

// bytes returns the next length-prefixed field, aliasing the body.
func (r *wireReader) bytes() []byte {
	n, k := binary.Uvarint(r.b)
	if k <= 0 || n > uint64(len(r.b)-k) {
		r.fail()
		return nil
	}
	v := r.b[k : k+int(n)]
	r.b = r.b[k+int(n):]
	return v
}

// count reads an element count and rejects one the remaining bytes could
// not possibly hold (every element is at least one byte), so a hostile
// count cannot size an allocation.
func (r *wireReader) count() int {
	n := r.int()
	if n < 0 || n > int64(len(r.b)) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = errors.New("corrupt or truncated field")
	}
	r.b = nil
}

// done reports the sticky error, or trailing bytes the decoder did not
// consume.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// wireResult is one decoded reply, delivered to the waiting call.
type wireResult struct {
	body []byte
	err  error
}

// wireConn is one established connection: safe for concurrent calls, which
// pipeline — each call writes its frame under the write lock and parks on
// its reqID while the reader goroutine dispatches replies in whatever order
// the server finishes them.
type wireConn struct {
	conn    net.Conn
	timeout time.Duration // per-call bound: DefaultWireTimeout; <= 0 disables

	wmu sync.Mutex // serializes frame writes

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan wireResult
	broken  error // set once the connection is unusable; fails new calls fast
}

// dialWire connects to addr and completes the handshake, each bounded by
// DefaultDialTimeout; calls on the connection are bounded by
// DefaultWireTimeout.
func dialWire(addr string) (*wireConn, error) {
	conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	if err := handshake(conn, DefaultDialTimeout); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: handshake with %s: %w", addr, err)
	}
	wc := &wireConn{conn: conn, timeout: DefaultWireTimeout, pending: make(map[uint64]chan wireResult)}
	go wc.readLoop()
	return wc, nil
}

func handshake(conn net.Conn, timeout time.Duration) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := conn.Write(wireMagic[:]); err != nil {
		return err
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return err
	}
	if ack != wireMagicAck {
		return fmt.Errorf("peer does not speak the frame protocol (ack % x)", ack)
	}
	return conn.SetDeadline(time.Time{})
}

// readLoop dispatches reply frames to their waiting calls until the
// connection dies, then fails every in-flight call with the (transient)
// connection error.
func (w *wireConn) readLoop() {
	br := bufio.NewReaderSize(w.conn, 32<<10)
	for {
		frame, err := readFrame(br, w.conn)
		if err != nil {
			w.fail(err)
			return
		}
		reqID, body, serverErr, err := parseReply(frame)
		if err != nil {
			w.fail(err)
			return
		}
		w.mu.Lock()
		ch := w.pending[reqID]
		delete(w.pending, reqID)
		w.mu.Unlock()
		if ch != nil {
			ch <- wireResult{body: body, err: serverErr}
		}
	}
}

// fail marks the connection broken and unblocks every pending call with a
// transient error, so redial machinery takes over.
func (w *wireConn) fail(cause error) {
	err := fmt.Errorf("transport: wire connection: %w", cause)
	w.mu.Lock()
	if w.broken == nil {
		w.broken = err
	}
	pending := w.pending
	w.pending = make(map[uint64]chan wireResult)
	w.mu.Unlock()
	w.conn.Close()
	for _, ch := range pending {
		ch <- wireResult{err: fmt.Errorf("%w (%v)", io.ErrUnexpectedEOF, err)}
	}
}

// call issues one pipelined request — appendBody writes the method's request
// body into the frame — and returns the reply body, which the caller owns.
// A call that outlives the connection's timeout kills the connection (the
// only way to unstick a hung peer) and returns a deadline error, which
// IsTransient recognizes; Drain waits without a bound.
func (w *wireConn) call(method uint8, appendBody func(dst []byte) []byte) ([]byte, error) {
	w.mu.Lock()
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return nil, fmt.Errorf("%w (%v)", io.ErrUnexpectedEOF, err)
	}
	id := w.nextID.Add(1)
	ch := make(chan wireResult, 1)
	w.pending[id] = ch
	w.mu.Unlock()

	bufp := framePool.Get().(*[]byte)
	buf := beginRequest(*bufp, id, method)
	if appendBody != nil {
		buf = appendBody(buf)
	}
	frame := finishFrame(buf)
	w.wmu.Lock()
	err := writeFrame(w.conn, frame)
	w.wmu.Unlock()
	if cap(frame) > cap(*bufp) {
		*bufp = frame[:0]
	}
	framePool.Put(bufp)
	if err != nil {
		w.mu.Lock()
		delete(w.pending, id)
		w.mu.Unlock()
		w.fail(err)
		return nil, fmt.Errorf("%w (%v)", io.ErrUnexpectedEOF, err)
	}

	if w.timeout <= 0 || method == methodDrain {
		res := <-ch
		return res.body, res.err
	}
	timer := time.NewTimer(w.timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.body, res.err
	case <-timer.C:
		// Deregister first so fail does not overwrite this call's outcome
		// with the generic broken-connection error; the deadline is the
		// truthful cause here.
		w.mu.Lock()
		delete(w.pending, id)
		w.mu.Unlock()
		w.fail(os.ErrDeadlineExceeded)
		// The reply may have raced the deregistration; prefer it if so. The
		// buffered channel keeps the racing sender unblocked either way.
		select {
		case res := <-ch:
			return res.body, res.err
		default:
		}
		return nil, fmt.Errorf("transport: wire call timed out after %v: %w", w.timeout, os.ErrDeadlineExceeded)
	}
}

// close tears the connection down, failing any in-flight calls.
func (w *wireConn) close() error {
	w.fail(errors.New("connection closed"))
	return nil
}

// isBroken reports whether the connection has failed and should be
// replaced rather than reused.
func (w *wireConn) isBroken() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken != nil
}

// Service is a party's frame-method handler — a StageService, or a test's
// stand-in for one. serveFrame runs one request and appends the method's
// reply body to dst; an error becomes an error reply, never a dropped
// connection. body may be aliased by what the handler keeps (ingested
// batches are), so the server hands each request its own buffer.
type Service interface {
	serveFrame(method uint8, body, dst []byte) ([]byte, error)
}

// Serve serves svc on addr (use "127.0.0.1:0" for an ephemeral port). It
// returns the listener; callers close it to stop accepting.
func Serve(addr string, svc Service) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go serveListener(l, svc)
	return l, nil
}

// Accept backoff: after an Accept error other than a closed listener, the
// loop waits acceptDelayMin, doubling to acceptDelayMax (net/http's schedule).
const (
	acceptDelayMin = 5 * time.Millisecond
	acceptDelayMax = time.Second
)

// serveListener accepts on l until it is closed. Any other Accept error —
// the process out of file descriptors (EMFILE), a connection aborted before
// it was accepted — belongs to the moment, not the listener: the loop backs
// off and accepts again, so a burst of connections past the fd limit leaves
// a daemon that serves again once the burst is gone.
func serveListener(l net.Listener, svc Service) {
	var delay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			delay = min(max(2*delay, acceptDelayMin), acceptDelayMax)
			time.Sleep(delay)
			continue
		}
		delay = 0
		go serveConn(conn, svc)
	}
}

// serveConn serves one accepted connection until it closes. A peer that
// does not open with the magic within DefaultDialTimeout is closed.
//
// The read loop answers each request itself, in arrival order, except a
// Drain: it blocks for as long as the downstream barrier takes, so it runs in
// its own goroutine (pipelining — the submissions behind it must not wait
// for it), at most maxConnHandlers at a time. Replies are serialized by a
// write lock.
func serveConn(conn net.Conn, svc Service) {
	defer conn.Close()
	var magic [4]byte
	if err := conn.SetReadDeadline(time.Now().Add(DefaultDialTimeout)); err != nil {
		return
	}
	if _, err := io.ReadFull(conn, magic[:]); err != nil || magic != wireMagic {
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return
	}
	if err := writeFrame(conn, wireMagicAck[:]); err != nil {
		return
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	var wmu sync.Mutex
	serve := func(reqID uint64, method uint8, body []byte) {
		bufp := framePool.Get().(*[]byte)
		buf := beginReply(*bufp, reqID, nil)
		buf, herr := svc.serveFrame(method, body, buf)
		if herr != nil {
			buf = beginReply(*bufp, reqID, herr)
		}
		frame := finishFrame(buf)
		wmu.Lock()
		werr := writeFrame(conn, frame)
		wmu.Unlock()
		if cap(frame) > cap(*bufp) {
			*bufp = frame[:0]
		}
		framePool.Put(bufp)
		if werr != nil {
			conn.Close() // unblocks the read loop; callers redial
		}
	}
	var drains sync.WaitGroup
	defer drains.Wait()
	slots := make(chan struct{}, maxConnHandlers)
	for {
		frame, err := readFrame(br, conn)
		if err != nil {
			return // torn frame, checksum mismatch, or ordinary close
		}
		reqID, method, body, err := parseRequest(frame)
		if err != nil {
			return // cannot trust the frame enough to even address a reply
		}
		if method != methodDrain {
			serve(reqID, method, body)
			continue
		}
		slots <- struct{}{}
		drains.Add(1)
		go func() {
			defer func() {
				<-slots
				drains.Done()
			}()
			serve(reqID, method, body)
		}()
	}
}
