package fed

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// WireOptions configure one end of a wire link.
type WireOptions struct {
	// Compression selects the frame encodings this end emits. The lossless
	// sparse form is always available (it changes bytes, never values);
	// quantisation is lossy and must match on both ends — the Hello
	// handshake rejects a mismatch.
	Compression Compression
	// Timeout bounds each Send and Recv when the underlying stream supports
	// deadlines (net.Conn does): a hung or vanished peer surfaces as a
	// timeout error instead of wedging the round forever. 0 disables.
	//
	// Without the rejoin path the timeout must exceed the longest interval
	// a healthy peer can stay silent — under the asynchronous scheduler
	// that is the slowest client's whole task, because a fast client idles
	// at the task barrier while the straggler finishes, and a tighter bound
	// would permanently evict it for being early. With rejoin enabled
	// (server accepting rejoins, clients running RunReconnect) a timeout
	// eviction is recoverable — the idle client simply reconnects with a
	// catch-up handshake — so the timeout can be an honest per-message
	// bound on link health instead.
	Timeout time.Duration
	// MaxFrame, when positive, lowers this end's frame-payload bound below
	// the package default (256 MB) — the allocation a malicious or corrupt
	// length prefix can force on the decoder before validation fails. Size it
	// to the job's dense model payload plus slack; the logical params-length
	// bound scales with it (MaxFrame/4), so it also caps what a tiny sparse
	// frame may claim to densify into. Send refuses a frame over the bound
	// before writing any of it. Values above the package default are clamped
	// to it.
	MaxFrame int
}

// deadliner is the subset of net.Conn the timeout support needs.
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// WireTransport runs the round lifecycle over a byte stream (normally a TCP
// net.Conn) using the length-prefixed binary codec, so a federation can span
// processes and machines. With the default lossless encoding, floats cross
// the wire as raw IEEE-754 bits — sparse frames only change how the bits are
// laid out — and a wire run is bit-identical to a loopback run of the same
// seed.
type WireTransport struct {
	conn  io.ReadWriteCloser
	dl    deadliner // non-nil when conn supports deadlines
	opts  WireOptions
	br    *bufio.Reader
	codec Codec // per-link scratch: encode buffer and decode pools
	werr  error // the first failed write: the stream may hold a partial frame

	// Byte counters are atomics: each direction is driven by one goroutine,
	// but the totals are read concurrently from others (the server's
	// traffic summary, observers polling mid-run).
	sent atomic.Int64
	recv atomic.Int64
}

// NewWireWith wraps a connected byte stream with explicit options.
func NewWireWith(conn io.ReadWriteCloser, opts WireOptions) *WireTransport {
	w := &WireTransport{
		conn: conn,
		opts: opts,
		br:   bufio.NewReaderSize(conn, 1<<16),
	}
	w.codec.comp = opts.Compression
	w.codec.maxFrame = opts.MaxFrame
	w.dl, _ = conn.(deadliner)
	return w
}

// Send writes one frame — header and payload, one buffer — to the stream in
// a single Write. The frame is the link's own encoding of m, or, for a
// GlobalModel under Server.broadcast, the broadcast's shared frame: the first
// link encodes it, the others only write it (see GlobalModel). A failure to
// arm the write deadline (a closed or broken socket) surfaces immediately as
// that error, not as a confusing EOF from a later call; a failed write is
// sticky, because the stream may end in a partial frame.
func (w *WireTransport) Send(m Msg) error {
	if w.werr != nil {
		return w.werr
	}
	if w.dl != nil && w.opts.Timeout > 0 {
		if err := w.dl.SetWriteDeadline(time.Now().Add(w.opts.Timeout)); err != nil {
			return fmt.Errorf("fed: arming write deadline: %w", err)
		}
	}
	frame, err := w.codec.frame(m)
	if err != nil {
		return err
	}
	w.sent.Add(int64(len(frame)))
	_, w.werr = w.conn.Write(frame)
	return w.werr
}

// Recv decodes the next frame. A clean peer close surfaces as io.EOF, the
// protocol's shutdown signal. The returned message's slices alias the
// transport's reusable decode buffers and stay valid until the next Recv
// with a slice-bearing message — the lockstep protocol consumes every
// message before the link's next Recv, mirroring the loopback transport's
// zero-copy aliasing contract.
func (w *WireTransport) Recv() (Msg, error) {
	if w.dl != nil && w.opts.Timeout > 0 {
		if err := w.dl.SetReadDeadline(time.Now().Add(w.opts.Timeout)); err != nil {
			return nil, fmt.Errorf("fed: arming read deadline: %w", err)
		}
	}
	m, n, err := w.codec.decodeFrame(w.br)
	w.recv.Add(int64(n))
	return m, err
}

// BytesSent reports the total frame bytes written so far — the measured
// (post-encoding) wire traffic, as opposed to the protocol's simulated
// dense-model accounting. Safe to call from any goroutine.
func (w *WireTransport) BytesSent() int64 { return w.sent.Load() }

// BytesRecv reports the total frame bytes read so far. Safe to call from
// any goroutine.
func (w *WireTransport) BytesRecv() int64 { return w.recv.Load() }

// Close tears down the underlying stream.
func (w *WireTransport) Close() error { return w.conn.Close() }

// ServeWith accepts numClients connections on ln, reads each one's Hello
// identification frame, and returns the server-side transports indexed by
// client ID. It is the wire counterpart of building loopback pairs.
// fingerprint is the server's Config.Fingerprint(): a client whose hello
// carries a different digest derived its job from different knobs (seed,
// hyperparameters, …) and is rejected rather than allowed to silently
// break reproducibility; pass 0 to skip the check. The hello also carries
// the client's value encoding: quantisation changes results, so a client
// whose -compress setting differs from the server's is rejected at the
// handshake with an explicit error. On error every accepted connection is
// closed, so blocked clients unblock instead of leaking.
func ServeWith(ln net.Listener, numClients int, fingerprint uint64, opts WireOptions) (_ []Transport, err error) {
	links := make([]Transport, numClients)
	defer func() {
		if err != nil {
			for _, t := range links {
				if t != nil {
					t.Close()
				}
			}
		}
	}()
	for k := 0; k < numClients; k++ {
		conn, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		t := NewWireWith(conn, opts)
		msg, err := t.Recv()
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("fed: hello from connection %d: %w", k, err)
		}
		hello, ok := msg.(*helloMsg)
		if !ok {
			conn.Close()
			return nil, fmt.Errorf("fed: connection %d sent %T before hello", k, msg)
		}
		if hello.rejoin || hello.join {
			// A rejoin or join raced the fresh cohort's handshake (a client
			// retrying from an earlier run, or dialing before the acceptor is
			// up): refuse this connection without failing the cohort — the
			// client backs off and retries.
			t.Close()
			k--
			continue
		}
		if hello.clientID < 0 || hello.clientID >= numClients {
			conn.Close()
			return nil, fmt.Errorf("fed: hello client id %d out of range [0,%d)", hello.clientID, numClients)
		}
		if fingerprint != 0 && hello.fingerprint != fingerprint {
			conn.Close()
			return nil, fmt.Errorf("fed: client %d job fingerprint %#x does not match server %#x (different seed/flags?)",
				hello.clientID, hello.fingerprint, fingerprint)
		}
		if hello.quant != opts.Compression.Quant {
			conn.Close()
			return nil, fmt.Errorf("fed: client %d negotiated %s compression, server uses %s (pass the same -compress to every process)",
				hello.clientID, hello.quant, opts.Compression.Quant)
		}
		if links[hello.clientID] != nil {
			conn.Close()
			return nil, fmt.Errorf("fed: duplicate hello for client %d", hello.clientID)
		}
		links[hello.clientID] = t
	}
	return links, nil
}

// DialWith connects to a federation server and identifies as client id,
// presenting the job fingerprint (Config.Fingerprint(); 0 to opt out) and
// the value encoding for the server's consistency checks. The returned
// transport is ready for the client's Run loop.
func DialWith(addr string, id int, fingerprint uint64, opts WireOptions) (Transport, error) {
	return dial(addr, &helloMsg{clientID: id, fingerprint: fingerprint}, opts)
}

// dial connects to addr and sends hello, stamped with opts' value encoding:
// the client side of every handshake.
func dial(addr string, hello *helloMsg, opts WireOptions) (Transport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := NewWireWith(conn, opts)
	hello.quant = opts.Compression.Quant
	if err := t.Send(hello); err != nil {
		conn.Close()
		return nil, err
	}
	return t, nil
}

// DialRejoinWith reconnects a dropped client: it dials the server and sends
// a rejoin hello carrying the client ID, the job fingerprint, and the
// client's last-seen global version. The server (when it admits seats —
// see Server.Accept) replies with one Catchup frame on this transport
// before the normal message flow resumes; a refusal (live seat, fingerprint
// mismatch, rejoin not enabled) surfaces as the connection closing without
// a Catchup. Client.RunReconnect wraps this in a capped-backoff retry loop.
func DialRejoinWith(addr string, id int, fingerprint uint64, lastVersion uint64, opts WireOptions) (Transport, error) {
	return dial(addr, &helloMsg{clientID: id, fingerprint: fingerprint, rejoin: true, lastVersion: lastVersion}, opts)
}

// DialJoinWith enrolls a seatless client into a running federation (v5): it
// dials the server and sends a join hello — no client ID; the server
// assigns the seat — carrying the job fingerprint and value encoding. A
// server that admits seats (Server.Accept) replies with a seat-assignment
// hello followed by one Catchup positioning the joiner in the current task;
// both are returned, the Catchup detached from the link's decode scratch,
// with the assigned seat ID. A refusal — fingerprint or compression
// mismatch, cohort at -max-cohort capacity, a server not accepting joins —
// surfaces as the connection closing without a reply. After this handshake
// the transport is ready for the client's normal async lifecycle; a later
// drop rejoins the assigned seat with the ordinary v4 rejoin path.
func DialJoinWith(addr string, fingerprint uint64, opts WireOptions) (Transport, int, *Catchup, error) {
	t, err := dial(addr, &helloMsg{join: true, fingerprint: fingerprint}, opts)
	if err != nil {
		return nil, 0, nil, err
	}
	msg, err := t.Recv()
	if err != nil {
		t.Close()
		return nil, 0, nil, fmt.Errorf("fed: join refused (no seat assignment): %w", err)
	}
	assigned, ok := msg.(*helloMsg)
	if !ok || assigned.rejoin || assigned.join {
		t.Close()
		return nil, 0, nil, fmt.Errorf("fed: join got %T, want the seat-assignment hello", msg)
	}
	seat := assigned.clientID
	msg, err = t.Recv()
	if err != nil {
		t.Close()
		return nil, 0, nil, fmt.Errorf("fed: join catch-up for seat %d: %w", seat, err)
	}
	cu, ok := msg.(*Catchup)
	if !ok {
		t.Close()
		return nil, 0, nil, fmt.Errorf("fed: join got %T, want *Catchup", msg)
	}
	out := *cu
	out.Params = append([]float32(nil), cu.Params...)
	return t, seat, &out, nil
}

// admission is one validated membership handshake: a client that dialed
// mid-run, passed the fingerprint and value-encoding checks, and waits on link
// for the scheduler's reply. A rejoin claims seat — a dropped client coming
// back to the seat it held; a join claims none (seat is joinSeat) and is
// assigned the next free one. lastVersion is the client's last-installed
// global version, from its hello: the catch-up omits the payload when the
// server has nothing newer. The scheduler either seats the link (replying
// with the Catchup and splicing it into its reader set) or refuses by closing
// it.
type admission struct {
	seat        int
	lastVersion uint64
	link        Transport
}

// joinSeat is the seat a join hello claims: none.
const joinSeat = -1

// acceptor is the accept loop Server.Accept arms and Server.Run drives: it
// keeps accepting connections on the listener for the whole run, validates
// each rejoin or join hello (fingerprint, value encoding, a claimed seat
// below the server's MaxCohort) and hands the survivors to the scheduler on
// out. Refusals are counted and logged with their cause — an unknown seat, a
// fingerprint mismatch, and a compression mismatch are operationally very
// different failures and must be distinguishable from the server's logs.
type acceptor struct {
	ln          net.Listener
	fingerprint uint64
	opts        WireOptions
	seats       int // claimed seat IDs are bounded by this (MaxCohort)
	out         chan admission
	logf        func(string, ...any)
	// refused counts the handshakes refused here — malformed first frames,
	// unknown seats, fingerprint and compression mismatches; the scheduler's
	// own refusals (a live seat, a full cohort) are the seat book's.
	refused atomic.Int64

	loopDone chan struct{} // closed when the accept loop exits

	mu      sync.Mutex
	pending map[io.Closer]struct{} // connections mid-handshake
	stopped bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// start launches the accept loop.
func (g *acceptor) start() { go g.loop() }

// close shuts the acceptor down and reports the listener's close error: the
// listener closes, in-flight handshakes are severed, and any validated
// handshakes nobody consumed are closed so their clients' Recv fails fast
// instead of hanging.
func (g *acceptor) close() error {
	g.mu.Lock()
	g.stopped = true
	close(g.stop)
	for c := range g.pending {
		c.Close()
	}
	g.mu.Unlock()
	err := g.ln.Close()
	<-g.loopDone
	g.wg.Wait()
	for {
		select {
		case rq := <-g.out:
			rq.link.Close()
		default:
			return err
		}
	}
}

// refuse closes a handshake's transport, counts it, and logs the cause.
func (g *acceptor) refuse(t Transport, format string, args ...any) {
	t.Close()
	g.refused.Add(1)
	g.logf("fed: acceptor: refused "+format, args...)
}

// loop accepts connections until the listener closes, handing each to a
// handshake goroutine so one silent dialer cannot block later rejoins.
func (g *acceptor) loop() {
	defer close(g.loopDone)
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return
		}
		g.mu.Lock()
		if g.stopped {
			g.mu.Unlock()
			conn.Close()
			return
		}
		g.pending[conn] = struct{}{}
		g.wg.Add(1)
		g.mu.Unlock()
		go g.handshake(conn)
	}
}

// handshake validates one rejoin or join hello. Anything else — a malformed
// first frame, an out-of-range seat, a fingerprint or value-encoding
// mismatch — is refused by closing the connection (the client's retry loop
// handles it), counted, and logged with its distinct cause: "unknown seat"
// and "fingerprint mismatch" are different operational failures (a typo'd
// -client-id versus a process run with different knobs) and must not share
// a log line.
func (g *acceptor) handshake(conn net.Conn) {
	defer g.wg.Done()
	defer func() {
		g.mu.Lock()
		delete(g.pending, conn)
		g.mu.Unlock()
	}()
	t := NewWireWith(conn, g.opts)
	msg, err := t.Recv()
	if err != nil {
		g.refuse(t, "connection from %s: bad first frame: %v", conn.RemoteAddr(), err)
		return
	}
	hello, ok := msg.(*helloMsg)
	switch {
	case !ok:
		g.refuse(t, "connection from %s: sent %T before hello", conn.RemoteAddr(), msg)
		return
	case !hello.rejoin && !hello.join:
		g.refuse(t, "fresh hello for seat %d: the cohort is already running (use -reconnect to rejoin or -join to enroll)", hello.clientID)
		return
	case g.fingerprint != 0 && hello.fingerprint != g.fingerprint:
		g.refuse(t, "seat %d: fingerprint mismatch: client %#x, server %#x (different seed/flags?)",
			hello.clientID, hello.fingerprint, g.fingerprint)
		return
	case hello.quant != g.opts.Compression.Quant:
		g.refuse(t, "seat %d: %s compression, server uses %s (pass the same -compress to every process)",
			hello.clientID, hello.quant, g.opts.Compression.Quant)
		return
	case hello.rejoin && (hello.clientID < 0 || hello.clientID >= g.seats):
		g.refuse(t, "rejoin for unknown seat %d (seat IDs bounded by %d)", hello.clientID, g.seats)
		return
	}
	rq := admission{seat: hello.clientID, lastVersion: hello.lastVersion, link: t}
	if hello.join {
		rq.seat = joinSeat
	}
	select {
	case g.out <- rq:
	case <-g.stop:
		t.Close()
	}
}
