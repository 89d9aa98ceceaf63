package fed

import (
	"io"
	"slices"
	"sync"

	"repro/internal/tensor"
)

// Transport is one duplex message link between the server and a single
// client. The server holds one Transport per client; the client holds the
// peer end. Implementations must deliver messages in order, and must allow
// the two directions to be driven by different goroutines: one goroutine
// may Send while another Recvs (the asynchronous scheduler pumps the
// receive side on a dedicated reader goroutine while broadcasts go out).
// Each single direction is still used by one goroutine at a time, so
// implementations need not support concurrent Sends or concurrent Recvs.
//
// Recv returns io.EOF after the peer closes its end and all in-flight
// messages have been drained — that is the protocol's shutdown signal.
//
// How long a message stays valid rides on the message, not on the link: a
// message marked borrowed (the unexported flag on GlobalModel, Catchup,
// Update and RoundStart) is valid only until its lender's next write — the
// asynchronous scheduler lends its committed global, the asynchronous client
// its upload buffer, a WireTransport's Recv its pooled decode struct. Whoever
// keeps a message past that calls detached, the one place a message is
// copied: the loopback's Send, the client's inbox pump, and a client's rejoin
// or join handshake. An unborrowed message passes by reference. Since the
// mark travels with the message, a decorator that forwards Send and Recv
// changes nothing.
type Transport interface {
	Send(Msg) error
	Recv() (Msg, error)
	Close() error
}

// loopbackCap bounds in-flight messages per direction. The lockstep
// protocol never has more than two outstanding messages on a link
// (RoundStart followed by GlobalModel), so sends never block.
const loopbackCap = 4

// loopbackEnd is one side of an in-memory transport pair. Messages pass by
// reference — a lockstep Update's or GlobalModel's parameter slice is
// shared, not copied — which is what keeps the loopback engine's hot path
// allocation-free and bitwise identical to the old monolithic engine. A
// borrowed message is the one exception: the peer may read it after its
// lender rewrote it, so Send delivers a detached copy.
type loopbackEnd struct {
	send chan Msg
	recv chan Msg

	closeOnce  sync.Once
	closed     chan struct{} // this end closed
	peerClosed chan struct{} // other end closed
}

// Loopback returns a connected in-memory transport pair: the server end and
// the client end. The per-direction buffer fits the lockstep protocol; use
// LoopbackCap for schedulers that send without waiting.
func Loopback() (server, client Transport) {
	return LoopbackCap(loopbackCap)
}

// LoopbackCap is Loopback with an explicit per-direction buffer capacity.
// The asynchronous engine sizes its links Rounds+4, capped at 256: the
// client's inbox pump drains commits continuously, so a small buffer delays
// a commit-loop Send by at most one pump iteration.
func LoopbackCap(n int) (server, client Transport) {
	s2c := make(chan Msg, n)
	c2s := make(chan Msg, n)
	sClosed := make(chan struct{})
	cClosed := make(chan struct{})
	server = &loopbackEnd{send: s2c, recv: c2s, closed: sClosed, peerClosed: cClosed}
	client = &loopbackEnd{send: c2s, recv: s2c, closed: cClosed, peerClosed: sClosed}
	return server, client
}

// Send delivers m to the peer, failing if either end is closed.
func (l *loopbackEnd) Send(m Msg) error {
	select {
	case <-l.closed:
		return io.ErrClosedPipe
	case <-l.peerClosed:
		return io.ErrClosedPipe
	default:
	}
	select {
	case l.send <- detached(m):
		return nil
	case <-l.closed:
		return io.ErrClosedPipe
	case <-l.peerClosed:
		return io.ErrClosedPipe
	}
}

// Recv returns the next message. Buffered messages are drained before a
// peer close surfaces as io.EOF.
func (l *loopbackEnd) Recv() (Msg, error) {
	select {
	case m := <-l.recv:
		return m, nil
	default:
	}
	select {
	case m := <-l.recv:
		return m, nil
	case <-l.closed:
		return nil, io.ErrClosedPipe
	case <-l.peerClosed:
		select {
		case m := <-l.recv:
			return m, nil
		default:
			return nil, io.EOF
		}
	}
}

// Close shuts this end down; the peer's blocked and future Recvs return
// io.EOF once its buffer drains.
func (l *loopbackEnd) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

// detached returns m, or — when m is borrowed — a copy that owns its memory
// and outlives the lender. It is the package's one message copy. A broadcast
// is copied once: its loopback seats share the copy, which nothing mutates.
func detached(m Msg) Msg {
	switch v := m.(type) {
	case *GlobalModel:
		if v.borrowed {
			if v.owned == nil {
				v.owned = &GlobalModel{Params: slices.Clone(v.Params), Version: v.Version, TaskFinal: v.TaskFinal}
			}
			return v.owned
		}
	case *Catchup:
		if v.borrowed {
			cp := *v
			cp.Params, cp.borrowed = slices.Clone(v.Params), false
			return &cp
		}
	case *Update:
		if v.borrowed {
			cp := *v
			cp.Params, cp.borrowed = slices.Clone(v.Params), false
			if v.Sparse != nil {
				cp.Sparse = &tensor.SparseVec{N: v.Sparse.N,
					Indices: slices.Clone(v.Sparse.Indices), Values: slices.Clone(v.Sparse.Values)}
			}
			return &cp
		}
	case *RoundStart:
		if v.borrowed {
			cp := *v
			cp.borrowed = false
			return &cp
		}
	}
	return m
}
