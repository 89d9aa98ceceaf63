package fed

import "sync"

// inbox pumps a transport's receive direction on a dedicated goroutine into
// an unbounded queue, so GlobalModel broadcasts that arrive while the
// client is training are never lost and never block the server. It is the
// client-side half of asynchronous delivery: the loopback transport buffers
// in its channels, the wire transport needs this reader goroutine (a TCP
// peer that nobody Recvs eventually blocks the sender).
//
// The pump is the transport's only receiver once the inbox exists — mixing
// inbox and direct Recv calls on the same end would race. It keeps every
// message past the link's next Recv, so it queues each one detached: a
// borrowed message (a wire link's pooled decode) is copied, an owned one (a
// loopback delivery) is queued as it came.
type inbox struct {
	t Transport

	mu    sync.Mutex
	queue []Msg
	err   error
	avail chan struct{} // wake-up signal for a blocked recv (single consumer)
}

// newInbox starts the pump. The inbox drains until the transport's Recv
// fails (io.EOF on clean shutdown); closing the transport stops the pump.
func newInbox(t Transport) *inbox {
	b := &inbox{t: t, avail: make(chan struct{}, 1)}
	go b.pump()
	return b
}

// pump reads until the transport errors, queueing every message.
func (b *inbox) pump() {
	for {
		m, err := b.t.Recv()
		b.mu.Lock()
		if m != nil {
			b.queue = append(b.queue, detached(m))
		}
		if err != nil {
			b.err = err
		}
		b.mu.Unlock()
		select {
		case b.avail <- struct{}{}:
		default:
		}
		if err != nil {
			return
		}
	}
}

// recv returns the next queued message, blocking until one arrives. Once
// the queue is drained after a transport failure, the transport's error
// (io.EOF for a clean peer close) is returned.
func (b *inbox) recv() (Msg, error) {
	for {
		b.mu.Lock()
		if len(b.queue) > 0 {
			m := b.queue[0]
			b.queue = b.queue[1:]
			b.mu.Unlock()
			return m, nil
		}
		err := b.err
		b.mu.Unlock()
		if err != nil {
			return nil, err
		}
		<-b.avail
	}
}

// drainGlobals removes and returns the newest queued non-final GlobalModel
// (nil when none is pending) — the asynchronous client installs only the
// freshest committed global before each training round and skips the ones
// it outpaced. Non-GlobalModel messages and the task-final broadcast stay
// queued for recv.
func (b *inbox) drainGlobals() *GlobalModel {
	b.mu.Lock()
	defer b.mu.Unlock()
	var last *GlobalModel
	for len(b.queue) > 0 {
		gm, ok := b.queue[0].(*GlobalModel)
		if !ok || gm.TaskFinal {
			break
		}
		b.queue = b.queue[1:]
		last = gm
	}
	return last
}
