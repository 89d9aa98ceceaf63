package fed

import (
	"context"
	"io"
)

// RunAsyncDelivered runs the client's asynchronous loop with msgs already
// delivered, in order, and the connection closed behind them: what the inbox
// holds when the server's sends outran the client. No pump goroutine runs,
// so which message the client finds queued at each step is fixed by msgs
// alone. Uploads and reports go to t.
func (c *Client) RunAsyncDelivered(t Transport, msgs ...Msg) error {
	in := &inbox{t: t, queue: msgs, err: io.EOF, avail: make(chan struct{}, 1)}
	return c.asyncLoop(context.Background(), t, in, nil)
}

// Encode writes one frame to w with the default (lossless) compression,
// without scratch reuse.
func Encode(w io.Writer, m Msg) error {
	return NewCodec(Compression{}).Encode(w, m)
}

// Decode reads one frame from r into freshly allocated buffers. io.EOF at a
// frame boundary means the peer closed cleanly; a truncated frame surfaces
// as io.ErrUnexpectedEOF.
func Decode(r io.Reader) (Msg, error) {
	return NewCodec(Compression{}).Decode(r)
}
