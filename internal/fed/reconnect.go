package fed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"

	"repro/internal/tensor"
)

// Default retry policy of Client.RunReconnect, used for zero Reconnect
// fields.
const (
	// DefaultReconnectAttempts bounds consecutive failed rejoin attempts
	// before the client gives up.
	DefaultReconnectAttempts = 8
	// DefaultReconnectBaseDelay is the backoff before the second attempt
	// (the first retries immediately); it doubles per attempt.
	DefaultReconnectBaseDelay = 100 * time.Millisecond
	// DefaultReconnectMaxDelay caps the exponential backoff.
	DefaultReconnectMaxDelay = 5 * time.Second
)

// Reconnect configures a client's wire retry loop (Client.RunReconnect):
// where to rejoin and how hard to try. The zero value of every policy field
// selects the documented default.
type Reconnect struct {
	// Addr is the server's TCP address, redialed on every attempt.
	Addr string
	// Fingerprint is the job fingerprint presented in every hello (fresh
	// and rejoin); see Config.Fingerprint.
	Fingerprint uint64
	// Wire are the link options (compression, per-message timeout) applied
	// to every connection.
	Wire WireOptions
	// Attempts caps consecutive failed rejoin attempts (a failed dial, or
	// a connection the server closed without a Catchup — a refusal). The
	// counter resets once a rejoin succeeds. 0 means
	// DefaultReconnectAttempts.
	Attempts int
	// BaseDelay is the backoff before the second attempt, doubling per
	// attempt; 0 means DefaultReconnectBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; 0 means DefaultReconnectMaxDelay.
	MaxDelay time.Duration
}

// RunReconnect is Run wrapped in the wire retry loop: dial, speak the round
// lifecycle, and — when the connection drops mid-run — rejoin with a
// catch-up handshake (DialRejoinWith, carrying this client's last-seen
// global version) under capped exponential backoff, resuming the task
// exactly where the server's Catchup says to, without losing any local
// training state. It requires the asynchronous scheduler (the server's
// rejoin path splices seats into the async reader set; lockstep has no
// mid-round splice point) and a server that admits seats (Server.Accept).
//
// Transient Send/Recv failures — connection resets, per-message -wire-
// timeout expiries against an idle-but-healthy peer, half-written frames —
// are retried; protocol violations and a refused handshake (fingerprint
// mismatch, attempts exhausted) are returned. A drop after the final task's
// report is treated as the clean shutdown it is indistinguishable from.
func (c *Client) RunReconnect(ctx context.Context, rc Reconnect) error {
	if c.cfg.Scheduler != SchedulerAsync {
		return fmt.Errorf("fed: client %d: reconnect requires the async scheduler (lockstep evicts or aborts; there is no rejoin splice point)", c.ctx.ID)
	}
	t, err := DialWith(rc.Addr, c.ctx.ID, rc.Fingerprint, rc.Wire)
	if err != nil {
		return err
	}
	return c.reconnectLoop(ctx, rc, c.Run(ctx, t))
}

// ResumeReconnect is RunReconnect for a client that already holds a live
// transport and a Catchup positioning it — the join flow: DialJoinWith
// enrolled the seat (the seat ID had to be known before the Client could be
// built), and the client continues the async lifecycle from the catch-up,
// rejoining the assigned seat through the ordinary rejoin handshake if the
// connection later drops.
func (c *Client) ResumeReconnect(ctx context.Context, rc Reconnect, t Transport, cu *Catchup) error {
	if c.cfg.Scheduler != SchedulerAsync {
		return fmt.Errorf("fed: client %d: reconnect requires the async scheduler (lockstep evicts or aborts; there is no rejoin splice point)", c.ctx.ID)
	}
	return c.reconnectLoop(ctx, rc, c.resume(ctx, t, cu))
}

// reconnectLoop is the shared retry loop of RunReconnect and
// ResumeReconnect: given the first session's outcome, keep rejoining and
// resuming until the task sequence finishes or the failure stops being
// retryable.
func (c *Client) reconnectLoop(ctx context.Context, rc Reconnect, err error) error {
	for {
		switch {
		case c.finished:
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case err != nil && !retryable(err):
			return err
		}
		// The run is unfinished and the link is gone (err is a transport
		// failure, or a clean-looking EOF mid-sequence — e.g. the server
		// evicted us on a per-message timeout): rejoin and resume.
		t, cu, rerr := c.rejoin(ctx, rc)
		if rerr != nil {
			return rerr
		}
		err = c.resume(ctx, t, cu)
	}
}

// rejoin redials with the catch-up handshake under capped exponential
// backoff and returns the fresh transport plus the server's Catchup,
// detached.
func (c *Client) rejoin(ctx context.Context, rc Reconnect) (Transport, *Catchup, error) {
	attempts := rc.Attempts
	if attempts <= 0 {
		attempts = DefaultReconnectAttempts
	}
	delay := rc.BaseDelay
	if delay <= 0 {
		delay = DefaultReconnectBaseDelay
	}
	maxDelay := rc.MaxDelay
	if maxDelay <= 0 {
		maxDelay = DefaultReconnectMaxDelay
	}
	// Jittered backoff: a server restart disconnects the whole cohort at the
	// same instant, and without jitter every client's exponential schedule
	// stays phase-locked — each retry wave slams the recovering listener at
	// once (thundering herd). The jitter RNG is seeded from the client ID so
	// the cohort decorrelates while every run of a test remains reproducible.
	rng := tensor.NewRNG(reconnectJitterSeed(c.ctx.ID))
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(jitterDelay(rng, delay)):
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
			if delay *= 2; delay > maxDelay {
				delay = maxDelay
			}
		}
		t, err := DialRejoinWith(rc.Addr, c.ctx.ID, rc.Fingerprint, c.baseVersion, rc.Wire)
		if err != nil {
			lastErr = err
			continue
		}
		msg, err := t.Recv()
		if err != nil {
			// A close without a Catchup is a refusal — most often the seat
			// is still alive because the server has not noticed the drop
			// yet; back off and retry.
			t.Close()
			lastErr = err
			continue
		}
		cu, ok := msg.(*Catchup)
		if !ok {
			t.Close()
			return nil, nil, fmt.Errorf("fed: client %d rejoin got %T, want *Catchup", c.ctx.ID, msg)
		}
		return t, detached(cu).(*Catchup), nil
	}
	return nil, nil, fmt.Errorf("fed: client %d gave up rejoining after %d attempts: %w", c.ctx.ID, attempts, lastErr)
}

// reconnectJitterSeed derives a client's deterministic jitter seed: distinct
// per client (decorrelating the herd) and stable across runs (keeping tests
// reproducible). The multiplier is the 64-bit golden-ratio constant, so
// adjacent IDs land far apart in seed space.
func reconnectJitterSeed(id int) uint64 {
	return uint64(id)*0x9E3779B97F4A7C15 + 0xFEDC0006
}

// jitterDelay applies full-jitter to one backoff step: a uniform draw from
// [d/2, d), preserving the exponential schedule's cap and order of
// magnitude while spreading a cohort's simultaneous retries across half the
// window.
func jitterDelay(rng *tensor.RNG, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(half))
}

// resume continues the asynchronous lifecycle on a rejoined transport,
// positioned by the catch-up.
func (c *Client) resume(ctx context.Context, t Transport, cu *Catchup) error {
	defer t.Close()
	stop := context.AfterFunc(ctx, func() { t.Close() })
	defer stop()
	return c.asyncLoop(ctx, t, newInbox(t), cu)
}

// retryable reports whether err is a connection-level failure a reconnect
// can heal — as opposed to a protocol violation, which no fresh connection
// fixes. io.EOF counts: a server that evicted this client (a -wire-timeout
// firing while it was healthy but idle, say) closes the link, which looks
// exactly like a clean shutdown; RunReconnect tells the two apart by
// whether the task sequence finished.
func retryable(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED)
}
