package fed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/device"
)

// schedEvent is one message (or terminal transport error) delivered by a
// link's reader goroutine to the asynchronous scheduler's event loop. gen
// is the reader's link generation: a rejoin replaces a seat's link and
// bumps the generation, so stragglers from the dead link are recognised and
// dropped instead of being mistaken for the fresh one's traffic. ack is the
// reader's private hand-back channel (nil on terminal errors): the event
// loop signals it once the message — which may alias the link's decode
// scratch — has been fully consumed.
type schedEvent struct {
	id  int
	gen int
	msg Msg
	err error
	ack chan struct{}
}

// AsyncScheduler is the staleness-bounded buffered-asynchronous policy
// (FedBuff style). Clients train continuously against the latest committed
// global model — nobody waits for a straggler — and the server folds each
// arriving Update into the streaming aggregator the moment it is decoded,
// committing a new global version every CommitEvery (K) accepted updates
// and broadcasting it to every alive client. Each update is stamped with
// the global version it trained from (Update.BaseVersion); its staleness —
// committed version minus base version — scales its aggregation weight by
// 1/(1+staleness)^α, and updates staler than MaxStaleness are rejected
// outright (their traffic and device time still count; the client keeps
// training).
//
// What the policy deliberately relaxes, and what it keeps (see
// docs/ARCHITECTURE.md for the full contract):
//
//   - Relaxed: bitwise run-level reproducibility. Commits fold updates in
//     arrival order, and arrival order depends on real scheduling, so two
//     async runs of the same seed may differ — that is inherent to
//     asynchrony, not an implementation accident.
//   - Kept: version monotonicity (every commit increments the global
//     version exactly once), the staleness bound (no update older than
//     MaxStaleness is ever folded), ID-integrity (impersonated updates
//     abort), parameter-length agreement, and the aggregator's invariant
//     that an Update is only read for the duration of Accumulate.
//   - Kept: accounting equivalence at the boundary — with K = cohort size
//     and no stragglers, per-commit participant counts, traffic and the
//     simulated clock reproduce the synchronous scheduler's per-round
//     accounting.
//
// A dropped transport does not abort the run: the client is evicted, logged
// through ServerConfig.Logf, and the survivors keep scheduling. The seat is
// not discarded — the seat book retains its device clock and per-task upload
// progress — and when the server was given a rejoin source
// (Server.SetRejoins), a client that reconnects with a rejoin hello is
// re-admitted: the scheduler sends a Catchup (current task, uploads already
// received, the current versioned global) on the fresh link and splices it
// back into the reader set. See docs/ARCHITECTURE.md, "The seat book".
type AsyncScheduler struct {
	commitK  int
	maxStale int
	alpha    float64

	events  chan schedEvent // nil until start
	stop    chan struct{}
	readers sync.WaitGroup

	// finishing is the task's phase: false while the event loop collects
	// uploads, true once the task-final broadcast is out and it collects the
	// task reports — which decides what a seat (re)admitted now is told.
	finishing bool

	// global is the latest committed global model: the aggregator's
	// FinishRound result itself, which stays intact until the next commit's
	// FinishRound (StreamAggregator), or the restored snapshot's vector.
	// Every message that carries it is borrowed, so a loopback seat — the
	// one reader that can outlive the next commit — gets a detached copy.
	global []float32
	// msg is the commit broadcast, reused across commits: a by-value link
	// reads it only during Send.
	msg GlobalModel

	paramLen int // agreed parameter-vector length (0 until the first update)

	// current commit window
	buffered       int // accepted updates in the window
	staleCount     int // rejected-by-staleness updates in the window
	nonFiniteCount int // rejected-by-ingest-hardening updates in the window
	evictMark      int // the book's eviction count at the window's open, for the delta
	commitIdx      int // commit ordinal within the current task (0 between tasks)
	worstCompute   float64
	worstComm      float64
	windowUp       int64
	windowDown     int64

	staleTotal int // cumulative staleness rejections over the run

	// droppedWindow counts buffered uploads discarded at restart because a
	// buffered (robust) aggregator could not export its open commit window
	// into the snapshot — training lost to the model, surfaced loudly by
	// Server.DroppedWindowUploads so operators and tests see the cost.
	droppedWindow int

	// pendWindow is the restored cut the first RunTask after restoreSnapshot
	// resumes from: it keeps the restored counters (the book's Seen, commitIdx)
	// and reinstates the cut's open commit window before collecting uploads.
	pendWindow *checkpoint.ServerSnapshot
}

// newAsyncScheduler resolves the async knobs' defaults against the cohort
// size. CommitEvery 0 → half the cohort (minimum 1).
func newAsyncScheduler(cfg ServerConfig) *AsyncScheduler {
	k := cfg.Async.CommitEvery
	if k <= 0 {
		k = cfg.NumClients / 2
		if k < 1 {
			k = 1
		}
	}
	return &AsyncScheduler{
		commitK:  k,
		maxStale: cfg.Async.MaxStaleness,
		alpha:    cfg.Async.StalenessAlpha,
		stop:     make(chan struct{}),
	}
}

// Name identifies the scheduling policy.
func (*AsyncScheduler) Name() string { return SchedulerAsync }

// Close releases the reader goroutines and waits for them to exit, so no
// reader still touches a transport (e.g. WireTransport's byte counters)
// after the server's Run returns. Blocked readers — including superseded
// readers of links a rejoin replaced, which park on their private ack
// channel — unblock through the stop channel and through the server having
// closed every transport first.
func (a *AsyncScheduler) Close() {
	if a.events != nil {
		close(a.stop)
		a.readers.Wait()
	}
}

// start launches one reader goroutine per alive seat (a restored seat has
// only a placeholder link; its reader starts when the client rejoins). The
// event channel is sized for the cohort cap — every reader can park one
// delivery and one terminal error — so seat-book growth never needs to
// reallocate it.
func (a *AsyncScheduler) start(s *Server) {
	a.events = make(chan schedEvent, 2*s.cfg.MaxCohort+4)
	for id, st := range s.book.live() {
		a.startReader(id, st)
	}
}

// startReader launches the reader goroutine of seat id's link as st holds it
// (the initial set, and each joined or rejoined link — splicing a fresh link
// into the reader set is exactly this call). The reader delivers each received
// message to the shared event channel and then waits for the event loop's
// acknowledgement before the next Recv: a decoded message may alias the
// transport's reusable decode buffers, so the reader must not decode ahead
// while the event loop still reads the previous message. A terminal error is
// delivered without waiting. The reader carries the link's generation; after
// a rejoin bumps it, the event loop drops anything the old reader still had
// in flight and never acks it — the stale reader parks until Close.
func (a *AsyncScheduler) startReader(id int, st seat) {
	link, gen := st.link, st.gen // the reader keeps nothing else of the seat
	ack := make(chan struct{}, 1)
	a.readers.Add(1)
	go func() {
		defer a.readers.Done()
		for {
			m, err := link.Recv()
			ev := schedEvent{id: id, gen: gen, msg: m, err: err}
			if err == nil {
				ev.ack = ack
			}
			select {
			case a.events <- ev:
			case <-a.stop:
				return
			}
			if err != nil {
				return
			}
			select {
			case <-ack:
			case <-a.stop:
				return
			}
		}
	}()
}

// RunTask drives one task asynchronously: announce the task, fold uploads
// as they arrive (committing every K accepted), flush the residual buffer
// once every alive client has uploaded Rounds updates, broadcast the
// task-final global, and collect the RoundEnd reports.
func (a *AsyncScheduler) RunTask(ctx context.Context, s *Server, taskIdx int, res *Result) error {
	if a.events == nil {
		a.start(s)
	}
	// Resuming this task from a snapshot cut keeps the restored Seen counts —
	// clients owe only the uploads the cut had not seen.
	s.book.beginTask(a.pendWindow != nil)
	a.resetWindow()
	s.stream.BeginRound()
	if snap := a.pendWindow; snap != nil {
		// Reinstate the open commit window recorded at the restored cut: the
		// per-window accounting, and — when any update was folded — the
		// aggregator's partial accumulation, so the window completes from
		// where the crash interrupted it. The snapshot's Seen counts already
		// include these folded uploads, so rejoining clients resume after
		// them; the commit that closes the window is bitwise the commit the
		// uninterrupted run would have made.
		a.pendWindow = nil
		a.buffered = snap.WindowCount
		a.staleCount = snap.WindowStale
		a.worstCompute = snap.WindowWorstCompute
		a.worstComm = snap.WindowWorstComm
		a.windowUp = snap.WindowUp
		a.windowDown = snap.WindowDown
		if snap.WindowCount > 0 {
			if wa, ok := s.stream.(windowedAggregator); ok {
				wa.restoreWindow(snap.ParamLen, snap.WindowIdx, snap.WindowVals,
					snap.WindowDense, snap.WindowTotal, snap.WindowCount)
			} else {
				// A buffered (robust) aggregator cannot export its open window
				// as partial sums, so the cut carried only the window's
				// accounting: drop the mid-fill state and restart the window
				// empty. The discarded uploads are already in the Seen counts,
				// so they are lost to the model, not retrained — log it and
				// count it (Server.DroppedWindowUploads) so the loss is loud.
				a.droppedWindow += snap.WindowCount
				s.logf("fed: async: %s cannot restore an open commit window; dropping %d buffered uploads from the cut",
					s.stream.Name(), snap.WindowCount)
				a.resetWindow()
			}
		}
	}

	// Collect phase: one RoundStart per task — the client paces its own
	// Rounds uploads — then every alive seat owes Rounds uploads (a joiner
	// admitted now owes them from zero), and a restored task holds the door
	// open for every seat the cut recorded as alive until each has rejoined.
	a.finishing = false
	a.announce(s, taskIdx, &RoundStart{TaskIdx: taskIdx, Round: 0, Participate: true, TaskDone: true})
	if s.book.alive() == 0 && !s.book.expecting() {
		return fmt.Errorf("fed: async: all clients lost at task %d", taskIdx)
	}
	for !s.book.allUploaded(s.cfg.Rounds) || s.book.expecting() {
		if err := a.step(ctx, s, res, taskIdx); err != nil {
			return err
		}
	}

	// Flush the residual window so no accepted training is lost — also when
	// it holds only staleness rejections, so the observer's Stale counts
	// cover the task's tail (an empty flush bumps no version and broadcasts
	// nothing). Then close the task with the final broadcast every
	// surviving client blocks on.
	if a.buffered > 0 || a.staleCount > 0 || a.nonFiniteCount > 0 {
		a.commit(s, res, taskIdx)
	}
	a.msg = GlobalModel{Params: a.global, Version: s.version, TaskFinal: true, borrowed: true}
	a.announce(s, taskIdx, &a.msg)

	// Finish phase: every alive seat that has not reported owes a RoundEnd.
	a.finishing = true
	for s.book.owing() > 0 {
		if err := a.step(ctx, s, res, taskIdx); err != nil {
			return err
		}
	}
	s.fillMatrixRow(taskIdx, res)

	// Asynchronous clock model: the task is done when the slowest client's
	// own accumulated time is — not the sum of per-round maxima.
	s.simSeconds, s.commSeconds = s.book.slowest()
	a.commitIdx = 0
	return nil
}

// announce broadcasts one phase-opening message to every alive seat, evicting
// a seat whose link fails.
func (a *AsyncScheduler) announce(s *Server, taskIdx int, m Msg) {
	_ = s.broadcast(m, nil, nil, func(id int, err error) error {
		s.evict(taskIdx, id, err)
		return nil
	})
}

// step waits for one event — a rejoin or join handshake, a reader delivery,
// or cancellation — and applies it. Both phases share every membership move;
// they differ in the payload a seat owes (accept) and in that losing the last
// seat aborts only while uploads are still owed. An event of a stale link
// generation belongs to a link a rejoin replaced: it is dropped and never
// acked (the superseded reader parks until Close). A message from a seat that
// is no longer alive — racing an eviction triggered by a failed Send — is
// dropped but acked, so its reader runs on to the closed link's error.
func (a *AsyncScheduler) step(ctx context.Context, s *Server, res *Result, taskIdx int) error {
	var ev schedEvent
	select {
	case <-ctx.Done():
		return ctx.Err()
	case rq := <-s.rejoins: // nil, never ready, without a rejoin source
		a.readmit(s, taskIdx, rq)
		return nil
	case jq := <-s.joins:
		a.admitJoin(s, taskIdx, jq)
		return nil
	case ev = <-a.events:
	}
	st, _ := s.book.at(ev.id)
	if ev.gen != st.gen {
		return nil
	}
	if ev.err != nil {
		if st.alive {
			s.evict(taskIdx, ev.id, ev.err)
			if !a.finishing && s.book.alive() == 0 && !s.book.expecting() {
				return fmt.Errorf("fed: async: all clients lost at task %d", taskIdx)
			}
		}
		return nil
	}
	if st.alive {
		if err := a.accept(s, res, taskIdx, ev.id, ev.msg); err != nil {
			return err
		}
	}
	ev.ack <- struct{}{}
	return nil
}

// accept applies one message from an alive seat: a Leave in either phase,
// otherwise the payload the phase owes — an upload while collecting, the
// task report once the task-final broadcast is out.
func (a *AsyncScheduler) accept(s *Server, res *Result, taskIdx, id int, m Msg) error {
	switch m := m.(type) {
	case *Leave:
		if m.ClientID != id {
			return fmt.Errorf("fed: link %d sent leave claiming client %d", id, m.ClientID)
		}
		s.retire(taskIdx, id)
		return nil
	case *Update:
		if !a.finishing {
			return a.handleUpdate(s, res, taskIdx, id, m)
		}
	case *RoundEnd:
		if a.finishing {
			return s.handleRoundEnd(id, m, taskIdx)
		}
	}
	if a.finishing {
		return fmt.Errorf("fed: async: client %d sent %T, want *RoundEnd", id, m)
	}
	return fmt.Errorf("fed: async: client %d sent %T, want *Update", id, m)
}

// catchup builds the reply a (re)admitted seat resumes from: the current
// task, the uploads the book already holds, and the current versioned global
// when the client's last-seen version is behind — or when it still owes the
// task's report, which it evaluates on the task-final model.
func (a *AsyncScheduler) catchup(s *Server, taskIdx int, lastVersion uint64, r resume) *Catchup {
	cu := &Catchup{TaskIdx: taskIdx, Seen: r.seen, Version: s.version, TaskDone: r.done, TaskFinal: r.final, borrowed: true}
	if s.version > lastVersion || r.final {
		cu.Params = a.global
	}
	return cu
}

// readmit splices a rejoining client back into the run (seatBook.readmit):
// the fresh link first carries the Catchup, then joins the reader set. A
// refused rejoin or a failed reply closes the link; the client retries.
func (a *AsyncScheduler) readmit(s *Server, taskIdx int, rq RejoinRequest) {
	id := rq.ClientID
	err := s.book.readmit(id, rq.Link, a.finishing, func(_ int, r resume) error {
		return rq.Link.Send(a.catchup(s, taskIdx, rq.LastVersion, r))
	})
	switch {
	case err == nil:
		st, _ := s.book.at(id)
		a.startReader(id, st)
		s.logf("fed: async: client %d rejoined at task %d (catch-up v%d, %d/%d uploads in)",
			id, taskIdx, s.version, st.seen, s.cfg.Rounds)
		return
	case errors.Is(err, errSeatUnknown):
		s.logf("fed: async: refused rejoin for unknown client %d", id)
	case errors.Is(err, errSeatAlive):
		s.logf("fed: async: refused rejoin for client %d: seat is still alive", id)
	default:
		s.logf("fed: async: rejoin catch-up to client %d failed: %v", id, err)
	}
	rq.Link.Close()
}

// admitJoin grows the seat book for one validated join handshake (v5,
// seatBook.admit): the fresh link first carries the seat-assignment hello,
// then the Catchup. RoundStart is deliberately not replayed — the Catchup
// carries the task position, which is all the async client lifecycle needs.
// A join beyond MaxCohort or a failed reply closes the link.
func (a *AsyncScheduler) admitJoin(s *Server, taskIdx int, jq JoinRequest) {
	id, err := s.book.admit(jq.Link, a.finishing, func(id int, r resume) error {
		if err := jq.Link.Send(&helloMsg{clientID: id}); err != nil {
			return fmt.Errorf("seat assignment: %w", err)
		}
		return jq.Link.Send(a.catchup(s, taskIdx, jq.LastVersion, r))
	})
	switch {
	case err == nil:
		st, _ := s.book.at(id)
		a.startReader(id, st)
		s.logf("fed: async: admitted join as seat %d at task %d (cohort now %d/%d, catch-up v%d)",
			id, taskIdx, s.book.size(), s.cfg.MaxCohort, s.version)
		return
	case errors.Is(err, errBookFull):
		s.logf("fed: async: refused join: cohort is at capacity (%d seats, -max-cohort %d)", s.book.size(), s.cfg.MaxCohort)
	default:
		s.logf("fed: async: join handshake for seat %d failed: %v", id, err)
	}
	jq.Link.Close()
}

// handleUpdate accounts, staleness-checks and folds one upload. The update
// may alias the link's decode buffers: everything the scheduler keeps is
// copied out (or folded into aggregator scratch) before returning.
func (a *AsyncScheduler) handleUpdate(s *Server, res *Result, taskIdx, id int, u *Update) error {
	if u.ClientID != id {
		return fmt.Errorf("fed: link %d sent update claiming client %d", id, u.ClientID)
	}
	if !u.Participating {
		return fmt.Errorf("fed: async: client %d sent a non-participating update", id)
	}
	if u.BaseVersion > s.version {
		return fmt.Errorf("fed: async: client %d trained from version %d, server is at %d", id, u.BaseVersion, s.version)
	}
	if n := u.ParamLen(); a.paramLen == 0 {
		a.paramLen = n
	} else if n != a.paramLen {
		return fmt.Errorf("fed: client %d sent %d parameters, others sent %d", id, n, a.paramLen)
	}

	// The client did the work and the link carried the bytes whether or not
	// the update is folded, so clocks and traffic count unconditionally.
	comm := device.CommTime(u.UpBytes+u.DownBytes, s.cfg.Bandwidth)
	s.book.uploaded(id, u.ComputeSeconds, comm)
	if u.ComputeSeconds > a.worstCompute {
		a.worstCompute = u.ComputeSeconds
	}
	if comm > a.worstComm {
		a.worstComm = comm
	}
	a.windowUp += u.UpBytes
	a.windowDown += u.DownBytes
	s.upBytes += u.UpBytes
	s.downBytes += u.DownBytes

	// Ingest hardening runs before the staleness check: a garbage update is
	// rejected for being garbage. Like a staleness rejection, the books have
	// already advanced (Seen, clocks, traffic), so cut a snapshot.
	if !s.admitUpdate(u, taskIdx) {
		a.nonFiniteCount++
		s.snapshot(res, taskIdx, false)
		return nil
	}
	staleness := int(s.version - u.BaseVersion)
	if a.maxStale > 0 && staleness > a.maxStale {
		a.staleCount++
		a.staleTotal++
		// The rejection still advanced the books (Seen, clocks, traffic):
		// cut a snapshot so a crash does not ask the client to retrain an
		// upload the server already accounted.
		s.snapshot(res, taskIdx, false)
		return nil
	}
	w := u.Weight
	if w == 0 {
		w = 1
	}
	if a.alpha > 0 && staleness > 0 {
		w *= math.Pow(1/(1+float64(staleness)), a.alpha)
	}
	u.Weight = w
	s.stream.Accumulate(u)
	a.buffered++
	if a.buffered >= a.commitK {
		a.commit(s, res, taskIdx)
		return nil
	}
	// Mid-window cut: the fold is in aggregator scratch only, so persist the
	// open window (partial sums, counters, Seen) — a restart resumes the
	// window mid-fill instead of discarding up to K−1 folded uploads.
	s.snapshot(res, taskIdx, false)
	return nil
}

// commit closes the current window: finish the streaming reduction, bump
// the global version, keep the result — uncopied — as the committed global,
// durably snapshot the cut, broadcast it to every alive client, and report
// the commit to the observer. The snapshot is write-ahead of the broadcast
// — the cut is on disk before any client can learn the new version — which
// is what makes a crash at any instant recoverable: no client ever holds a
// global version the latest snapshot does not, so a restored server is
// never behind its own cohort (an update based on a version newer than the
// server's is a protocol abort). A window holding only staleness rejections
// (the task-closing flush) commits nothing — no version bump, no snapshot,
// no broadcast — but still reports a RoundStats with Participants 0 so
// Stale counts are never dropped.
func (a *AsyncScheduler) commit(s *Server, res *Result, taskIdx int) {
	round := a.commitIdx
	a.commitIdx++
	global, support := s.stream.FinishRound(), s.commitSupport()
	stats := RoundStats{
		TaskIdx: taskIdx, Round: round, Participants: a.buffered,
		Stale:          a.staleCount,
		NonFinite:      a.nonFiniteCount,
		Evictions:      s.book.evicted - a.evictMark,
		ComputeSeconds: a.worstCompute, CommSeconds: a.worstComm,
		UpBytes: a.windowUp, DownBytes: a.windowDown,
	}
	a.evictMark = s.book.evicted
	if global != nil {
		s.version++
		a.global = global
	}
	// The window's folds are now in a.global (or, for a stale-only flush,
	// there were none): clear the window and open the aggregator's next
	// round before the write-ahead cut, so the snapshot records the commit
	// with an empty open window — restoring it resumes after this commit,
	// not inside it.
	a.resetWindow()
	s.stream.BeginRound()
	if global != nil {
		s.snapshot(res, taskIdx, false)
		// A failed send is left to the reader's error event, which owns the
		// eviction.
		a.msg = GlobalModel{Params: a.global, Version: s.version, borrowed: true}
		_ = s.broadcast(&a.msg, support, nil, nil)
	}
	stats.Version = s.version
	if s.obs != nil {
		s.obs.RoundDone(stats)
	}
}

// fillSnapshot contributes the asynchronous policy's state to a durable
// cut (the per-seat half is seatBook.records): the committed global, the
// agreed parameter length, and — for a commit cut — the in-progress task's
// commit ordinal and the open commit window (its accounting plus the
// aggregator's raw partial accumulation, exported through
// windowedAggregator). A boundary cut leaves those zero: snap.TaskIdx already
// names the next task. The window slices alias aggregator scratch — the
// SnapshotSink contract requires the sink to serialise before returning.
func (a *AsyncScheduler) fillSnapshot(s *Server, snap *checkpoint.ServerSnapshot, boundary bool) {
	snap.Global = a.global
	snap.ParamLen = a.paramLen
	snap.StaleTotal = a.staleTotal
	if boundary {
		return
	}
	snap.CommitIdx = a.commitIdx
	snap.WindowCount = a.buffered
	snap.WindowStale = a.staleCount
	snap.WindowWorstCompute = a.worstCompute
	snap.WindowWorstComm = a.worstComm
	snap.WindowUp = a.windowUp
	snap.WindowDown = a.windowDown
	if a.buffered > 0 {
		if wa, ok := s.stream.(windowedAggregator); ok {
			snap.WindowIdx, snap.WindowVals, snap.WindowDense, snap.WindowTotal = wa.windowState()
		}
	}
}

// restoreSnapshot reconstructs the policy's state at a snapshot cut (the
// seats were restored by seatBook.restore): the committed global and its
// parameter length, the commit ordinal, and the open window the first
// RunTask reinstates. Called once from Server.Run, before the first RunTask.
func (a *AsyncScheduler) restoreSnapshot(snap *checkpoint.ServerSnapshot) {
	a.paramLen = snap.ParamLen
	if len(snap.Global) > 0 {
		a.global = append([]float32(nil), snap.Global...)
	}
	a.commitIdx = snap.CommitIdx
	a.staleTotal = snap.StaleTotal
	a.pendWindow = snap
}

// resetWindow clears the per-commit accounting.
func (a *AsyncScheduler) resetWindow() {
	a.buffered, a.staleCount, a.nonFiniteCount = 0, 0, 0
	a.worstCompute, a.worstComm = 0, 0
	a.windowUp, a.windowDown = 0, 0
}
