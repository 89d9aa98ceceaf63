package fed

import (
	"context"
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
// not discarded — its parameter length, device clock and per-task upload
// progress are retained — and when the server was given a rejoin source
// (Server.SetRejoins), a client that reconnects with a rejoin hello is
// re-admitted: the scheduler sends a Catchup (current task, uploads already
// received, the current versioned global) on the fresh link and splices it
// back into the reader set. See docs/ARCHITECTURE.md for the rejoin state
// machine and the seat-retention contract.
type AsyncScheduler struct {
	commitK  int
	maxStale int
	alpha    float64

	started bool
	events  chan schedEvent
	gens    []int // per-seat link generation, bumped by each rejoin
	rejoins <-chan RejoinRequest
	joins   <-chan JoinRequest
	stop    chan struct{}
	readers sync.WaitGroup

	// maxCohort caps the seat book under elastic membership; joins beyond it
	// are refused (ServerConfig.MaxCohort, resolved in NewServer).
	maxCohort int

	// Per-client simulated clocks: each client accumulates its own compute
	// and communication time instead of being bound by the round's slowest
	// participant — the asynchronous clock model. The run's SimHours is the
	// maximum over clients.
	clocks     []float64
	commClocks []float64

	// global is the latest committed global model. Every commit copies the
	// aggregator's scratch into a fresh buffer (a "versioned commit
	// buffer") before broadcasting: zero-copy loopback frames queued behind
	// a training client must never be mutated by a later commit, and the
	// aggregator's double buffering only protects one round of lag.
	global []float32

	paramLen int // agreed parameter-vector length (0 until the first update)

	// current commit window
	buffered       int // accepted updates in the window
	staleCount     int // rejected-by-staleness updates in the window
	nonFiniteCount int // rejected-by-ingest-hardening updates in the window
	evictMark      int // server evictTotal at the window's open, for the delta
	commitIdx      int // commit ordinal within the current task
	worstCompute   float64
	worstComm      float64
	windowUp       int64
	windowDown     int64

	updatesSeen []int // per-client uploads received this task

	staleTotal int // cumulative staleness rejections over the run

	// droppedWindow counts buffered uploads discarded at restart because a
	// buffered (robust) aggregator could not export its open commit window
	// into the snapshot — training lost to the model, surfaced loudly by
	// Server.DroppedWindowUploads so operators and tests see the cost.
	droppedWindow int

	// Restart recovery (restoreSnapshot). expect[i] marks a seat that was
	// alive at the snapshot cut and has not rejoined yet: the restored task
	// does not close — and an empty cohort is not "all clients lost" —
	// while any seat is still expected, because its client is out there
	// redialing with training state the books already count. resumed makes
	// the first RunTask keep the restored counters instead of zeroing them.
	expect  []bool
	resumed bool

	// stream is the server's streaming aggregator (captured in start):
	// fillSnapshot exports its open commit window through windowedAggregator
	// so a cut after every accepted upload carries the partial fold, not
	// just the last commit. pendWindow is the restored cut whose window the
	// first resumed RunTask reinstates before collecting uploads.
	stream     StreamAggregator
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
		commitK:   k,
		maxStale:  cfg.Async.MaxStaleness,
		alpha:     cfg.Async.StalenessAlpha,
		maxCohort: cfg.MaxCohort,
		stop:      make(chan struct{}),
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
	if a.started {
		close(a.stop)
		a.readers.Wait()
	}
}

// start launches one reader goroutine per link and captures the server's
// rejoin and join sources. The event channel is sized for the cohort cap so
// seat-book growth never needs to reallocate it.
func (a *AsyncScheduler) start(s *Server) {
	a.started = true
	a.stream = s.stream
	book := a.maxCohort
	if book < len(s.links) {
		book = len(s.links)
	}
	a.events = make(chan schedEvent, 2*book+4)
	a.gens = make([]int, len(s.links))
	a.rejoins = s.rejoins
	a.joins = s.joins
	a.clocks = make([]float64, len(s.links))
	a.commClocks = make([]float64, len(s.links))
	a.updatesSeen = make([]int, len(s.links))
	for i, t := range s.links {
		if !s.alive[i] {
			// A restored seat has no live link yet (deadLink placeholder);
			// its reader starts when the client rejoins.
			continue
		}
		a.startReader(i, t)
	}
}

// startReader launches the reader goroutine of one link (the initial set,
// and each rejoined replacement — splicing a fresh link into the reader set
// is exactly this call). The reader delivers each received message to the
// shared event channel and then waits for the event loop's acknowledgement
// before the next Recv: a decoded message may alias the transport's
// reusable decode buffers, so the reader must not decode ahead while the
// event loop still reads the previous message. A terminal error is
// delivered without waiting. The reader carries the seat's current link
// generation; after a rejoin bumps it, the event loop drops anything the
// old reader still had in flight and never acks it — the stale reader
// parks until Close.
func (a *AsyncScheduler) startReader(id int, t Transport) {
	a.gens[id]++
	gen := a.gens[id]
	ack := make(chan struct{}, 1)
	a.readers.Add(1)
	go func() {
		defer a.readers.Done()
		for {
			m, err := t.Recv()
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
	if !a.started {
		a.start(s)
	}
	if a.resumed {
		// Resuming this task from a snapshot cut: updatesSeen and commitIdx
		// were restored to the cut's values and must survive into the
		// collect phase — clients owe only the uploads the cut had not seen.
		a.resumed = false
	} else {
		for i := range a.updatesSeen {
			a.updatesSeen[i] = 0
		}
		a.commitIdx = 0
	}
	for i := range s.rows {
		s.rows[i] = nil
	}
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

	// One RoundStart per task: the client paces its own Rounds uploads.
	rs := &RoundStart{TaskIdx: taskIdx, Round: 0, Participate: true, TaskDone: true}
	for i, t := range s.links {
		if !s.alive[i] {
			continue
		}
		if err := t.Send(rs); err != nil {
			a.evict(s, res, taskIdx, i, err)
		}
	}
	if s.AliveClients() == 0 && !a.expecting() {
		return fmt.Errorf("fed: async: all clients lost at task %d", taskIdx)
	}

	// Collect phase: every alive client owes Rounds uploads — and a restored
	// task additionally holds the door open for every seat the snapshot cut
	// recorded as alive, until each has rejoined (or the context gives up).
	// The seat book is elastic here: a join admitted mid-collect owes the
	// task's full Rounds uploads from zero, a Leave retires its seat and the
	// remaining live set carries the task.
	for !a.allUploaded(s) || a.expecting() {
		ev, rq, jq, err := a.nextEvent(ctx)
		if err != nil {
			return err
		}
		if rq != nil {
			a.readmit(s, res, taskIdx, rq, nil, nil)
			continue
		}
		if jq != nil {
			a.admitJoin(s, taskIdx, jq, nil, nil)
			continue
		}
		if !a.current(s, ev) {
			continue
		}
		if ev.err != nil {
			a.evict(s, res, taskIdx, ev.id, ev.err)
			if s.AliveClients() == 0 && !a.expecting() {
				return fmt.Errorf("fed: async: all clients lost at task %d", taskIdx)
			}
			continue
		}
		if lv, ok := ev.msg.(*Leave); ok {
			if lv.ClientID != ev.id {
				return fmt.Errorf("fed: link %d sent leave claiming client %d", ev.id, lv.ClientID)
			}
			s.retire(taskIdx, ev.id)
			ev.ack <- struct{}{}
			continue
		}
		u, ok := ev.msg.(*Update)
		if !ok {
			return fmt.Errorf("fed: async: client %d sent %T, want *Update", ev.id, ev.msg)
		}
		if err := a.handleUpdate(s, res, taskIdx, ev.id, u); err != nil {
			return err
		}
		ev.ack <- struct{}{}
	}

	// Flush the residual window so no accepted training is lost — also when
	// it holds only staleness rejections, so the observer's Stale counts
	// cover the task's tail (an empty flush bumps no version and broadcasts
	// nothing). Then close the task with the final broadcast every
	// surviving client blocks on.
	if a.buffered > 0 || a.staleCount > 0 || a.nonFiniteCount > 0 {
		a.commit(s, res, taskIdx)
	}
	final := &GlobalModel{Params: a.global, Version: s.version, TaskFinal: true}
	for i, t := range s.links {
		if !s.alive[i] {
			continue
		}
		if err := t.Send(final); err != nil {
			a.evict(s, res, taskIdx, i, err)
		}
	}

	// Finish phase: gather RoundEnd reports from the survivors. reported
	// keeps the books straight when a connection drops after its client
	// already delivered RoundEnd: that client completed the task (its row
	// stands, pending already moved on), so the eviction must not
	// decrement pending a second time and cut the remaining survivors'
	// reports off.
	reported := make([]bool, len(s.links))
	pending := s.AliveClients()
	for pending > 0 {
		ev, rq, jq, err := a.nextEvent(ctx)
		if err != nil {
			return err
		}
		if rq != nil {
			a.readmit(s, res, taskIdx, rq, reported, &pending)
			continue
		}
		if jq != nil {
			// A finish-phase joiner never trained this task, so it owes no
			// RoundEnd: its catch-up says TaskDone (wait for the next task's
			// RoundStart) and its fresh reported slot is pre-marked so a
			// subsequent eviction does not decrement pending for it.
			a.admitJoin(s, taskIdx, jq, &reported, &pending)
			continue
		}
		if !a.current(s, ev) {
			continue
		}
		if ev.err != nil {
			a.evict(s, res, taskIdx, ev.id, ev.err)
			if !reported[ev.id] {
				pending--
			}
			continue
		}
		if lv, ok := ev.msg.(*Leave); ok {
			if lv.ClientID != ev.id {
				return fmt.Errorf("fed: link %d sent leave claiming client %d", ev.id, lv.ClientID)
			}
			s.retire(taskIdx, ev.id)
			if !reported[ev.id] {
				pending--
			}
			ev.ack <- struct{}{}
			continue
		}
		re, ok := ev.msg.(*RoundEnd)
		if !ok {
			return fmt.Errorf("fed: async: client %d sent %T, want *RoundEnd", ev.id, ev.msg)
		}
		if err := s.handleRoundEnd(ev.id, re, taskIdx, res); err != nil {
			return err
		}
		reported[ev.id] = true
		pending--
		ev.ack <- struct{}{}
	}
	s.fillMatrixRow(taskIdx, res)

	// Asynchronous clock model: the task is done when the slowest client's
	// own accumulated time is — not the sum of per-round maxima.
	s.simSeconds = maxOf(a.clocks)
	s.commSeconds = maxOf(a.commClocks)
	return nil
}

// nextEvent waits for the next reader delivery, rejoin handshake, join
// handshake, or cancellation. Exactly one of the returns is set; the rejoin
// and join channels are nil (never selected) when the server was given no
// such source.
func (a *AsyncScheduler) nextEvent(ctx context.Context) (schedEvent, *RejoinRequest, *JoinRequest, error) {
	select {
	case <-ctx.Done():
		return schedEvent{}, nil, nil, ctx.Err()
	case ev := <-a.events:
		return ev, nil, nil, nil
	case rq := <-a.rejoins:
		return schedEvent{}, &rq, nil, nil
	case jq := <-a.joins:
		return schedEvent{}, nil, &jq, nil
	}
}

// current filters one reader event against the seat's link generation and
// liveness. A stale-generation event belongs to a link a rejoin already
// replaced: it is dropped and never acked (the superseded reader parks
// until Close). A current-generation event from an evicted seat — a message
// racing an eviction triggered by a failed Send — is dropped but acked, so
// its reader runs on to the closed link's terminal error.
func (a *AsyncScheduler) current(s *Server, ev schedEvent) bool {
	if ev.gen != a.gens[ev.id] {
		return false
	}
	if !s.alive[ev.id] {
		if ev.err == nil {
			ev.ack <- struct{}{}
		}
		return false
	}
	return true
}

// readmit splices a rejoining client back into the run: the retained seat
// (parameter length, device clock, upload progress, accuracy rows) comes
// back alive on the fresh link, which first carries a Catchup telling the
// client where to resume — the current task, how many of its uploads the
// server already holds, and the current versioned global when the client's
// last-seen version is behind. reported/pending are non-nil during the
// finish phase, after the task-final broadcast: a seat that has not
// reported yet is told TaskFinal (install, evaluate, report — it owes a
// RoundEnd, so pending grows), one that already reported is told TaskDone
// (wait for the next task). A rejoin for a seat that is still alive is
// refused by closing the link — the client retries after the eviction
// lands.
func (a *AsyncScheduler) readmit(s *Server, res *Result, taskIdx int, rq *RejoinRequest, reported []bool, pending *int) {
	id := rq.ClientID
	if id < 0 || id >= len(s.links) {
		s.refusedTotal++
		s.logf("fed: async: refused rejoin for unknown client %d", id)
		rq.Link.Close()
		return
	}
	if s.alive[id] {
		s.refusedTotal++
		s.logf("fed: async: refused rejoin for client %d: seat is still alive", id)
		rq.Link.Close()
		return
	}
	cu := &Catchup{TaskIdx: taskIdx, Seen: a.updatesSeen[id], Version: s.version}
	if s.version > rq.LastVersion {
		cu.Params = a.global
	}
	if reported != nil {
		if reported[id] {
			cu.TaskDone = true
		} else {
			cu.TaskFinal = true
			cu.Params = a.global
		}
	}
	if err := rq.Link.Send(cu); err != nil {
		s.logf("fed: async: rejoin catch-up to client %d failed: %v", id, err)
		rq.Link.Close()
		return
	}
	s.trafficMu.Lock()
	if w, ok := s.links[id].(*WireTransport); ok {
		s.retiredSent += w.BytesSent()
		s.retiredRecv += w.BytesRecv()
	}
	s.links[id] = rq.Link
	s.trafficMu.Unlock()
	s.alive[id] = true
	s.left[id] = false // a retired seat rejoining reopens its books
	delete(res.DeadAfter, id)
	if reported != nil && !reported[id] {
		*pending++
	}
	if a.expect != nil {
		a.expect[id] = false
	}
	a.startReader(id, rq.Link)
	s.logf("fed: async: client %d rejoined at task %d (catch-up v%d, %d/%d uploads in)",
		id, taskIdx, s.version, a.updatesSeen[id], s.cfg.Rounds)
}

// admitJoin grows the seat book for one validated join handshake (v5). The
// new seat's ID is the next free index; the fresh link first carries the
// seat-assignment hello, then a phase-aware Catchup: during the collect
// phase the joiner starts the current task from zero uploads against the
// current committed global; during the finish phase (reported non-nil) it is
// told TaskDone — the task closed without it, wait for the next RoundStart.
// A join beyond MaxCohort is refused — counted in Server.Rejections, logged
// — by closing the link; a send failure during the reply likewise abandons
// the handshake before any book state is allocated, so the seat ID is not
// burned. Announce (RoundStart) is deliberately not replayed: the Catchup
// carries the task position, which is all the async client lifecycle needs.
func (a *AsyncScheduler) admitJoin(s *Server, taskIdx int, jq *JoinRequest, reported *[]bool, pending *int) {
	if len(s.links) >= a.maxCohort {
		s.refusedTotal++
		s.logf("fed: async: refused join: cohort is at capacity (%d seats, -max-cohort %d)", len(s.links), a.maxCohort)
		jq.Link.Close()
		return
	}
	id := len(s.links)
	if err := jq.Link.Send(&helloMsg{clientID: id}); err != nil {
		s.logf("fed: async: join seat assignment failed: %v", err)
		jq.Link.Close()
		return
	}
	cu := &Catchup{TaskIdx: taskIdx, Seen: 0, Version: s.version}
	if s.version > jq.LastVersion {
		cu.Params = a.global
	}
	if reported != nil {
		cu.TaskDone = true
	}
	if err := jq.Link.Send(cu); err != nil {
		s.logf("fed: async: join catch-up for seat %d failed: %v", id, err)
		jq.Link.Close()
		return
	}
	s.trafficMu.Lock()
	s.links = append(s.links, jq.Link)
	s.trafficMu.Unlock()
	s.alive = append(s.alive, true)
	s.offline = append(s.offline, false)
	s.left = append(s.left, false)
	s.rows = append(s.rows, nil)
	a.gens = append(a.gens, 0)
	a.clocks = append(a.clocks, 0)
	a.commClocks = append(a.commClocks, 0)
	a.updatesSeen = append(a.updatesSeen, 0)
	if a.expect != nil {
		a.expect = append(a.expect, false)
	}
	if reported != nil {
		*reported = append(*reported, true)
	}
	a.startReader(id, jq.Link)
	s.logf("fed: async: admitted join as seat %d at task %d (cohort now %d/%d, catch-up v%d)",
		id, taskIdx, len(s.links), a.maxCohort, s.version)
}

// expecting reports whether any snapshot-restored seat is still awaited:
// its client was alive at the cut and has not re-admitted itself yet.
func (a *AsyncScheduler) expecting() bool {
	for _, e := range a.expect {
		if e {
			return true
		}
	}
	return false
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
	a.updatesSeen[id]++

	// The client did the work and the link carried the bytes whether or not
	// the update is folded, so clocks and traffic count unconditionally.
	comm := device.CommTime(u.UpBytes+u.DownBytes, s.cfg.Bandwidth)
	a.clocks[id] += u.ComputeSeconds + comm
	a.commClocks[id] += comm
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
// the global version, copy the result into a fresh versioned buffer,
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
	global := s.stream.FinishRound()
	stats := RoundStats{
		TaskIdx: taskIdx, Round: round, Participants: a.buffered,
		Stale:          a.staleCount,
		NonFinite:      a.nonFiniteCount,
		Evictions:      s.evictTotal - a.evictMark,
		ComputeSeconds: a.worstCompute, CommSeconds: a.worstComm,
		UpBytes: a.windowUp, DownBytes: a.windowDown,
	}
	a.evictMark = s.evictTotal
	if global != nil {
		s.version++
		a.global = append([]float32(nil), global...)
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
		gm := &GlobalModel{Params: a.global, Version: s.version}
		for i, t := range s.links {
			if !s.alive[i] {
				continue
			}
			if err := t.Send(gm); err != nil {
				// Defer the eviction bookkeeping to the reader's error
				// event (it owns DeadAfter/logging); just stop sending.
				continue
			}
		}
	}
	stats.Version = s.version
	if s.obs != nil {
		s.obs.RoundDone(stats)
	}
}

// fillSnapshot contributes the asynchronous policy's state to a durable
// cut: the committed global, the agreed parameter length, the per-seat
// clocks, and — for a commit cut — the in-progress task's upload counts,
// commit ordinal, and the open commit window (its accounting plus the
// aggregator's raw partial accumulation, exported through
// windowedAggregator). A boundary cut zeroes those: snap.TaskIdx already
// names the next task, for which nothing has been seen yet. The window
// slices alias aggregator scratch — the SnapshotSink contract requires the
// sink to serialise before returning.
func (a *AsyncScheduler) fillSnapshot(snap *checkpoint.ServerSnapshot, boundary bool) {
	if !a.started {
		return
	}
	snap.Global = a.global
	snap.ParamLen = a.paramLen
	snap.StaleTotal = a.staleTotal
	for i := range snap.Seats {
		snap.Seats[i].SimSeconds = a.clocks[i]
		snap.Seats[i].CommSeconds = a.commClocks[i]
		if !boundary {
			snap.Seats[i].Seen = a.updatesSeen[i]
		}
	}
	if !boundary {
		snap.CommitIdx = a.commitIdx
		snap.WindowCount = a.buffered
		snap.WindowStale = a.staleCount
		snap.WindowWorstCompute = a.worstCompute
		snap.WindowWorstComm = a.worstComm
		snap.WindowUp = a.windowUp
		snap.WindowDown = a.windowDown
		if a.buffered > 0 {
			if wa, ok := a.stream.(windowedAggregator); ok {
				var total float64
				snap.WindowIdx, snap.WindowVals, snap.WindowDense, total = wa.windowState()
				snap.WindowTotal = total
			}
		}
	}
}

// restoreSnapshot reconstructs the policy's state at a snapshot cut: seat
// clocks and upload counts, the committed global and its parameter length,
// the commit ordinal, and the expectation that every seat alive at the cut
// will re-admit itself through the rejoin path before the restored task
// closes. Called once from Server.Run, before the first RunTask.
func (a *AsyncScheduler) restoreSnapshot(s *Server, snap *checkpoint.ServerSnapshot) {
	a.start(s)
	a.expect = make([]bool, len(s.links))
	for i, seat := range snap.Seats {
		a.clocks[i] = seat.SimSeconds
		a.commClocks[i] = seat.CommSeconds
		a.updatesSeen[i] = seat.Seen
		a.expect[i] = seat.Alive
		// A cleanly departed seat restores departed: not awaited, not dead.
		s.left[i] = seat.Left
	}
	a.paramLen = snap.ParamLen
	if len(snap.Global) > 0 {
		a.global = append([]float32(nil), snap.Global...)
	}
	a.commitIdx = snap.CommitIdx
	a.staleTotal = snap.StaleTotal
	a.pendWindow = snap
	a.resumed = true
}

// resetWindow clears the per-commit accounting.
func (a *AsyncScheduler) resetWindow() {
	a.buffered, a.staleCount, a.nonFiniteCount = 0, 0, 0
	a.worstCompute, a.worstComm = 0, 0
	a.windowUp, a.windowDown = 0, 0
}

// allUploaded reports whether every alive client has delivered its Rounds
// uploads for the current task.
func (a *AsyncScheduler) allUploaded(s *Server) bool {
	for i, n := range a.updatesSeen {
		if s.alive[i] && n < s.cfg.Rounds {
			return false
		}
	}
	return true
}

// evict delegates to the server's shared eviction path — a dropped TCP
// connection costs one seat, not the run, and the seat's retained state
// stays ready for a rejoin.
func (a *AsyncScheduler) evict(s *Server, res *Result, taskIdx, id int, err error) {
	s.evict(res, taskIdx, id, err)
}

// maxOf returns the maximum element (0 for an empty slice).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
