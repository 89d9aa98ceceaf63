package fed

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// RoundStats is the server-side accounting of one finished aggregation
// round, streamed to the RoundObserver. Under the synchronous scheduler a
// round is one full lockstep collection; under the asynchronous scheduler it
// is one global-model commit (K accepted updates).
type RoundStats struct {
	// TaskIdx is the task the round belongs to.
	TaskIdx int
	// Round is the round's ordinal within the task: the lockstep round
	// index, or the commit's sequence number under the asynchronous
	// scheduler.
	Round int
	// Participants is the number of updates aggregated into this round's
	// global model.
	Participants int
	// Version is the global model version after this round's commit.
	Version uint64
	// Stale is the number of updates rejected by the -max-staleness bound
	// since the previous commit (always 0 under the synchronous scheduler).
	Stale int
	// NonFinite is the number of updates rejected by ingest hardening
	// (NaN/Inf parameters or a non-finite weight) since the previous commit.
	NonFinite int
	// Evictions is the number of clients evicted since the previous commit.
	Evictions int
	// ComputeSeconds / CommSeconds are this round's simulated times (the
	// slowest participant bounds a synchronous round).
	ComputeSeconds float64
	CommSeconds    float64
	// UpBytes / DownBytes are this round's traffic across participants.
	UpBytes   int64
	DownBytes int64
}

// RoundObserver receives the run's progress as it happens, so CLIs,
// experiments and dashboards can stream results instead of waiting for the
// final Result. Callbacks run on the server goroutine; implementations
// should return quickly.
type RoundObserver interface {
	// RoundDone fires after every aggregation round.
	RoundDone(RoundStats)
	// TaskDone fires after every task with the same TaskPoint that is
	// appended to Result.PerTask.
	TaskDone(TaskPoint)
}

// ObserverFuncs adapts plain functions to RoundObserver; nil fields are
// no-ops.
type ObserverFuncs struct {
	Round func(RoundStats)
	Task  func(TaskPoint)
}

// RoundDone forwards to Round when set.
func (o ObserverFuncs) RoundDone(s RoundStats) {
	if o.Round != nil {
		o.Round(s)
	}
}

// TaskDone forwards to Task when set.
func (o ObserverFuncs) TaskDone(tp TaskPoint) {
	if o.Task != nil {
		o.Task(tp)
	}
}

// ServerConfig drives the round scheduler. Unlike Config it carries nothing
// about local training — the server never sees data, models or strategies,
// only parameter vectors and accounting, which is what lets one server drive
// loopback goroutines and remote TCP clients identically.
type ServerConfig struct {
	// Method identifies the training method in reports.
	Method string
	// NumClients is the federation size; 0 means len(links).
	NumClients int
	// MaxCohort caps the seat book under elastic membership: mid-run joins
	// (the v5 join hello) are admitted until the book holds MaxCohort seats
	// and refused — counted, logged — beyond it. 0 means NumClients (no
	// growth). Only the asynchronous scheduler consumes joins. It also bounds
	// the seat IDs a rejoin hello may claim at the acceptor (Accept).
	MaxCohort int
	// NumTasks is the continual-learning task count.
	NumTasks int
	// Rounds is the number of aggregation rounds per task (r). Under the
	// asynchronous scheduler it is the number of updates each client
	// uploads per task — the same total work, scheduled differently.
	Rounds int
	// Bandwidth is the simulated bytes/second of each client link.
	Bandwidth float64
	// DropoutProb is the per-round, per-client offline probability
	// (synchronous scheduler only; see Config.DropoutProb).
	DropoutProb float64
	// Seed drives the server's failure-injection RNG.
	Seed uint64
	// Scheduler selects the scheduling policy (SchedulerSync or
	// SchedulerAsync; empty means sync) — see Config.Scheduler.
	Scheduler string
	// SyncEvict lets the synchronous scheduler evict a client whose
	// transport fails instead of aborting the run — see Config.SyncEvict.
	SyncEvict bool
	// Async configures the asynchronous scheduler; ignored when Scheduler
	// is sync.
	Async AsyncConfig
	// Shards is the default aggregator's shard count when no explicit
	// Aggregator is passed to NewServer: SparseFedAvg folds over that many
	// index ranges concurrently (<= 1: the single loop). Bitwise-identical
	// results at every count — see Config.Shards.
	Shards int
	// Robust selects the aggregation rule when no explicit Aggregator is
	// passed to NewServer, as a ParseAggregator spec ("trimmed-mean:0.2",
	// "median", "krum:1", "fedopt:0.9:median"). Empty or "fedavg" keeps the
	// Shards-driven default. Part of the job fingerprint — every cohort
	// member must agree on the rule.
	Robust string
	// RejectNonFinite turns on ingest hardening: updates carrying NaN/Inf
	// parameters or a non-finite weight are rejected and counted
	// (RoundStats.NonFinite) instead of folded into the global. The CLI
	// defaults it on whenever a robust aggregator is selected.
	RejectNonFinite bool
	// Logf, when set, receives operational log lines (client evictions,
	// refused handshakes); nil uses the standard library logger. It never
	// receives results. Under Accept it is also called from the accept
	// loop's handshake goroutines, concurrently with the scheduler.
	Logf func(format string, args ...any)
}

// maxFiniteWeight bounds admissible update weights under ingest hardening:
// +Inf (and anything a comparison cannot place below the float64 maximum) is
// rejected the same way NaN parameters are.
const maxFiniteWeight = math.MaxFloat64

// updateMeta is the accounting a round keeps per participating update. The
// Update itself may alias transport decode buffers, so the scalars the
// server needs after aggregation are copied out here.
type updateMeta struct {
	clientID       int
	computeSeconds float64
	upBytes        int64
	downBytes      int64
}

// Server is the protocol's hub: it owns the seat book (one Transport and one
// ledger entry per client ID), the pluggable Aggregator, and the run-level
// books (simulated clock, traffic, accuracy matrix), and delegates round
// control flow to its Scheduler — the lockstep SyncScheduler by default, or
// the staleness-bounded AsyncScheduler.
type Server struct {
	cfg     ServerConfig
	stream  StreamAggregator
	sched   Scheduler
	book    *seatBook
	dropRNG *tensor.RNG
	obs     RoundObserver

	// admits carries validated rejoin and join handshakes to the scheduler:
	// the acceptor's output once Accept armed one (in-package tests inject
	// loopback requests on it directly), nil — never ready — otherwise.
	admits chan admission
	acc    *acceptor

	// snap, when set, receives a durable state cut at run start, write-ahead
	// of every commit broadcast, and at every task boundary (SetSnapshots;
	// async servers only).
	// resume, when set, is the cut this server was rebuilt from
	// (NewServerFromSnapshot) and positions Run's task loop.
	snap   SnapshotSink
	resume *checkpoint.ServerSnapshot

	// version is the global model's commit version, monotone over the run:
	// 0 is the shared initial model, and every commit (one per synchronous
	// round, one per K accepted asynchronous updates) increments it.
	version uint64

	simSeconds  float64
	commSeconds float64
	upBytes     int64
	downBytes   int64

	// nonFiniteTotal is the run's cumulative ingest-hardening rejections,
	// surfaced by Rejections and sliced into per-commit deltas for RoundStats.
	// (Staleness rejections live on the async scheduler, which persists them
	// across restarts; evictions and membership refusals on the seat book.)
	nonFiniteTotal int

	metas []updateMeta // per-round scratch

	// frame is the shared wire frame of the broadcast under way (see
	// GlobalModel): one buffer for the whole run, whatever the cohort size.
	frame sharedFrame
}

// NewServer builds a server over one transport per client. A nil aggregator
// selects the rule cfg.Robust names (ParseAggregator): by default
// SparseFedAvg — the streaming reducer that handles dense updates with
// WeightedFedAvg's exact arithmetic and sparse updates in O(active
// knowledge) — at cfg.Shards shards. Both schedulers drive the streaming
// shape, feeding each update to the aggregator as it is decoded; an
// Aggregator that only reduces whole rounds is wrapped in NewBuffered. The
// scheduling policy comes from cfg.Scheduler; NewServer panics on an unknown
// policy and on SchedulerAsync with DropoutProb > 0 (round-level dropout is a
// lockstep concept; asynchronous churn is modelled as eviction on transport
// failure).
func NewServer(cfg ServerConfig, agg Aggregator, links []Transport) *Server {
	if cfg.NumClients == 0 {
		cfg.NumClients = len(links)
	}
	if len(links) != cfg.NumClients {
		panic(fmt.Sprintf("fed: %d transports for %d clients", len(links), cfg.NumClients))
	}
	if cfg.MaxCohort == 0 {
		cfg.MaxCohort = cfg.NumClients
	}
	if cfg.MaxCohort < cfg.NumClients {
		panic(fmt.Sprintf("fed: MaxCohort %d below the initial cohort of %d", cfg.MaxCohort, cfg.NumClients))
	}
	if agg == nil {
		a, err := ParseAggregator(cfg.Robust, cfg.Shards)
		if err != nil {
			panic(err.Error())
		}
		agg = a
	}
	stream, ok := agg.(StreamAggregator)
	if !ok {
		stream = NewBuffered(agg)
	}
	s := &Server{
		cfg:     cfg,
		stream:  stream,
		book:    newSeatBook(links, cfg.MaxCohort),
		dropRNG: tensor.NewRNG(cfg.Seed ^ 0xD209),
	}
	switch cfg.Scheduler {
	case "", SchedulerSync:
		s.sched = &SyncScheduler{}
	case SchedulerAsync:
		if cfg.DropoutProb > 0 {
			panic("fed: the async scheduler does not support DropoutProb (churn is modelled as eviction on transport failure)")
		}
		s.sched = newAsyncScheduler(cfg)
	default:
		panic(fmt.Sprintf("fed: unknown scheduler %q (want %q or %q)", cfg.Scheduler, SchedulerSync, SchedulerAsync))
	}
	return s
}

// SetObserver installs the streaming hook; call before Run.
func (s *Server) SetObserver(o RoundObserver) { s.obs = o }

// Accept makes the server admit seats over ln for the rest of the run: Run
// accepts on it, validates each rejoin or join hello (the job fingerprint,
// opts' value encoding, a claimed seat ID below MaxCohort), and hands the
// survivors to the scheduler, which re-admits a dropped seat with a Catchup
// or opens the next free seat for a joiner. Refused handshakes are closed,
// counted and logged through ServerConfig.Logf with their cause. Call it
// before Run — after ServeWith has seated the founding cohort, or on a
// server restored by NewServerFromSnapshot, whose whole cohort rejoins. The
// server owns ln from here on: Accept only records it, Run starts the accept
// loop, and Run closes ln on every return path. Only the asynchronous
// scheduler re-admits and grows its cohort mid-run (lockstep has no splice
// point), so Accept on any other server is an error and leaves ln to the
// caller.
func (s *Server) Accept(ln net.Listener, fingerprint uint64, opts WireOptions) error {
	if _, ok := s.sched.(*AsyncScheduler); !ok {
		return fmt.Errorf("fed: the %s scheduler admits no seats mid-run (rejoin and join require the async scheduler)", s.sched.Name())
	}
	// One pending handshake per seat the book can hold: the whole cohort
	// redialing a restarted server queues without parking a goroutine each.
	s.admits = make(chan admission, s.cfg.MaxCohort)
	s.acc = &acceptor{
		ln: ln, fingerprint: fingerprint, opts: opts,
		seats: s.cfg.MaxCohort, out: s.admits, logf: s.logf,
		loopDone: make(chan struct{}),
		pending:  make(map[io.Closer]struct{}),
		stop:     make(chan struct{}),
	}
	return nil
}

// AliveClients reports how many clients have not been evicted.
func (s *Server) AliveClients() int { return s.book.alive() }

// Run executes the full task sequence and returns the result. Cancelling ctx
// aborts between protocol steps: the partial Result gathered so far is
// returned together with the context's error, and all transports are closed
// so client loops terminate. Run closes the transports — and the listener
// Accept handed it — on every path and must only be called once.
func (s *Server) Run(ctx context.Context) (*Result, error) {
	defer s.sched.Close()
	defer s.book.closeAll()
	if s.acc != nil {
		s.acc.start()
		defer s.acc.close()
	}
	res := &Result{Method: s.cfg.Method, Matrix: metrics.NewMatrix(s.cfg.NumTasks)}
	// The seat book is DeadAfter's one writer: the public report is rendered
	// from it on every return path.
	defer func() { res.DeadAfter = s.book.deadAfter() }()
	start := 0
	if s.resume != nil {
		start = s.resume.TaskIdx
		if err := restoreResult(res, s.resume); err != nil {
			return res, err
		}
		// Only the asynchronous scheduler restores: NewServerFromSnapshot
		// refuses every other policy.
		s.sched.(*AsyncScheduler).restoreSnapshot(s.resume)
	} else {
		// Genesis cut: version 0, empty books. It is what lets a server that
		// crashes before its first commit still restart into the rejoin path
		// instead of stranding a cohort of rejoin hellos against a fresh
		// handshake that expects fresh ones.
		s.snapshot(res, 0, true)
	}
	for taskIdx := start; taskIdx < s.cfg.NumTasks; taskIdx++ {
		if err := s.sched.RunTask(ctx, s, taskIdx, res); err != nil {
			return res, err
		}
		tp := TaskPoint{
			TaskIdx:        taskIdx,
			AvgAccuracy:    res.Matrix.AvgAccuracy(taskIdx),
			ForgettingRate: res.Matrix.ForgettingRate(taskIdx),
			SimHours:       s.simSeconds / 3600,
			CommHours:      s.commSeconds / 3600,
			UpBytes:        s.upBytes,
			DownBytes:      s.downBytes,
		}
		res.PerTask = append(res.PerTask, tp)
		if s.obs != nil {
			s.obs.TaskDone(tp)
		}
		// Boundary cut: the completed task's row and summary are in res, and
		// the next task's counters start from zero.
		s.snapshot(res, taskIdx+1, true)
	}
	return res, nil
}

// broadcast sends m to every alive seat that to admits (nil: all of them),
// in ascending ID, on the calling (scheduler) goroutine — the one per-seat
// send loop both schedulers share. A GlobalModel is armed with the server's
// shared frame for exactly the duration of the walk, so its wire links encode
// it once between them and a frame can never outlive — or be mistaken for —
// the commit it was built from. support is the commit's support as
// commitSupport captured it (nil for any other message): it rides on the
// frame, and is disarmed with it. The error policy is the caller's: lost
// receives each failed Send, and a non-nil return from it aborts the walk with
// that error; a nil lost drops the failure (the link's reader owns it). A
// link that fails leaves the frame intact for the seats after it.
func (s *Server) broadcast(m Msg, support []int32, to func(id int) bool, lost func(id int, err error) error) error {
	if gm, ok := m.(*GlobalModel); ok {
		s.frame.filled, s.frame.support = false, support
		gm.frame = &s.frame
		defer func() { gm.frame, s.frame.support = nil, nil }()
	}
	for id, st := range s.book.live() {
		if to != nil && !to(id) {
			continue
		}
		if err := st.link.Send(m); err != nil && lost != nil {
			if err := lost(id, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// commitSupport is the support of the vector the aggregator's FinishRound
// just returned, when the aggregator tracks one (supportedAggregator), and
// nil otherwise. Both schedulers read it right after FinishRound, before the
// next BeginRound can retire it.
func (s *Server) commitSupport() []int32 {
	if sa, ok := s.stream.(supportedAggregator); ok {
		return sa.support()
	}
	return nil
}

// evict removes a client whose transport failed (seatBook.evict) and logs
// it; the scheduler keeps driving the survivors.
func (s *Server) evict(taskIdx, id int, err error) {
	if s.book.evict(id, taskIdx) {
		s.logf("fed: %s: evicted client %d at task %d: %v", s.sched.Name(), id, taskIdx, err)
	}
}

// Rejections reports the run's cumulative rejected-input accounting: updates
// dropped by ingest hardening (non-finite parameters or weight), updates
// dropped by the async staleness bound, clients evicted on transport
// failure, and membership handshakes the scheduler refused (a rejoin for a
// live or unknown seat, a join beyond MaxCohort). The first three reach the
// RoundObserver as per-commit deltas (RoundStats.NonFinite, .Stale,
// .Evictions); this accessor is the run-level summary the adversarial matrix
// legs and churn tests assert on. Transport-level refusals — fingerprint or
// compression mismatches the acceptor closes before the scheduler ever sees
// a seat — are counted separately, by the acceptor Accept armed.
func (s *Server) Rejections() (nonFinite, stale, evicted, refused int) {
	if as, ok := s.sched.(*AsyncScheduler); ok {
		stale = as.staleTotal
	}
	return s.nonFiniteTotal, stale, s.book.evicted, s.book.refused
}

// DroppedWindowUploads reports how many buffered uploads a restart discarded
// because the aggregation rule buffers its commit window (trimmed-mean,
// median, Krum) and cannot export the open window into a snapshot: the cut
// carried only the window's accounting, so those uploads are lost to the
// model — not retrained, since the Seen counts already include them. Always
// 0 under the synchronous scheduler and under streaming (FedAvg-family)
// rules, whose open window restores exactly.
//
//lint:ignore fedlint/unused-exported the churn tests assert it as an invariant until ROADMAP 9's window journal
func (s *Server) DroppedWindowUploads() int {
	if as, ok := s.sched.(*AsyncScheduler); ok {
		return as.droppedWindow
	}
	return 0
}

// retire closes a seat on a clean Leave (seatBook.retire) and logs it. The
// seat's folded contributions stand; the commit weighting renormalizes over
// the remaining live set automatically (denominators are per-window).
func (s *Server) retire(taskIdx, id int) {
	if s.book.retire(id) {
		s.logf("fed: %s: seat %d retired at task %d (clean leave)", s.sched.Name(), id, taskIdx)
	}
}

// admitUpdate applies ingest hardening to one decoded update: when
// RejectNonFinite is on and the update carries NaN/Inf parameters or a
// non-finite or negative weight, it is rejected (counted, logged) instead of
// reaching the aggregator. Reports whether the update may be folded.
func (s *Server) admitUpdate(u *Update, taskIdx int) bool {
	if !s.cfg.RejectNonFinite {
		return true
	}
	ok := u.Weight == u.Weight && u.Weight >= 0 && u.Weight <= maxFiniteWeight
	if ok {
		switch {
		case u.Sparse != nil:
			ok = tensor.AllFinite(u.Sparse.Values)
		case u.paramsLE != nil:
			ok = allFiniteLE(u.paramsLE)
		default:
			ok = tensor.AllFinite(u.Params)
		}
	}
	if ok {
		return true
	}
	s.nonFiniteTotal++
	s.logf("fed: %s: rejected non-finite update from client %d at task %d", s.sched.Name(), u.ClientID, taskIdx)
	return false
}

// WireTraffic reports the measured bytes sent and received across every
// wire link the server has held, including connections retired when their
// client rejoined on a fresh one. Loopback links carry no measured traffic
// and count zero. Safe to call from any goroutine; mid-run totals are
// approximate (links may still be transferring).
func (s *Server) WireTraffic() (sent, recv int64) { return s.book.wireTraffic() }

// runErr reports a transport failure, preferring the context's error: when
// the run was cancelled, client endpoints close their transports and the
// resulting EOFs are an effect of the cancel, not a protocol failure.
func (s *Server) runErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

// handleRoundEnd applies one client's task report — the shared protocol
// enforcement both schedulers rely on: the claimed ID must match the link,
// a death report closes the seat, and a survivor's accuracy row must cover
// exactly the learned tasks before it lands in the seat book.
func (s *Server) handleRoundEnd(id int, re *RoundEnd, taskIdx int) error {
	if re.ClientID != id {
		return fmt.Errorf("fed: link %d sent round end claiming client %d", id, re.ClientID)
	}
	if !re.Dead && len(re.EvalAccs) != taskIdx+1 {
		return fmt.Errorf("fed: client %d reported %d accuracies after task %d", id, len(re.EvalAccs), taskIdx)
	}
	s.book.report(id, taskIdx, re.EvalAccs, re.Dead)
	return nil
}

// fillMatrixRow averages the rows the seat book collected into the accuracy
// matrix's row for taskIdx (the mean over clients that reported, per learned
// task).
func (s *Server) fillMatrixRow(taskIdx int, res *Result) {
	for p := 0; p <= taskIdx; p++ {
		if sum, n := s.book.accuracy(p); n > 0 {
			res.Matrix.Set(taskIdx, p, sum/float64(n))
		}
	}
}

// logf routes operational log lines to the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}
