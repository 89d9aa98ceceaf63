package fed

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/device"
)

// Scheduler is the server's round-scheduling policy: it decides when clients
// train, when their updates are aggregated, and when the global model is
// committed and broadcast. The Server owns the books (simulated clock,
// traffic, accuracy matrix, evictions) and the seams below it (Aggregator,
// Transport); the scheduler owns the control flow between them.
//
// Contract (documented in full in docs/ARCHITECTURE.md):
//   - RunTask drives every aggregation round of one task over the server's
//     transports and must leave the server's accounting fields (simSeconds,
//     commSeconds, upBytes, downBytes) and the result's accuracy matrix row
//     for taskIdx up to date before returning.
//   - RunTask is called once per task, in ascending task order, from one
//     goroutine; a scheduler may keep state across tasks (the global model
//     version is monotone over the run).
//   - Cancelling ctx must abort the task; RunTask returns the context's
//     error and the server tears the transports down.
//   - Close releases scheduler-owned resources (reader goroutines); the
//     server calls it exactly once, after the transports are closed.
type Scheduler interface {
	// Name identifies the scheduling policy in reports.
	Name() string
	// RunTask drives every aggregation round of task taskIdx.
	RunTask(ctx context.Context, srv *Server, taskIdx int, res *Result) error
	// Close releases scheduler-owned resources after the run.
	Close()
}

// SyncScheduler is the lockstep policy — §III-A's synchronous federated
// round, and the protocol's default. Every round opens with a RoundStart to
// every alive client, collects every alive client's Update in ascending
// client ID (the order that makes floating-point aggregation reproducible),
// commits exactly one global model, and broadcasts it to the round's
// participants. A slow client therefore bounds the whole round — that is
// the latency price of its bitwise reproducibility across parallelism
// settings and transports.
//
// A transport failure aborts the run by default (fail-loudly: the
// reproducibility contract treats a lost client as a broken experiment).
// With ServerConfig.SyncEvict (-sync-evict) the failed client is evicted
// instead and the cohort keeps going — which relaxes reproducibility: the
// eviction changes the dropout RNG draw sequence and the aggregation
// cohort from that round on, so runs that lose different clients diverge
// (see docs/ARCHITECTURE.md). Protocol violations (impersonation,
// mismatched lengths, wrong message kinds) still abort either way.
//
// The lockstep policy takes no snapshots (Server.SetSnapshots refuses it):
// re-admitting a cohort after a restart requires the rejoin splice point
// only the asynchronous scheduler has.
type SyncScheduler struct{}

// Name identifies the scheduling policy.
func (*SyncScheduler) Name() string { return SchedulerSync }

// Close is a no-op: the lockstep policy owns no goroutines.
func (*SyncScheduler) Close() {}

// RunTask schedules the r aggregation rounds of one task.
func (sc *SyncScheduler) RunTask(ctx context.Context, s *Server, taskIdx int, res *Result) error {
	s.book.beginTask(false)
	for round := 0; round < s.cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		taskDone := round == s.cfg.Rounds-1
		// Failure injection: each client may drop out of this round. The
		// draw order (ascending client ID, no draw for dead clients) is part
		// of the reproducibility contract.
		s.book.drawOffline(s.cfg.DropoutProb, s.dropRNG)
		for i, st := range s.book.live() {
			rs := &RoundStart{TaskIdx: taskIdx, Round: round, Participate: !st.offline, TaskDone: taskDone}
			if err := st.link.Send(rs); err != nil {
				if err := sc.dropOrFail(ctx, s, taskIdx, i,
					fmt.Errorf("fed: round start to client %d: %w", i, err)); err != nil {
					return err
				}
			}
		}
		// Collect every alive client's update (dropped-out clients send an
		// empty acknowledgement). Ascending client ID keeps aggregation
		// order deterministic. The aggregator folds each update into the
		// global scratch the moment it is decoded — the server itself never
		// buffers per-client parameter vectors, so with the default rule its
		// hot path costs O(active knowledge) per update instead of holding
		// O(model × clients).
		s.metas = s.metas[:0]
		s.stream.BeginRound()
		firstLen := -1
		folded := 0
		nonFiniteMark, evictMark := s.nonFiniteTotal, s.book.evicted
		for i, st := range s.book.live() {
			msg, err := st.link.Recv()
			if err != nil {
				if err := sc.dropOrFail(ctx, s, taskIdx, i,
					fmt.Errorf("fed: update from client %d: %w", i, err)); err != nil {
					return err
				}
				continue
			}
			u, ok := msg.(*Update)
			if !ok {
				return fmt.Errorf("fed: client %d sent %T, want *Update", i, msg)
			}
			// The ID routes the GlobalModel broadcast, so a wire client must
			// not be able to impersonate (or index-out-of-range) another link.
			if u.ClientID != i {
				return fmt.Errorf("fed: link %d sent update claiming client %d", i, u.ClientID)
			}
			if u.Participating {
				// Mismatched vector lengths (a client with a different
				// model, slipping past the fingerprint check) must fail as
				// a protocol error, not panic inside the aggregator.
				if n := u.ParamLen(); firstLen < 0 {
					firstLen = n
				} else if n != firstLen {
					return fmt.Errorf("fed: client %d sent %d parameters, others sent %d",
						i, n, firstLen)
				}
				// Ingest hardening: a rejected update keeps its seat (the
				// client still receives the round's broadcast and its traffic
				// still counts) but never reaches the aggregator.
				if s.admitUpdate(u, taskIdx) {
					folded++
					s.stream.Accumulate(u)
				}
				s.metas = append(s.metas, updateMeta{
					clientID: i, computeSeconds: u.ComputeSeconds,
					upBytes: u.UpBytes, downBytes: u.DownBytes,
				})
			}
		}
		// Time accounting: synchronous rounds bound by the slowest client.
		var worstCompute, worstComm float64
		var roundUp, roundDown int64
		for _, m := range s.metas {
			if m.computeSeconds > worstCompute {
				worstCompute = m.computeSeconds
			}
			if t := device.CommTime(m.upBytes+m.downBytes, s.cfg.Bandwidth); t > worstComm {
				worstComm = t
			}
			roundUp += m.upBytes
			roundDown += m.downBytes
		}
		s.simSeconds += worstCompute + worstComm
		s.commSeconds += worstComm
		s.upBytes += roundUp
		s.downBytes += roundDown

		// Finish the reduction and broadcast to the round's participants.
		// The global slice may alias aggregator scratch; every participant
		// acknowledges (next Update or RoundEnd) before the next round
		// rewrites it, so sharing is safe even over the zero-copy loopback.
		global, support := s.stream.FinishRound(), s.commitSupport()
		if global == nil && len(s.metas) > 0 {
			// Every participating update was rejected: the participants are
			// blocked waiting for a broadcast that will never come, so fail
			// loudly instead of deadlocking the lockstep.
			return fmt.Errorf("fed: sync: every update of task %d round %d was rejected (%d non-finite)",
				taskIdx, round, s.nonFiniteTotal-nonFiniteMark)
		}
		if global != nil {
			s.version++
			err := s.broadcast(&GlobalModel{Params: global, Version: s.version}, support, s.participated,
				func(id int, err error) error {
					return sc.dropOrFail(ctx, s, taskIdx, id, fmt.Errorf("fed: global model to client %d: %w", id, err))
				})
			if err != nil {
				return err
			}
		}
		if s.obs != nil {
			s.obs.RoundDone(RoundStats{
				TaskIdx: taskIdx, Round: round, Participants: folded,
				Version:        s.version,
				NonFinite:      s.nonFiniteTotal - nonFiniteMark,
				Evictions:      s.book.evicted - evictMark,
				ComputeSeconds: worstCompute, CommSeconds: worstComm,
				UpBytes: roundUp, DownBytes: roundDown,
			})
		}
		if taskDone {
			if err := sc.collectRoundEnds(ctx, s, taskIdx, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// participated reports whether seat id's update is among those the round
// collected (s.metas, ascending by client ID) — the lockstep broadcast's
// audience.
func (s *Server) participated(id int) bool {
	_, ok := slices.BinarySearchFunc(s.metas, id, func(m updateMeta, id int) int { return m.clientID - id })
	return ok
}

// dropOrFail is the lockstep answer to a transport failure: abort the run
// with the error (the default — reproducibility treats a lost client as a
// broken experiment), or, with SyncEvict, evict the client and keep the
// cohort going — unless nobody is left, or the failure is really the
// context cancelling.
func (sc *SyncScheduler) dropOrFail(ctx context.Context, s *Server, taskIdx, id int, err error) error {
	if !s.cfg.SyncEvict || ctx.Err() != nil {
		return s.runErr(ctx, err)
	}
	s.evict(taskIdx, id, err)
	if s.book.alive() == 0 {
		return fmt.Errorf("fed: sync: all clients lost at task %d", taskIdx)
	}
	return nil
}

// collectRoundEnds gathers every alive client's task report: eviction flags
// first, then the accuracy-matrix row averaged over the survivors.
func (sc *SyncScheduler) collectRoundEnds(ctx context.Context, s *Server, taskIdx int, res *Result) error {
	for i, st := range s.book.live() {
		msg, err := st.link.Recv()
		if err != nil {
			if err := sc.dropOrFail(ctx, s, taskIdx, i,
				fmt.Errorf("fed: round end from client %d: %w", i, err)); err != nil {
				return err
			}
			continue
		}
		re, ok := msg.(*RoundEnd)
		if !ok {
			return fmt.Errorf("fed: client %d sent %T, want *RoundEnd", i, msg)
		}
		if err := s.handleRoundEnd(i, re, taskIdx); err != nil {
			return err
		}
	}
	s.fillMatrixRow(taskIdx, res)
	return nil
}
