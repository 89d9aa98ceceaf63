package fed

import (
	"fmt"
	"io"

	"repro/internal/checkpoint"
)

// SnapshotSink receives the server's durable state cuts — the crash-only
// seam between internal/fed and internal/checkpoint. Save is called on the
// scheduler goroutine at run start (the genesis cut), write-ahead of every
// commit's broadcast (so no client can ever hold a global version newer
// than the latest snapshot), and at every task boundary. The snapshot's
// slices alias live server state and are only valid for the duration of
// the call: serialise or copy before returning. checkpoint.Store
// implements this interface.
type SnapshotSink interface {
	// Save durably persists one snapshot.
	Save(*checkpoint.ServerSnapshot) error
}

// SetSnapshots installs the durable snapshot sink; call before Run. A
// mid-run Save failure is logged loudly and the run continues — losing
// future restartability is better than aborting live training — so probe
// the sink's health at startup (checkpoint.OpenStore does).
func (s *Server) SetSnapshots(sink SnapshotSink) { s.snap = sink }

// snapshotFiller is implemented by schedulers that contribute their
// policy-owned state (the committed global, the open commit window) to a
// snapshot. boundary marks a task-boundary cut: the in-progress task's
// counters (Seen, CommitIdx) are zeroed because snap.TaskIdx already names
// the next task.
type snapshotFiller interface {
	fillSnapshot(s *Server, snap *checkpoint.ServerSnapshot, boundary bool)
}

// windowedAggregator is implemented by streaming aggregators whose open
// round can be captured into a snapshot and reinstated after a restart —
// what lets the asynchronous scheduler cut a snapshot after every accepted
// upload and resume the commit window mid-fill instead of discarding up to
// CommitEvery−1 folded updates. SparseFedAvg implements it, at every shard
// count.
type windowedAggregator interface {
	// windowState exports the open round's raw (unscaled) partial
	// accumulation: the whole scratch vector (idx nil, dense true) or the
	// ascending touched-coordinate union and its partial sums. The returned
	// slices alias aggregator scratch and are only valid until the next
	// Accumulate — snapshot serialisation copies them before returning.
	windowState() (idx []int32, vals []float32, dense bool, total float64)
	// restoreWindow reinstates a captured partial accumulation into a
	// freshly begun round of an n-parameter model, so subsequent
	// Accumulates stack on top exactly as they would have on the
	// uninterrupted originals (bitwise).
	restoreWindow(n int, idx []int32, vals []float32, dense bool, total float64, count int)
}

// snapshot builds and persists one durable cut. resumeTask is the task a
// restarted server should resume at: the in-progress task for a commit cut,
// the next task for a boundary cut.
func (s *Server) snapshot(res *Result, resumeTask int, boundary bool) {
	if s.snap == nil {
		return
	}
	wireSent, wireRecv := s.WireTraffic()
	snap := &checkpoint.ServerSnapshot{
		Version:     s.version,
		TaskIdx:     resumeTask,
		SimSeconds:  s.simSeconds,
		CommSeconds: s.commSeconds,
		UpBytes:     s.upBytes,
		DownBytes:   s.downBytes,
		WireSent:    wireSent,
		WireRecv:    wireRecv,
		Seats:       s.book.records(boundary),
	}
	for _, tp := range res.PerTask {
		snap.Tasks = append(snap.Tasks, checkpoint.TaskRecord{
			TaskIdx:        tp.TaskIdx,
			AvgAccuracy:    tp.AvgAccuracy,
			ForgettingRate: tp.ForgettingRate,
			SimHours:       tp.SimHours,
			CommHours:      tp.CommHours,
			UpBytes:        tp.UpBytes,
			DownBytes:      tp.DownBytes,
		})
	}
	for i := 0; i < len(res.PerTask) && i < len(res.Matrix.Acc); i++ {
		snap.Matrix = append(snap.Matrix, res.Matrix.Acc[i])
	}
	if f, ok := s.sched.(snapshotFiller); ok {
		f.fillSnapshot(s, snap, boundary)
	}
	if err := s.snap.Save(snap); err != nil {
		s.logf("fed: SNAPSHOT SAVE FAILED at task %d version %d — a crash from here loses progress back to the previous snapshot: %v",
			resumeTask, s.version, err)
	}
}

// deadLink is the placeholder transport of a seat restored from a snapshot:
// the client is expected to redial through the rejoin path, so until it
// does the seat has no connection. Send and Recv fail like a closed pipe;
// Close is a no-op, keeping the server's unconditional teardown paths safe.
type deadLink struct{}

// Send fails: a restored seat has no connection until its client rejoins.
func (deadLink) Send(Msg) error { return io.ErrClosedPipe }

// Recv fails: a restored seat has no connection until its client rejoins.
func (deadLink) Recv() (Msg, error) { return nil, io.ErrClosedPipe }

// Close is a no-op.
func (deadLink) Close() error { return nil }

// NewServerFromSnapshot rebuilds a server from a durable snapshot cut — the
// restart half of the crash-only design. Every seat starts evicted behind a
// dead placeholder link; the restored scheduler waits for each seat that
// was alive at the cut to re-admit itself through the rejoin path
// (Server.SetRejoins, normally fed to AcceptRejoins' channel), replaying a
// phase-aware Catchup built from the snapshot's authoritative Seen counts.
// Requires the asynchronous scheduler: lockstep has no rejoin splice point,
// so restoring a sync run is refused with an error rather than silently
// hanging. The caller re-installs sinks and observers (SetSnapshots,
// SetObserver) before Run.
func NewServerFromSnapshot(cfg ServerConfig, agg Aggregator, snap *checkpoint.ServerSnapshot) (*Server, error) {
	if cfg.Scheduler != SchedulerAsync {
		return nil, fmt.Errorf("fed: restart recovery requires the async scheduler (lockstep has no rejoin splice point to re-admit the cohort through)")
	}
	if len(snap.Seats) < cfg.NumClients {
		// Fewer seats than the configured initial cohort means the snapshot
		// belongs to a different (smaller) run. More seats is legitimate:
		// elastic membership grew the book past the initial cohort, and the
		// restored server must carry every seat it admitted.
		return nil, fmt.Errorf("fed: snapshot holds %d seats, config says %d clients", len(snap.Seats), cfg.NumClients)
	}
	if cfg.MaxCohort != 0 && cfg.MaxCohort < len(snap.Seats) {
		return nil, fmt.Errorf("fed: snapshot holds %d seats, above -max-cohort %d", len(snap.Seats), cfg.MaxCohort)
	}
	cfg.NumClients = len(snap.Seats)
	if snap.TaskIdx > cfg.NumTasks {
		return nil, fmt.Errorf("fed: snapshot resumes at task %d of a %d-task run", snap.TaskIdx, cfg.NumTasks)
	}
	if snap.Version > 0 && len(snap.Global) == 0 {
		return nil, fmt.Errorf("fed: snapshot at version %d carries no global model", snap.Version)
	}
	if len(snap.Tasks) != snap.TaskIdx && len(snap.Tasks) != snap.TaskIdx+1 {
		// A commit cut mid-task T has T completed tasks; resuming at T. A
		// boundary cut after task T has T+1 completed tasks; resuming at T+1.
		return nil, fmt.Errorf("fed: snapshot resumes at task %d but records %d completed tasks", snap.TaskIdx, len(snap.Tasks))
	}
	if snap.WindowCount > 0 {
		if snap.WindowDense {
			if len(snap.WindowIdx) != 0 || len(snap.WindowVals) != snap.ParamLen {
				return nil, fmt.Errorf("fed: snapshot's dense open window carries %d indices and %d values for %d parameters",
					len(snap.WindowIdx), len(snap.WindowVals), snap.ParamLen)
			}
		} else {
			if len(snap.WindowIdx) != len(snap.WindowVals) {
				return nil, fmt.Errorf("fed: snapshot's open window carries %d indices but %d values",
					len(snap.WindowIdx), len(snap.WindowVals))
			}
			prev := int32(-1)
			for _, j := range snap.WindowIdx {
				if j <= prev || int(j) >= snap.ParamLen {
					return nil, fmt.Errorf("fed: snapshot's open-window indices are not ascending in-range coordinates (index %d after %d, %d parameters)",
						j, prev, snap.ParamLen)
				}
				prev = j
			}
		}
	}
	links := make([]Transport, cfg.NumClients)
	for i := range links {
		links[i] = deadLink{}
	}
	s := NewServer(cfg, agg, links)
	s.book.restore(snap)
	s.version = snap.Version
	s.simSeconds = snap.SimSeconds
	s.commSeconds = snap.CommSeconds
	s.upBytes = snap.UpBytes
	s.downBytes = snap.DownBytes
	s.resume = snap
	return s, nil
}

// restoreResult pre-populates a fresh Result with the snapshot's completed
// tasks: the per-task summary points and the completed accuracy-matrix rows
// (the recorded deaths come back through the seat book).
func restoreResult(res *Result, snap *checkpoint.ServerSnapshot) error {
	for _, t := range snap.Tasks {
		res.PerTask = append(res.PerTask, TaskPoint{
			TaskIdx:        t.TaskIdx,
			AvgAccuracy:    t.AvgAccuracy,
			ForgettingRate: t.ForgettingRate,
			SimHours:       t.SimHours,
			CommHours:      t.CommHours,
			UpBytes:        t.UpBytes,
			DownBytes:      t.DownBytes,
		})
	}
	for i, row := range snap.Matrix {
		if i >= len(res.Matrix.Acc) || len(row) != i+1 {
			return fmt.Errorf("fed: snapshot matrix row %d has %d entries, want %d", i, len(row), i+1)
		}
		copy(res.Matrix.Acc[i], row)
	}
	return nil
}
