package experiments

import (
	"testing"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
)

// runStragglerFederation runs FedAvg over a synthetic federation of clients
// devices, one of them straggler× slower than the rest, under the given
// scheduler (async commits every commitK accepted updates). It returns the
// number of committed global models and the simulated run time per commit —
// how long edge devices wait between fresh globals.
func runStragglerFederation(sched string, clients, commitK, rounds int, straggler float64, seed uint64) (commits int, secondsPerCommit float64) {
	ds := data.Generate(data.Config{Name: "straggler", NumClasses: 16,
		TrainPerClass: 12, TestPerClass: 4, C: 3, H: 12, W: 12, Noise: 0.3,
		Seed: seed})
	seqs := data.Federate(data.SplitTasks(ds, 1), clients, data.CIAlloc(seed+1))
	fast := device.Device{Name: "edge", FLOPS: 1e9, MemBytes: 1 << 40}
	devices := make([]device.Device, clients)
	for i := range devices {
		devices[i] = fast
	}
	devices[0].Name, devices[0].FLOPS = "straggler", fast.FLOPS/straggler
	cfg := fed.Config{
		Method: "FedAvg", Rounds: rounds, LocalIters: 1,
		BatchSize: 8, LR: 0.02, LRDecay: 1e-4, NumClasses: ds.NumClasses,
		Bandwidth: 1 << 20, Seed: seed, Scheduler: sched,
	}
	if sched == fed.SchedulerAsync {
		cfg.Async = fed.AsyncConfig{CommitEvery: commitK}
	}
	f := &Federation{ds: ds, rt: Runtime{Arch: "SixCNN", Width: 1},
		cluster: &device.Cluster{Devices: devices}, seqs: seqs}
	res := f.Run(cfg, MethodFactory("FedAvg", data.CI), fed.ObserverFuncs{Round: func(s fed.RoundStats) {
		// A zero-participant RoundStats is the async task-closing stale-tail
		// report, not a commit.
		if s.Participants > 0 {
			commits++
		}
	}})
	return commits, res.PerTask[len(res.PerTask)-1].SimHours * 3600 / float64(commits)
}

// TestAsyncBenchStragglerWin: under a 1-straggler-in-8 device distribution
// (one device 10× slower) the asynchronous scheduler must commit global
// models faster, in simulated time, than the synchronous one, because a
// lockstep round is bound by the slow device while the buffered commit loop
// keeps the fast cohort's pace.
func TestAsyncBenchStragglerWin(t *testing.T) {
	const clients, commitK, straggler, seed = 8, 4, 10, 3
	rounds := 4
	if testing.Short() {
		rounds = 3
	}
	syncCommits, syncPerCommit := runStragglerFederation(fed.SchedulerSync, clients, commitK, rounds, straggler, seed)
	asyncCommits, asyncPerCommit := runStragglerFederation(fed.SchedulerAsync, clients, commitK, rounds, straggler, seed)
	if syncCommits != rounds {
		t.Fatalf("sync made %d commits, want %d", syncCommits, rounds)
	}
	if asyncCommits <= syncCommits {
		t.Fatalf("async made %d commits vs sync %d: K=%d of %d clients must commit more often",
			asyncCommits, syncCommits, commitK, clients)
	}
	if syncPerCommit/asyncPerCommit <= 1 {
		t.Fatalf("async sim-time per commit (%.2fs) does not beat sync (%.2fs)", asyncPerCommit, syncPerCommit)
	}
}
