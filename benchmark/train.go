package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// trainSpec sizes one training workload. The dataset (MiniImageNet at CI
// scale), the model (ResNet18) and the learning-rate schedule are the
// product's own defaults for that family; only the protocol counts are the
// benchmark's.
type trainSpec struct {
	method string // "FedKNOW" or "FedAvg"
	wire   bool   // TCP on 127.0.0.1 instead of the loopback engine
	tasks  int    // 0 = every task of the family
	rounds int
	iters  int
	batch  int
}

// trainSpecs are the frozen sizes. On the reference box (one busy thread)
// one fedknow_train job takes ≈ 8 s and one fedavg_wire_train job ≈ 7 s.
var trainSpecs = map[string]trainSpec{
	wlFedKNOW: {method: "FedKNOW", tasks: 5, rounds: 3, iters: 2, batch: 8},
	wlFedAvg:  {method: "FedAvg", wire: true, tasks: 6, rounds: 5, iters: 8, batch: 8},
}

// smokeTrain shrinks a spec to toy size: two tasks, one round, one step.
func smokeTrain(s trainSpec) trainSpec {
	s.tasks, s.rounds, s.iters = 2, 1, 1
	return s
}

const trainArch = "ResNet18"

// fixedAlloc is data.CIAlloc pinned to the top of its ranges: every client
// task gets 3 classes and 80 % of each class's samples, whatever the seed.
// The seed still picks which classes and which samples, but no longer how
// many — with CIAlloc's 2–3 classes and 40–80 % a client task holds 8 to 24
// training samples, FedKNOW's fine-tune batches (min(16, n)) and every
// evaluation change size with it, and the work a job does moved by a fifth
// from seed to seed. A benchmark's inputs must vary, not its amount of work.
func fixedAlloc(seed uint64) data.AllocConfig {
	a := data.CIAlloc(seed)
	a.MinClasses, a.MinFrac = a.MaxClasses, a.MaxFrac
	return a
}

// roundClock is the RoundObserver of a train job: the gap between
// consecutive RoundDone events (the first from the run's start) is the round
// time a user sees, and TaskDone events are counted per task so "every task
// reported exactly once" can be checked.
//
// TaskDone fires when every client has reported the task and waits for the
// next one, so nothing of the program runs: that is where a metered job takes
// its calibration probe. The probe closes the meter's segment, and the round
// in progress continues in the next one with the probe skipped.
type roundClock struct {
	meter    *meter // nil outside a metered job
	last     time.Time
	cur      roundSample // the part of the round in progress that lies before a probe
	straddle bool        // cur is set
	rounds   []roundSample
	taskSeen []int
}

// RoundDone records one round gap.
func (c *roundClock) RoundDone(fed.RoundStats) {
	now := time.Now()
	ms := float64(now.Sub(c.last)) / 1e6
	r := roundSample{ms: ms}
	if c.straddle {
		r, c.straddle = c.cur, false
		r.ms2 = ms
	} else if c.meter != nil {
		r.seg = c.meter.seg()
	}
	c.rounds = append(c.rounds, r)
	c.last = now
}

// TaskDone counts one task report and, between two tasks of a metered job,
// takes the probe.
func (c *roundClock) TaskDone(tp fed.TaskPoint) {
	if tp.TaskIdx >= 0 && tp.TaskIdx < len(c.taskSeen) {
		c.taskSeen[tp.TaskIdx]++
	}
	if c.meter == nil || c.meter.cal == nil || tp.TaskIdx >= len(c.taskSeen)-1 {
		return
	}
	now := time.Now()
	c.cur, c.straddle = roundSample{ms: float64(now.Sub(c.last)) / 1e6, seg: c.meter.seg()}, true
	c.last = c.meter.split(now)
}

// trainJob is one federated training job, built by setup and run once.
type trainJob struct {
	spec   trainSpec
	cohort int
	seed   uint64

	cfg     fed.Config
	seqs    [][]data.ClientTask
	build   func(*tensor.RNG) *model.Model
	factory fed.Factory
	clock   *roundClock

	engine      *fed.Engine // untraced loopback jobs: the path fedknow-train runs
	server      *fed.Server // every other job is wired by hand so its seams can be decorated
	clients     []*fed.Client
	clientLinks []fed.Transport
	wires       []*fed.WireTransport // the server's real TCP links, for the byte counters

	res    *fed.Result
	runErr error
}

// newTrainJob generates the job's inputs from the seed and wires the
// federation; everything here is set-up time. tr is nil for an untraced job.
func newTrainJob(spec trainSpec, cohort int, seed uint64, tr *tracer) (*trainJob, error) {
	j := &trainJob{spec: spec, cohort: cohort, seed: seed}
	fam := data.MiniImageNet
	ds, tasks := fam.Build(data.CI, seed)
	if spec.tasks > 0 && spec.tasks < len(tasks) {
		tasks = tasks[:spec.tasks]
	}
	j.seqs = data.Federate(tasks, cohort, fixedAlloc(seed+1))
	rt := experiments.RuntimeFor(fam, data.CI)
	j.cfg = fed.Config{
		Method: spec.method, Rounds: spec.rounds, LocalIters: spec.iters,
		BatchSize: spec.batch, LR: rt.LR, LRDecay: rt.LRDecay,
		NumClasses: ds.NumClasses, Bandwidth: rt.Bandwidth, Seed: seed,
	}
	j.build = func(rng *tensor.RNG) *model.Model {
		return model.MustBuild(trainArch, ds.NumClasses, ds.C, ds.H, ds.W, rt.Width, rng)
	}
	j.factory = experiments.MethodFactory(spec.method, data.CI)
	j.clock = &roundClock{taskSeen: make([]int, len(tasks))}

	if !spec.wire && tr == nil {
		j.engine = fed.NewEngine(j.cfg, device.Jetson20(), j.seqs, j.build, j.factory)
		j.engine.SetObserver(j.clock)
		return j, nil
	}

	// Hand-wired federation: the same Server and Client the engine builds,
	// with the server's seams exposed.
	serverLinks := make([]fed.Transport, cohort)
	j.clientLinks = make([]fed.Transport, cohort)
	if spec.wire {
		if err := j.dialAll(serverLinks); err != nil {
			return nil, err
		}
	} else {
		for i := range serverLinks {
			serverLinks[i], j.clientLinks[i] = fed.Loopback()
		}
	}
	var agg fed.Aggregator // nil = the server's default rule
	factory := j.factory
	if tr != nil {
		tlinks := make([]*tracedLink, cohort)
		for i, l := range serverLinks {
			tlinks[i] = newTracedLink(l, tr)
			serverLinks[i] = tlinks[i]
		}
		agg = &tracedAggregator{inner: &fed.SparseFedAvg{}, tr: tr, links: tlinks}
		factory = traceFactory(j.factory, tr, tlinks)
	}
	cluster := device.Jetson20()
	j.clients = make([]*fed.Client, cohort)
	for i := range j.clients {
		j.clients[i] = fed.NewWireClient(j.cfg, i, cohort, cluster.Devices[i%cluster.Size()],
			j.seqs[i], j.build, factory)
	}
	j.server = fed.NewServer(j.cfg.ServerConfigFor(cohort, len(tasks)), agg, serverLinks)
	j.server.SetObserver(j.clock)
	return j, nil
}

// fingerprint is the job digest both ends of the handshake must agree on,
// built the way cmd/fedknow-train builds it.
func (j *trainJob) fingerprint() uint64 {
	return j.cfg.Fingerprint(data.MiniImageNet.Name, trainArch, data.CI.String(),
		fmt.Sprint(j.cohort), fmt.Sprint(len(j.seqs[0])), "1", fed.WireOptions{}.Compression.Quant.String())
}

// dialAll opens one TCP connection per client on 127.0.0.1 with the
// lossless codec and completes the handshakes.
func (j *trainJob) dialAll(serverLinks []fed.Transport) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	defer ln.Close()
	fp := j.fingerprint()
	dialErr := make(chan error, j.cohort)
	for i := 0; i < j.cohort; i++ {
		go func(i int) {
			t, err := fed.DialWith(ln.Addr().String(), i, fp, fed.WireOptions{})
			if err == nil {
				j.clientLinks[i] = t
			}
			dialErr <- err
		}(i)
	}
	links, err := fed.ServeWith(ln, j.cohort, fp, fed.WireOptions{})
	for i := 0; i < j.cohort; i++ {
		if derr := <-dialErr; derr != nil && err == nil {
			err = derr
		}
	}
	if err != nil {
		for _, t := range append(links, j.clientLinks...) {
			if t != nil {
				t.Close()
			}
		}
		return fmt.Errorf("wire handshake: %w", err)
	}
	copy(serverLinks, links)
	for _, l := range links {
		j.wires = append(j.wires, l.(*fed.WireTransport))
	}
	return nil
}

// run executes the job; the caller times it. A hand-wired job runs every
// client endpoint on its own goroutine and waits for all of them.
func (j *trainJob) run(ctx context.Context) (*fed.Result, error) {
	j.clock.last = time.Now()
	if j.engine != nil {
		return j.engine.RunContext(ctx)
	}
	var wg sync.WaitGroup
	cerrs := make([]error, len(j.clients))
	for i, c := range j.clients {
		wg.Add(1)
		go func(i int, c *fed.Client) {
			defer wg.Done()
			cerrs[i] = c.Run(ctx, j.clientLinks[i])
		}(i, c)
	}
	res, err := j.server.Run(ctx)
	wg.Wait()
	for i, cerr := range cerrs {
		if cerr != nil && err == nil {
			err = fmt.Errorf("client %d: %w", i, cerr)
		}
	}
	return res, err
}

// updates is the number of client uploads the job folds; steps the number of
// TrainStep calls. Both are fixed by the spec.
func (j *trainJob) updates() int { return len(j.seqs[0]) * j.spec.rounds * j.cohort }
func (j *trainJob) steps() int   { return j.updates() * j.spec.iters }

// wireBytes sums the server links' measured traffic (0 over loopback).
func (j *trainJob) wireBytes() int64 {
	var n int64
	for _, w := range j.wires {
		n += w.BytesSent() + w.BytesRecv()
	}
	return n
}

// check verifies one finished job and returns what it attempted and the
// failures it found: every task reported exactly once, the result complete
// with nobody evicted, every accuracy a ratio. It does not pin accuracy
// against chance: at this budget (ten local steps per task, six to nine test
// samples per client task) FedKNOW's accuracy sits within noise of chance on
// every seed, so such a pin would fail honest runs. That training works is
// checked where it can be — the pre-flight's fit to its own training samples
// — and that it is unchanged by the digest.
func (j *trainJob) check(res *fed.Result, err error) (attempted int, failures []string) {
	nt := len(j.seqs[0])
	attempted = nt + 2
	if err != nil {
		return attempted, []string{fmt.Sprintf("run failed: %v", err)}
	}
	for t, n := range j.clock.taskSeen {
		if n != 1 {
			failures = append(failures, fmt.Sprintf("task %d reported %d times", t, n))
		}
	}
	if len(res.PerTask) != nt || len(res.DeadAfter) != 0 || len(j.clock.rounds) != nt*j.spec.rounds {
		failures = append(failures, fmt.Sprintf("incomplete result: %d task points, %d evictions, %d rounds (want %d, 0, %d)",
			len(res.PerTask), len(res.DeadAfter), len(j.clock.rounds), nt, nt*j.spec.rounds))
		return attempted, failures
	}
	for _, row := range res.Matrix.Acc {
		for _, a := range row {
			if math.IsNaN(a) || a < 0 || a > 1 {
				failures = append(failures, fmt.Sprintf("accuracy %v is not a ratio", a))
			}
		}
	}
	return attempted, failures
}

// digest folds everything a run reports — every TaskPoint, the accuracy
// matrix, and (hand-wired jobs) every client's final parameters — into one
// number. Lockstep runs are bitwise reproducible, so equal seeds must give
// equal digests whatever the transport, parallelism or tracing.
func (j *trainJob) digest(res *fed.Result, withParams bool) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, tp := range res.PerTask {
		put(uint64(tp.TaskIdx))
		put(math.Float64bits(tp.AvgAccuracy))
		put(math.Float64bits(tp.ForgettingRate))
		put(math.Float64bits(tp.SimHours))
		put(math.Float64bits(tp.CommHours))
		put(uint64(tp.UpBytes))
		put(uint64(tp.DownBytes))
	}
	for _, row := range res.Matrix.Acc {
		for _, a := range row {
			put(math.Float64bits(a))
		}
	}
	if withParams {
		for _, c := range j.clients {
			for _, v := range nn.FlattenParams(c.Ctx().Model.Params()) {
				put(uint64(math.Float32bits(v)))
			}
		}
	}
	return h.Sum64()
}

// preflightFitMargin is the pinned margin by which the pre-flight's clients
// must fit their own training samples beyond chance. Observed: a fit of 1.00
// against a chance of 0.33–0.50 on every seed tried.
const preflightFitMargin = 0.25

// preflight runs one tiny FedAvg job twice — hand-wired over loopback and
// over TCP — and fails unless TaskPoints, accuracy matrix and every client's
// final parameters agree bit for bit: the transports must be interchangeable
// before a number measured over either means anything. It also checks that
// training trains: each client's final model must classify the last task's
// own training samples well beyond chance.
func preflight(cohort int, seed uint64) error {
	spec := trainSpec{method: "FedAvg", tasks: 2, rounds: 3, iters: 6, batch: 8}
	var digests [2]uint64
	for k, wire := range []bool{false, true} {
		spec.wire = wire
		// A throwaway tracer forces the hand-wired path over loopback, so both
		// sides expose their clients' parameters.
		var tr *tracer
		if !wire {
			tr = newTracer(false)
		}
		j, err := newTrainJob(spec, cohort, seed, tr)
		if err != nil {
			return fmt.Errorf("preflight: %w", err)
		}
		res, err := j.run(context.Background())
		if _, failures := j.check(res, err); len(failures) > 0 {
			return fmt.Errorf("preflight (wire=%v): %s", wire, failures[0])
		}
		digests[k] = j.digest(res, true)
		var fit, chance float64
		for i, c := range j.clients {
			ct := j.seqs[i][len(j.seqs[i])-1]
			own := data.ClientTask{Classes: ct.Classes, Test: ct.Train}
			fit += fed.EvalClientTask(c.Ctx().Model, own) / float64(cohort)
			chance += 1 / float64(len(ct.Classes)) / float64(cohort)
		}
		if fit < chance+preflightFitMargin {
			return fmt.Errorf("preflight (wire=%v): clients fit their own training samples at %.3f, chance is %.3f: training does not train", wire, fit, chance)
		}
	}
	if digests[0] != digests[1] {
		return fmt.Errorf("preflight: loopback digest %#x != TCP digest %#x for the same seed", digests[0], digests[1])
	}
	return nil
}

// busyWidth is how many clients can train at once.
func busyWidth(cohort int) int {
	if p := runtime.GOMAXPROCS(0); p < cohort {
		return p
	}
	return cohort
}

// execute is the timed region.
func (j *trainJob) execute(ctx context.Context, m *meter) {
	j.clock.meter = m
	j.res, j.runErr = j.run(ctx)
}

// sample checks the finished job.
func (j *trainJob) sample() jobSample {
	s := jobSample{updates: j.updates(), steps: j.steps(), rounds: j.clock.rounds, lockstep: true, wireBytes: j.wireBytes()}
	s.attempted, s.failures = j.check(j.res, j.runErr)
	if len(s.failures) == 0 {
		s.digest, s.hasDigest = j.digest(j.res, false), true
	}
	return s
}

// discard closes the links of a job that was set up but never run; a job
// that ran has closed them itself, and closing twice is harmless.
func (j *trainJob) discard() {
	for _, t := range j.clientLinks {
		if t != nil {
			t.Close()
		}
	}
	for _, w := range j.wires {
		w.Close()
	}
}
