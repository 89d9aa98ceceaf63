package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fed"
	"repro/internal/tensor"
)

// ingestSpec sizes one ingest workload: no training, only the server's
// decode → admit → fold → snapshot → commit → broadcast path under C scripted
// closed-loop peers. K = C, so every commit waits for one upload from each.
type ingestSpec struct {
	sparse  bool    // sparse updates of the given density, else dense f32
	durable bool    // checkpoint.Store snapshot sink, else none
	sharded bool    // Shards = cohort (ShardedFedAvg), else the single loop
	n       int     // parameter-vector length
	density float64 // share of coordinates a sparse update stores
	uploads int     // uploads per peer per job
}

// ingestSpecs are the frozen sizes: on the reference box (one busy thread,
// cohort 2, ext4) a job takes about a second, so that a calibration probe is
// never further than that from what it vouches for.
var ingestSpecs = map[string]ingestSpec{
	wlSparse:  {sparse: true, n: 1 << 18, density: 0.10, uploads: 150},
	wlDurable: {sparse: true, durable: true, n: 1 << 18, density: 0.10, uploads: 150},
	wlDense:   {sharded: true, n: 1 << 18, uploads: 200},
}

// smokeIngest shrinks a spec to toy size.
func smokeIngest(s ingestSpec) ingestSpec {
	s.n, s.uploads = 1<<10, 5
	return s
}

// arrival is one server→peer frame as the peer's reader saw it.
type arrival struct {
	version uint64
	at      time.Time
	final   bool
	err     error
}

// peer is one scripted wire client. It uploads the same precomputed update
// `uploads` times, each time only after it has received a global model newer
// than the one it last saw: a federated client waits for a global before it
// trains on it, so the load is a closed loop with C clients.
type peer struct {
	id      int
	link    fed.Transport
	update  fed.Update
	uploads int

	commitMs   []float64 // Send start → receipt of the next committed global
	outOfOrder int       // broadcasts whose version did not increase
	lastGlobal []float32 // the task-final broadcast, copied out of the decode buffer
	lastVer    uint64
}

// run speaks the asynchronous client lifecycle until the server closes the
// link. The reader goroutine stamps each broadcast the moment Recv returns
// and ends at the task-final frame; run waits for it on every path.
func (p *peer) run() error {
	defer p.link.Close()
	msg, err := p.link.Recv()
	if err != nil {
		return fmt.Errorf("peer %d: waiting for the task: %w", p.id, err)
	}
	if _, ok := msg.(*fed.RoundStart); !ok {
		return fmt.Errorf("peer %d: got %T, want *fed.RoundStart", p.id, msg)
	}
	arrivals := make(chan arrival)
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		defer close(arrivals)
		for {
			msg, err := p.link.Recv()
			now := time.Now()
			if err != nil {
				arrivals <- arrival{err: err}
				return
			}
			gm, ok := msg.(*fed.GlobalModel)
			if !ok {
				arrivals <- arrival{err: fmt.Errorf("got %T, want *fed.GlobalModel", msg)}
				return
			}
			if gm.TaskFinal {
				p.lastGlobal = append(p.lastGlobal[:0], gm.Params...)
				p.lastVer = gm.Version
			}
			arrivals <- arrival{version: gm.Version, at: now, final: gm.TaskFinal}
			if gm.TaskFinal {
				return
			}
		}
	}()
	// On an early return the deferred Close above fails the reader's Recv;
	// drain so it can deliver that error and exit.
	defer func() {
		p.link.Close()
		for range arrivals {
		}
		readerDone.Wait()
	}()

	var seen uint64
	next := func() (arrival, error) {
		a, ok := <-arrivals
		if !ok {
			return a, errors.New("reader ended early")
		}
		return a, a.err
	}
	for k := 0; k < p.uploads; k++ {
		u := p.update
		u.BaseVersion = seen
		start := time.Now()
		if err := p.link.Send(&u); err != nil {
			return fmt.Errorf("peer %d: upload %d: %w", p.id, k, err)
		}
		a, err := next()
		if err != nil {
			return fmt.Errorf("peer %d: after upload %d: %w", p.id, k, err)
		}
		if a.final || a.version <= seen {
			p.outOfOrder++
			continue
		}
		p.commitMs = append(p.commitMs, float64(a.at.Sub(start))/1e6)
		seen = a.version
	}
	for {
		a, err := next()
		if err != nil {
			return fmt.Errorf("peer %d: waiting for the task-final global: %w", p.id, err)
		}
		if a.final {
			break
		}
		p.outOfOrder++ // a commit nobody was waiting for
	}
	if err := p.link.Send(&fed.RoundEnd{ClientID: p.id, EvalAccs: []float64{1}}); err != nil {
		return fmt.Errorf("peer %d: round end: %w", p.id, err)
	}
	// Linger until the server tears the link down, so it never logs an
	// eviction for a client whose work is fully accounted.
	readerDone.Wait()
	_, _ = p.link.Recv()
	return nil
}

// ingestJob is one server plus its scripted cohort, built by newIngestJob and
// run once.
type ingestJob struct {
	spec   ingestSpec
	cohort int
	seed   uint64

	peers    []*peer
	server   *fed.Server
	store    *checkpoint.Store
	storeDir string
	wires    []*fed.WireTransport
	sink     *tracedSink

	commits  int
	taskSeen int
	logLines []string
	peerErrs []error
	runErr   error
}

// makeUpdate draws one peer's fixed update from the seed: a dense normal
// vector, or an ascending k-coordinate mask with normal values. Masks are
// distinct per peer, so a window's union grows as ρ-pruned deltas do.
func makeUpdate(spec ingestSpec, id int, seed uint64) fed.Update {
	rng := tensor.NewRNG(seed).Fork(uint64(id) + 1)
	u := fed.Update{ClientID: id, Participating: true, Weight: 1}
	if !spec.sparse {
		u.Params = make([]float32, spec.n)
		rng.FillNorm(u.Params, 0.05)
		return u
	}
	k := int(float64(spec.n) * spec.density)
	if k < 1 {
		k = 1
	}
	idx := rng.Perm(spec.n)[:k]
	sort.Ints(idx)
	sv := &tensor.SparseVec{N: spec.n, Indices: make([]int32, k), Values: make([]float32, k)}
	for i, j := range idx {
		sv.Indices[i] = int32(j)
	}
	rng.FillNorm(sv.Values, 0.05)
	u.Sparse = sv
	return u
}

// newIngestJob precomputes the updates, opens the store, completes the TCP
// handshakes and builds the server; everything here is set-up time. workDir
// is where the durable workload's snapshots go (inside the checkout, so the
// fsync hits the filesystem the repository lives on).
func newIngestJob(spec ingestSpec, cohort int, seed uint64, tr *tracer, workDir string) (*ingestJob, error) {
	j := &ingestJob{spec: spec, cohort: cohort, seed: seed}
	j.peers = make([]*peer, cohort)
	for i := range j.peers {
		j.peers[i] = &peer{id: i, update: makeUpdate(spec, i, seed), uploads: spec.uploads}
	}
	if spec.durable {
		j.storeDir = workDir
		st, err := checkpoint.OpenStore(workDir, 1, seed|1)
		if err != nil {
			return nil, err
		}
		j.store = st
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	defer ln.Close()
	dialErr := make(chan error, cohort)
	for _, p := range j.peers {
		go func(p *peer) {
			t, err := fed.DialWith(ln.Addr().String(), p.id, 0, fed.WireOptions{})
			if err == nil {
				p.link = t
			}
			dialErr <- err
		}(p)
	}
	links, err := fed.ServeWith(ln, cohort, 0, fed.WireOptions{})
	for range j.peers {
		if derr := <-dialErr; derr != nil && err == nil {
			err = derr
		}
	}
	if err != nil {
		for _, l := range links {
			if l != nil {
				l.Close()
			}
		}
		j.discard()
		return nil, fmt.Errorf("wire handshake: %w", err)
	}
	for _, l := range links {
		j.wires = append(j.wires, l.(*fed.WireTransport))
	}

	cfg := fed.ServerConfig{
		Method: "ingest", NumTasks: 1, Rounds: spec.uploads,
		Scheduler: fed.SchedulerAsync,
		Async:     fed.AsyncConfig{CommitEvery: cohort},
		Seed:      seed,
		Logf: func(format string, args ...any) {
			j.logLines = append(j.logLines, fmt.Sprintf(format, args...))
		},
	}
	if spec.sharded {
		cfg.Shards = cohort
	}
	var agg fed.Aggregator // nil = the rule cfg.Shards selects
	var sink fed.SnapshotSink
	if j.store != nil {
		sink = j.store
	}
	if tr != nil {
		tlinks := make([]*tracedLink, cohort)
		for i, l := range links {
			tlinks[i] = newTracedLink(l, tr)
			links[i] = tlinks[i]
		}
		// Decoration trap: a wrapped aggregator hides the window-state seam,
		// and with a sink installed the snapshots would silently shrink. The
		// durable workload therefore keeps its aggregator bare and gets its
		// fold time from an offline replay instead.
		if !spec.durable {
			var inner fed.StreamAggregator = &fed.SparseFedAvg{}
			if spec.sharded {
				inner = fed.NewShardedFedAvg(cohort)
			}
			agg = &tracedAggregator{inner: inner, tr: tr, links: tlinks}
		}
		if j.store != nil {
			j.sink = &tracedSink{inner: j.store, tr: tr}
			sink = j.sink
		}
	}
	j.server = fed.NewServer(cfg, agg, links)
	if sink != nil {
		j.server.SetSnapshots(sink)
	}
	j.server.SetObserver(fed.ObserverFuncs{
		Round: func(s fed.RoundStats) {
			if s.Participants > 0 {
				j.commits++
			}
		},
		Task: func(fed.TaskPoint) { j.taskSeen++ },
	})
	return j, nil
}

// run drives the server to completion while the peers upload; the caller
// times it.
func (j *ingestJob) run(ctx context.Context) error {
	var wg sync.WaitGroup
	j.peerErrs = make([]error, len(j.peers))
	for i, p := range j.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			j.peerErrs[i] = p.run()
		}(i, p)
	}
	_, err := j.server.Run(ctx)
	wg.Wait()
	return err
}

// updates is the number of uploads the job folds, fixed by the spec.
func (j *ingestJob) updates() int { return j.cohort * j.spec.uploads }

// wireBytes sums the server links' measured traffic.
func (j *ingestJob) wireBytes() int64 {
	var n int64
	for _, w := range j.wires {
		n += w.BytesSent() + w.BytesRecv()
	}
	return n
}

// commitMs pools every peer's commit latencies.
func (j *ingestJob) commitMs() []float64 {
	var out []float64
	for _, p := range j.peers {
		out = append(out, p.commitMs...)
	}
	return out
}

// offlineFold folds one commit window — every peer's update once, weight 1 —
// through a bare SparseFedAvg: the reference the last broadcast is checked
// against, and the payload of the fold-time replay.
func (j *ingestJob) offlineFold() []float32 {
	agg := &fed.SparseFedAvg{}
	agg.BeginRound()
	for _, p := range j.peers {
		u := p.update
		agg.Accumulate(&u)
	}
	return append([]float32(nil), agg.FinishRound()...)
}

// relDiff is ‖a − b‖ / ‖b‖ (infinite on a length mismatch).
func relDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var num, den float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		num += d * d
		den += float64(b[i]) * float64(b[i])
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// check verifies one finished job and returns what it attempted and the
// failures it found. Every upload is an operation; so are the task report,
// the commit count, each peer's view of the final global and (durable only)
// the store's last snapshot.
func (j *ingestJob) check() (attempted int, failures []string) {
	runErr := j.runErr
	attempted = j.updates() + 2 + len(j.peers)
	if j.spec.durable {
		attempted++
	}
	if runErr != nil {
		failures = append(failures, fmt.Sprintf("server: %v", runErr))
	}
	for _, err := range j.peerErrs {
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	if len(failures) > 0 {
		return attempted, failures
	}
	if j.taskSeen != 1 {
		failures = append(failures, fmt.Sprintf("task reported %d times", j.taskSeen))
	}
	if j.commits != j.spec.uploads {
		failures = append(failures, fmt.Sprintf("%d commits for %d uploads per peer", j.commits, j.spec.uploads))
	}
	if nf, stale, evicted, refused := j.server.Rejections(); nf+stale+evicted+refused != 0 {
		for i := 0; i < nf+stale+evicted+refused; i++ {
			failures = append(failures, fmt.Sprintf("server rejected input: non-finite %d, stale %d, evicted %d, refused %d", nf, stale, evicted, refused))
		}
	}
	for _, line := range j.logLines {
		failures = append(failures, "server log: "+line)
	}
	want := j.offlineFold()
	for _, p := range j.peers {
		for i := len(p.commitMs); i < p.uploads; i++ {
			failures = append(failures, fmt.Sprintf("peer %d: upload without a newer global", p.id))
		}
		for i := 0; i < p.outOfOrder; i++ {
			failures = append(failures, fmt.Sprintf("peer %d: a broadcast's version did not increase", p.id))
		}
		if p.lastVer != uint64(j.spec.uploads) {
			failures = append(failures, fmt.Sprintf("peer %d: final version %d, want %d", p.id, p.lastVer, j.spec.uploads))
		}
		if d := relDiff(p.lastGlobal, want); !(d <= 1e-5) {
			failures = append(failures, fmt.Sprintf("peer %d: final global differs from the offline fold by %.3g", p.id, d))
		}
	}
	if j.spec.durable {
		snap, err := j.store.Load()
		switch {
		case err != nil:
			failures = append(failures, fmt.Sprintf("store: %v", err))
		case snap == nil:
			failures = append(failures, "store: no snapshot after the run")
		case snap.Version != uint64(j.spec.uploads):
			failures = append(failures, fmt.Sprintf("store: newest snapshot at version %d, want %d", snap.Version, j.spec.uploads))
		}
	}
	return attempted, failures
}

// jobWorkDir names a fresh snapshot directory under <home>/.work.
func jobWorkDir(home, workload string, seq int) string {
	return filepath.Join(home, ".work", fmt.Sprintf("%s-%d-%d", workload, os.Getpid(), seq))
}

// execute is the timed region: one segment, the probes before and after it.
func (j *ingestJob) execute(ctx context.Context, _ *meter) { j.runErr = j.run(ctx) }

// sample checks the finished job.
func (j *ingestJob) sample() jobSample {
	s := jobSample{updates: j.updates(), wireBytes: j.wireBytes()}
	for _, ms := range j.commitMs() {
		s.rounds = append(s.rounds, roundSample{ms: ms})
	}
	s.attempted, s.failures = j.check()
	return s
}

// discard releases the links of a job that never ran (one that ran closed
// them itself, and closing twice is harmless) and the snapshot directory.
func (j *ingestJob) discard() {
	for _, w := range j.wires {
		w.Close()
	}
	for _, p := range j.peers {
		if p.link != nil {
			p.link.Close()
		}
	}
	if j.storeDir != "" {
		os.RemoveAll(j.storeDir)
	}
}
