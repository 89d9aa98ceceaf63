package fed

import (
	"context"
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// Client is one protocol endpoint: it wraps a Strategy, owns the local
// model, training data and device accounting, and speaks the round lifecycle
// over any Transport — in-memory goroutine (loopback) or TCP peer (wire)
// alike.
type Client struct {
	cfg      Config
	ctx      *ClientCtx
	strategy Strategy
	seq      []data.ClientTask
	dev      device.Device

	// sem, when non-nil, bounds concurrent compute across the co-resident
	// loopback clients (the Config.Parallelism knob). Wire clients own their
	// process and leave it nil.
	sem chan struct{}

	// batching state
	order   []int
	cur     int
	curTask int

	// baseVersion is the Version of the last GlobalModel this client
	// installed — the base its next update trains from, reported in
	// Update.BaseVersion so the asynchronous scheduler can measure
	// staleness. 0 until the first install (the shared initial model). A
	// rejoin hello also reports it, so the server can skip the catch-up
	// payload when the client is already current.
	baseVersion uint64

	// Reconnect bookkeeping. taskEnded is the highest task whose TaskEnd
	// hook has run (so a re-reported task never re-extracts knowledge);
	// finished marks the task sequence complete (or an OOM death report
	// sent) — the signal RunReconnect uses to tell a clean shutdown from a
	// dropped connection, both of which surface as io.EOF.
	taskEnded int
	finished  bool

	// leaveAfter, when >= 0, is the task index after whose completed report
	// the client retires its seat with a clean Leave frame and stops
	// (SetLeaveAfterTask). -1 means never leave early.
	leaveAfter int

	// scratch, reused every round/batch
	flatBuf   []float32
	mergedBuf []float32
	idxBuf    []int
	evalIdx   []int
	// upd is the reusable round-update message: the server (and any wire
	// encoder) consumes an Update before the client's next round starts, so
	// one struct serves every round without allocating.
	upd Update
}

// newClient builds a client whose RNG stream is already positioned; rng must
// be the root's fork for this ID and refFlat the shared initial parameters.
func newClient(cfg Config, id, numClients int, dev device.Device, seq []data.ClientTask,
	build func(rng *tensor.RNG) *model.Model, factory Factory,
	rng *tensor.RNG, refFlat []float32) *Client {
	m := build(rng.Fork(7))
	nn.SetFlatParams(m.Params(), refFlat)
	ctx := &ClientCtx{
		ID:         id,
		NumClients: numClients,
		Model:      m,
		Opt:        opt.NewSGD(opt.Inv{Base: cfg.LR, Decay: cfg.LRDecay}, 0, 0),
		RNG:        rng,
		NumClasses: cfg.NumClasses,
	}
	return &Client{
		cfg: cfg, ctx: ctx, strategy: factory(ctx),
		seq: seq, dev: dev, curTask: -1, taskEnded: -1, leaveAfter: -1,
	}
}

// SetLeaveAfterTask makes the client retire its seat cleanly after reporting
// task n (0-based): once that task's RoundEnd is delivered, the client sends
// a Leave frame and stops, finished — the elastic-membership departure, as
// opposed to just dropping the connection (which the server treats as an
// eviction and RunReconnect would heal). Asynchronous scheduler only; the
// lockstep protocol has no mid-run departure, so the synchronous client
// ignores it. A value past the final task (or -1, the default) never fires.
func (c *Client) SetLeaveAfterTask(n int) { c.leaveAfter = n }

// NewWireClient builds a standalone client endpoint (for a separate process
// or goroutine dialing a server) that reproduces the loopback engine's
// per-client state exactly. The RNG fork sequence is order-dependent, so it
// replays the engine's construction order: the shared initial model comes
// from fork 0xC0FFEE of the seed root, then one fork per lower client ID is
// discarded to position the stream for this ID.
func NewWireClient(cfg Config, id, numClients int, dev device.Device, seq []data.ClientTask,
	build func(rng *tensor.RNG) *model.Model, factory Factory) *Client {
	root := tensor.NewRNG(cfg.Seed)
	ref := build(root.Fork(0xC0FFEE))
	refFlat := nn.FlattenParams(ref.Params())
	for j := 0; j < id; j++ {
		root.Fork(uint64(j) + 1)
	}
	rng := root.Fork(uint64(id) + 1)
	return newClient(cfg, id, numClients, dev, seq, build, factory, rng, refFlat)
}

// Ctx exposes the client's context (model, optimizer, RNG) for inspection.
func (c *Client) Ctx() *ClientCtx { return c.ctx }

// Run speaks the round lifecycle until the server closes the transport (a
// clean shutdown), the client is evicted for exceeding device memory, or ctx
// is cancelled. It owns the transport and closes it on every path;
// cancellation closes it immediately so even a blocking wire Recv unblocks.
// The loop it speaks follows Config.Scheduler: lockstep rounds for the
// synchronous scheduler, continuous training with buffered global delivery
// for the asynchronous one.
func (c *Client) Run(ctx context.Context, t Transport) error {
	defer t.Close()
	stop := context.AfterFunc(ctx, func() { t.Close() })
	defer stop()
	if c.cfg.Scheduler == SchedulerAsync {
		return c.runAsync(ctx, t)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		msg, err := t.Recv()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		rs, ok := msg.(*RoundStart)
		if !ok {
			return fmt.Errorf("fed: client %d got %T, want *RoundStart", c.ctx.ID, msg)
		}
		if rs.TaskIdx < 0 || rs.TaskIdx >= len(c.seq) {
			return fmt.Errorf("fed: client %d got task index %d of %d", c.ctx.ID, rs.TaskIdx, len(c.seq))
		}
		if rs.TaskIdx != c.curTask {
			c.order, c.cur = nil, 0
			c.curTask = rs.TaskIdx
		}
		ct := c.seq[rs.TaskIdx]
		if rs.Participate {
			if err := c.trainAndUpload(t, ct, false); err != nil {
				return err
			}
			if err := c.installGlobal(t, ct); err != nil {
				return err
			}
		} else {
			// Dropped out this round: acknowledge so the server's collection
			// loop stays in lockstep, train nothing, keep stale parameters.
			c.upd = Update{ClientID: c.ctx.ID}
			if err := t.Send(&c.upd); err != nil {
				return err
			}
		}
		if rs.TaskDone {
			re := c.finishTask(ct, rs.TaskIdx)
			if err := t.Send(re); err != nil {
				return err
			}
			if re.Dead {
				c.finished = true
				return nil
			}
			if rs.TaskIdx == len(c.seq)-1 {
				c.finished = true
			}
		}
	}
}

// trainAndUpload runs the round's local iterations and sends the Update.
// With detach the sent message owns its memory — a fresh struct and a copy
// of the parameter vector: the asynchronous client trains on (and rewrites
// flatBuf and c.upd during) the next round without waiting for the server
// to consume the zero-copy loopback frame, and the asynchronous server may
// still be reading (and staleness-reweighting) the previous message when
// this round ends, so the lockstep aliasing contract protects neither.
func (c *Client) trainAndUpload(t Transport, ct data.ClientTask, detach bool) error {
	c.gate(func() {
		for it := 0; it < c.cfg.LocalIters; it++ {
			x, labels := c.nextBatch(ct, c.cfg.BatchSize)
			c.strategy.TrainStep(x, labels, ct.Classes)
		}
	})
	c.flatBuf = nn.FlattenParamsInto(c.flatBuf, c.ctx.Model.Params())
	work := c.ctx.Model.FLOPsPerSample() * 3 * float64(c.cfg.BatchSize*c.cfg.LocalIters)
	work += c.strategy.OverheadFLOPs() * float64(c.cfg.LocalIters)
	c.upd = Update{
		ClientID:       c.ctx.ID,
		Participating:  true,
		Weight:         float64(len(ct.Train)),
		Params:         c.flatBuf,
		BaseVersion:    c.baseVersion,
		ComputeSeconds: c.dev.TrainTime(work),
		UpBytes:        int64(c.ctx.Model.ParamBytes() + c.strategy.ExtraUploadBytes()),
		DownBytes:      int64(c.ctx.Model.ParamBytes() + c.strategy.ExtraDownloadBytes()),
	}
	if detach {
		u := c.upd
		u.Params = append([]float32(nil), c.flatBuf...)
		return t.Send(&u)
	}
	return t.Send(&c.upd)
}

// installGlobal receives the aggregated model over the lockstep loop and
// installs it.
func (c *Client) installGlobal(t Transport, ct data.ClientTask) error {
	msg, err := t.Recv()
	if err != nil {
		return fmt.Errorf("fed: client %d waiting for global model: %w", c.ctx.ID, err)
	}
	gm, ok := msg.(*GlobalModel)
	if !ok {
		return fmt.Errorf("fed: client %d got %T, want *GlobalModel", c.ctx.ID, msg)
	}
	c.install(gm, ct)
	return nil
}

// install applies one GlobalModel: the vector is installed through the
// strategy's aggregation mask (merging against the client's pre-aggregation
// parameters), AfterAggregate runs with the pre-aggregation vector, and the
// client's base version advances to the global's. flatBuf is rewritten next
// round; strategies that keep the pre-aggregation vector across rounds must
// copy it.
//
// A client with no local round behind it — an asynchronous commit triggered
// by faster peers, or a rejoin catch-up, ahead of its first upload — has no
// pre-aggregation vector distinct from its current weights, so those are
// what the merge keeps and what AfterAggregate sees.
func (c *Client) install(gm *GlobalModel, ct data.ClientTask) {
	global := gm.Params
	c.gate(func() {
		if c.flatBuf == nil {
			c.flatBuf = nn.FlattenParamsInto(c.flatBuf, c.ctx.Model.Params())
		}
		mask := c.strategy.AggregateMask()
		if mask == nil {
			nn.SetFlatParams(c.ctx.Model.Params(), global)
		} else {
			if cap(c.mergedBuf) < len(global) {
				c.mergedBuf = make([]float32, len(global))
			}
			merged := c.mergedBuf[:len(global)]
			copy(merged, c.flatBuf)
			for j, use := range mask {
				if use {
					merged[j] = global[j]
				}
			}
			nn.SetFlatParams(c.ctx.Model.Params(), merged)
		}
		c.strategy.AfterAggregate(c.flatBuf, ct)
	})
	c.baseVersion = gm.Version
}

// runAsync speaks the asynchronous lifecycle: one RoundStart announces a
// task, then the client trains its Rounds rounds back to back — before each
// round it installs the freshest committed global that has arrived (skipping
// the ones it outpaced) without ever blocking — and finally waits for the
// task-final broadcast, installs it, evaluates, and reports RoundEnd. An
// inbox goroutine pumps the receive direction so broadcasts queue while the
// client trains; uploads over loopback are detached copies because the
// lockstep aliasing contract does not hold here.
func (c *Client) runAsync(ctx context.Context, t Transport) error {
	_, wire := t.(*WireTransport)
	return c.asyncLoop(ctx, t, newInbox(t, wire), nil)
}

// asyncLoop drives the asynchronous task sequence. resume, when non-nil, is
// a rejoin catch-up: instead of waiting for a RoundStart, the first task is
// positioned from the Catchup — install the current global (when the server
// sent one), then resume uploading at the round the server's books say is
// next, or jump straight to the task-final evaluation (TaskFinal) or to
// awaiting the next task (TaskDone).
func (c *Client) asyncLoop(ctx context.Context, t Transport, in *inbox, resume *Catchup) error {
	_, wire := t.(*WireTransport)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var taskIdx, startRound int
		var skipToFinal bool
		if cu := resume; cu != nil {
			resume = nil
			taskIdx = cu.TaskIdx
			if taskIdx < 0 || taskIdx >= len(c.seq) {
				return fmt.Errorf("fed: client %d rejoin catch-up names task %d of %d", c.ctx.ID, taskIdx, len(c.seq))
			}
			if taskIdx != c.curTask {
				c.order, c.cur = nil, 0
				c.curTask = taskIdx
			}
			if len(cu.Params) > 0 {
				c.install(&GlobalModel{Params: cu.Params, Version: cu.Version}, c.seq[taskIdx])
			} else if cu.Version > c.baseVersion {
				c.baseVersion = cu.Version
			}
			if cu.TaskDone {
				// The seat already finished this task (its report landed
				// before the drop): await the next task — or, when this was
				// the last one, the run is complete and the coming EOF is a
				// clean shutdown.
				if taskIdx == len(c.seq)-1 {
					c.finished = true
				}
				continue
			}
			startRound, skipToFinal = cu.Seen, cu.TaskFinal
		} else {
			msg, err := in.recv()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return err
			}
			rs, ok := msg.(*RoundStart)
			if !ok {
				return fmt.Errorf("fed: client %d got %T, want *RoundStart", c.ctx.ID, msg)
			}
			if rs.TaskIdx < 0 || rs.TaskIdx >= len(c.seq) {
				return fmt.Errorf("fed: client %d got task index %d of %d", c.ctx.ID, rs.TaskIdx, len(c.seq))
			}
			if rs.TaskIdx != c.curTask {
				c.order, c.cur = nil, 0
				c.curTask = rs.TaskIdx
			}
			taskIdx = rs.TaskIdx
		}
		done, err := c.asyncTask(ctx, t, in, taskIdx, startRound, skipToFinal, !wire)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if c.leaveAfter >= 0 && taskIdx >= c.leaveAfter && !c.finished {
			// Clean retirement: this task's report is delivered; tell the
			// server the seat is done federating and stop as finished, so a
			// surrounding RunReconnect treats this as the clean shutdown it is.
			if err := t.Send(&Leave{ClientID: c.ctx.ID}); err != nil {
				return err
			}
			c.finished = true
			return nil
		}
	}
}

// asyncTask runs one task from startRound: the remaining uploads, the task
// barrier, and the RoundEnd report. skipToFinal short-circuits to the
// report — a rejoin catch-up that already carried the task-final global.
// done is true when the client's run is over (an OOM death report).
func (c *Client) asyncTask(ctx context.Context, t Transport, in *inbox, taskIdx, startRound int, skipToFinal, detach bool) (done bool, err error) {
	ct := c.seq[taskIdx]
	if !skipToFinal {
		for r := startRound; r < c.cfg.Rounds; r++ {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			if gm := in.drainGlobals(); gm != nil {
				c.install(gm, ct)
			}
			if err := c.trainAndUpload(t, ct, detach); err != nil {
				return false, err
			}
		}
		// Task barrier: commits triggered by slower clients may still
		// arrive; only the task-final broadcast closes the task. The final
		// global supersedes the skipped intermediates (a full-vector
		// install), so they are dropped unread.
		var final *GlobalModel
		for final == nil {
			msg, err := in.recv()
			if err != nil {
				if ctx.Err() != nil {
					return false, ctx.Err()
				}
				return false, fmt.Errorf("fed: client %d waiting for task-final global: %w", c.ctx.ID, err)
			}
			gm, ok := msg.(*GlobalModel)
			if !ok {
				return false, fmt.Errorf("fed: client %d got %T, want *GlobalModel", c.ctx.ID, msg)
			}
			if gm.TaskFinal {
				final = gm
			}
		}
		c.install(final, ct)
	}
	re := c.finishTask(ct, taskIdx)
	if err := t.Send(re); err != nil {
		return false, err
	}
	if re.Dead {
		c.finished = true
		return true, nil
	}
	if taskIdx == len(c.seq)-1 {
		c.finished = true
	}
	return false, nil
}

// finishTask runs the task-end hooks: knowledge extraction, the OOM check
// the heterogeneity study exercises, and (for survivors) evaluation on every
// learned task. The TaskEnd hook runs at most once per task — a rejoining
// client whose RoundEnd was lost in flight re-evaluates and re-reports, but
// must not re-extract knowledge.
func (c *Client) finishTask(ct data.ClientTask, taskIdx int) *RoundEnd {
	re := &RoundEnd{ClientID: c.ctx.ID}
	if c.taskEnded < taskIdx {
		c.gate(func() { c.strategy.TaskEnd(ct) })
		c.taskEnded = taskIdx
	}
	if c.cfg.MemScale > 0 {
		used := float64(c.ctx.Model.ParamBytes()*4+c.strategy.MemoryBytes()) * c.cfg.MemScale
		if used > float64(c.dev.MemBytes) {
			re.Dead = true
			return re
		}
	}
	accs := make([]float64, taskIdx+1)
	c.gate(func() {
		for p := 0; p <= taskIdx; p++ {
			accs[p], c.evalIdx = evalClientTask(c.ctx.Model, c.seq[p], c.evalIdx)
		}
	})
	re.EvalAccs = accs
	return re
}

// gate runs fn under the shared compute semaphore when one is installed.
func (c *Client) gate(fn func()) {
	if c.sem != nil {
		c.sem <- struct{}{}
		defer func() { <-c.sem }()
	}
	fn()
}

// nextBatch draws the next batch of a client task, reshuffling each epoch.
// The index slice is client scratch reused every call.
func (c *Client) nextBatch(ct data.ClientTask, batchSize int) (*tensor.Tensor, []int) {
	n := len(ct.Train)
	if batchSize > n {
		batchSize = n
	}
	if cap(c.idxBuf) < batchSize {
		c.idxBuf = make([]int, 0, batchSize)
	}
	idx := c.idxBuf[:0]
	for len(idx) < batchSize {
		if c.cur >= len(c.order) {
			c.order = c.ctx.RNG.Perm(n)
			c.cur = 0
		}
		idx = append(idx, c.order[c.cur])
		c.cur++
	}
	c.idxBuf = idx
	m := c.ctx.Model
	return data.Batch(ct.Train, idx, m.InC, m.InH, m.InW)
}

// EvalClientTask computes task-aware top-1 accuracy of the model on a
// client task's test samples (argmax restricted to the task's classes).
func EvalClientTask(m *model.Model, ct data.ClientTask) float64 {
	acc, _ := evalClientTask(m, ct, nil)
	return acc
}

// evalClientTask is EvalClientTask with a reusable index scratch slice; it
// returns the (possibly grown) scratch so callers can thread it through.
func evalClientTask(m *model.Model, ct data.ClientTask, idxScratch []int) (float64, []int) {
	if len(ct.Test) == 0 {
		return 0, idxScratch
	}
	const evalBatch = 32
	if cap(idxScratch) < evalBatch {
		idxScratch = make([]int, evalBatch)
	}
	correct := 0
	for start := 0; start < len(ct.Test); start += evalBatch {
		end := start + evalBatch
		if end > len(ct.Test) {
			end = len(ct.Test)
		}
		idx := idxScratch[:end-start]
		for i := range idx {
			idx[i] = start + i
		}
		x, labels := data.Batch(ct.Test, idx, m.InC, m.InH, m.InW)
		logits := m.Forward(x, false)
		for i := range idx {
			if logits.ArgMaxRow(i, ct.Classes) == labels[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(ct.Test)), idxScratch
}
