package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/tensor"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's origin (the start of the timed region). Parent is the
// span that caused this one (noParent for the root); spans of one
// aggregation round share Round, the global-model version being built while
// they ran. Track separates goroutine families: 0 is the server, 1+i is
// client i.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
	Track  int32  `json:"track"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// noParent marks a root span.
const noParent = int32(-1)

// Span names. The server track carries spanRun (the root: the whole timed
// region) and under it either spanRecv (lockstep: the server goroutine
// blocked in a link's Recv) or spanHandle (asynchronous: one received
// message inside the server, from its reader's Recv return to that reader's
// next Recv call, i.e. until the event loop acknowledged it); spanFold,
// spanFinish, spanSave and spanSend nest below those. Client tracks carry
// the three strategy hooks, parented to the spanRecv that waits for them.
const (
	spanRun    = "run"
	spanRecv   = "fed.sched.recv"
	spanHandle = "fed.sched.handle"
	spanSend   = "fed.sched.send"
	spanFold   = "fed.agg.accumulate"
	spanFinish = "fed.agg.finish"
	spanSave   = "checkpoint.save"
	spanStep   = "fed.client.train_step"
	spanAfter  = "fed.client.after_aggregate"
	spanEnd    = "fed.client.task_end"
)

// tracer holds every span of one traced job in memory; nothing is written
// until the job is over. It also keeps the little live bookkeeping the
// scheduler metrics need (which commit a Send belongs to), because that is
// only knowable at the seam, in order.
type tracer struct {
	t0    time.Time
	async bool

	mu    sync.Mutex
	spans []span

	root  int32
	round atomic.Int32 // version being built: committed version + 1

	// curHandle is the span the event loop is working under: the root in
	// lockstep mode, the handle span of the upload being folded in
	// asynchronous mode (set by the aggregator decorator, read by the sink
	// and link decorators, all on the scheduler goroutine).
	curHandle atomic.Int32

	// commits is the commit bookkeeping, guarded by mu: the newest record
	// is open (firstSend 0) from an upload's arrival until the broadcast of
	// the version that upload closed.
	commits []commitRec
	casting uint64 // version whose broadcast is under way
	castRec int    // its record in commits
}

// commitRec is one global-model commit seen at the server's links: the
// window-closing upload's arrival, the first broadcast Send's start and the
// last broadcast Send's return.
type commitRec struct {
	version    uint64
	uploadIn   int64
	firstSend  int64
	lastSendRe int64
}

func newTracer(async bool) *tracer {
	t := &tracer{t0: time.Now(), async: async}
	t.root = t.begin(spanRun, noParent, 0)
	t.curHandle.Store(t.root)
	t.round.Store(1)
	return t
}

// start moves the origin to now: the timed region begins here, after the
// set-up that needed the tracer to exist.
func (t *tracer) start() { t.t0 = time.Now() }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its identifier.
func (t *tracer) begin(name string, parent, track int32) int32 {
	now := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: t.round.Load(),
		Track: track, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int32) int64 {
	now := t.now()
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	d := now - s.Start
	t.mu.Unlock()
	return d
}

// finish closes the root and returns the spans.
func (t *tracer) finish() []span {
	t.end(t.root)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].End == 0 { // a handle span its reader never came back to
			t.spans[i].End = t.spans[t.root].End
		}
	}
	return t.spans
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its child spans cover. Children may overlap each other (parallel
// clients under one wait) and may stick out of the parent (a handle span
// closed by a late reader); the union is clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != noParent {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - unionLength(kids[s.ID], s.Start, s.End)
	}
	return self
}

// tracedStrategy times the three client hooks of a fed.Strategy. It wraps
// the strategy the factory built; the hooks' arithmetic is untouched.
type tracedStrategy struct {
	fed.Strategy
	tr    *tracer
	track int32
	link  *tracedLink // the server-side link that waits for this client; may be nil
}

// traceFactory decorates a strategy factory. links[i], when present, is the
// server-side link of client i, so client spans can name the server wait
// that they fill as their parent.
func traceFactory(inner fed.Factory, tr *tracer, links []*tracedLink) fed.Factory {
	return func(ctx *fed.ClientCtx) fed.Strategy {
		ts := &tracedStrategy{Strategy: inner(ctx), tr: tr, track: int32(1 + ctx.ID)}
		if ctx.ID < len(links) {
			ts.link = links[ctx.ID]
		}
		return ts
	}
}

func (s *tracedStrategy) parent() int32 {
	if s.link != nil {
		if id := s.link.openRecv.Load(); id != noParent {
			return id
		}
	}
	return s.tr.root
}

// TrainStep times one local iteration.
func (s *tracedStrategy) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	id := s.tr.begin(spanStep, s.parent(), s.track)
	loss := s.Strategy.TrainStep(x, labels, classes)
	s.tr.end(id)
	return loss
}

// AfterAggregate times the post-aggregation hook.
func (s *tracedStrategy) AfterAggregate(preAgg []float32, ct data.ClientTask) {
	id := s.tr.begin(spanAfter, s.parent(), s.track)
	s.Strategy.AfterAggregate(preAgg, ct)
	s.tr.end(id)
}

// TaskEnd times the end-of-task hook.
func (s *tracedStrategy) TaskEnd(ct data.ClientTask) {
	id := s.tr.begin(spanEnd, s.parent(), s.track)
	s.Strategy.TaskEnd(ct)
	s.tr.end(id)
}

// tracedAggregator times a streaming aggregator from outside: the clock is
// read before and after each inner call, never inside one. It deliberately
// does not forward the unexported window-state seam, so it must not be used
// where a snapshot sink is installed (the cut would silently stop carrying
// the open window) — see README, "decoration traps".
type tracedAggregator struct {
	inner fed.StreamAggregator
	tr    *tracer
	links []*tracedLink
}

// Name forwards the inner rule's name.
func (a *tracedAggregator) Name() string { return a.inner.Name() }

// Aggregate forwards the batch form.
func (a *tracedAggregator) Aggregate(updates []*fed.Update) []float32 {
	return a.inner.Aggregate(updates)
}

// BeginRound forwards; opening a round costs nothing worth a span.
func (a *tracedAggregator) BeginRound() { a.inner.BeginRound() }

// Accumulate times one fold.
func (a *tracedAggregator) Accumulate(u *fed.Update) {
	if a.tr.async && u.ClientID < len(a.links) {
		a.tr.curHandle.Store(a.links[u.ClientID].openHandle.Load())
	}
	id := a.tr.begin(spanFold, a.tr.curHandle.Load(), 0)
	a.inner.Accumulate(u)
	a.tr.end(id)
}

// FinishRound times the reduction's finish.
func (a *tracedAggregator) FinishRound() []float32 {
	id := a.tr.begin(spanFinish, a.tr.curHandle.Load(), 0)
	out := a.inner.FinishRound()
	a.tr.end(id)
	return out
}

// tracedSink times every durable cut and keeps a deep copy of the first
// mid-window cut and the first commit cut, so the checkpoint probes can
// replay the workload's own snapshots after the timed region.
type tracedSink struct {
	inner fed.SnapshotSink
	tr    *tracer

	midWindow, commit  *checkpoint.ServerSnapshot
	midCount, comCount int
}

// Save times one cut.
func (s *tracedSink) Save(snap *checkpoint.ServerSnapshot) error {
	id := s.tr.begin(spanSave, s.tr.curHandle.Load(), 0)
	err := s.inner.Save(snap)
	s.tr.end(id)
	switch {
	case snap.WindowCount > 0:
		s.midCount++
		if s.midWindow == nil {
			s.midWindow = copySnapshot(snap)
		}
	case len(snap.Global) > 0: // not the genesis cut, which holds no model yet
		s.comCount++
		if s.commit == nil {
			s.commit = copySnapshot(snap)
		}
	}
	return err
}

// copySnapshot deep-copies the slices a snapshot aliases from live server
// state (they are only valid during Save).
func copySnapshot(s *checkpoint.ServerSnapshot) *checkpoint.ServerSnapshot {
	c := *s
	c.Global = append([]float32(nil), s.Global...)
	c.WindowIdx = append([]int32(nil), s.WindowIdx...)
	c.WindowVals = append([]float32(nil), s.WindowVals...)
	c.Seats = append([]checkpoint.SeatRecord(nil), s.Seats...)
	c.Tasks = append([]checkpoint.TaskRecord(nil), s.Tasks...)
	c.Matrix = nil
	for _, row := range s.Matrix {
		c.Matrix = append(c.Matrix, append([]float64(nil), row...))
	}
	return &c
}

// tracedLink times the server side of one client link. Only server-side
// links are ever decorated: fed.Client keys behaviour on the concrete
// *fed.WireTransport, so a decorated client link would change the program.
// The byte counters stay on the inner transport (fed.Server.WireTraffic
// skips decorated links), so callers read them from there.
type tracedLink struct {
	inner fed.Transport
	tr    *tracer

	// openRecv is the lockstep recv span currently blocked on this link;
	// openHandle the asynchronous handle span of the message this link last
	// delivered. noParent when none.
	openRecv   atomic.Int32
	openHandle atomic.Int32
}

func newTracedLink(inner fed.Transport, tr *tracer) *tracedLink {
	l := &tracedLink{inner: inner, tr: tr}
	l.openRecv.Store(noParent)
	l.openHandle.Store(noParent)
	return l
}

// Recv times the wait (lockstep) or delimits the handling of the previous
// and the next message (asynchronous).
func (l *tracedLink) Recv() (fed.Msg, error) {
	t := l.tr
	if t.async {
		if h := l.openHandle.Swap(noParent); h != noParent {
			t.end(h)
		}
		m, err := l.inner.Recv()
		if err == nil {
			h := t.begin(spanHandle, t.root, 0)
			l.openHandle.Store(h)
			if _, ok := m.(*fed.Update); ok {
				t.noteUpload()
			}
		}
		return m, err
	}
	id := t.begin(spanRecv, t.root, 0)
	l.openRecv.Store(id)
	m, err := l.inner.Recv()
	l.openRecv.Store(noParent)
	t.end(id)
	if _, ok := m.(*fed.Update); ok && err == nil {
		t.noteUpload()
	}
	return m, err
}

// noteUpload records an upload's arrival: it may be the one that closes the
// window, so it opens a fresh commit record (an unused one is overwritten).
func (t *tracer) noteUpload() {
	now := t.now()
	t.mu.Lock()
	if n := len(t.commits); n > 0 && t.commits[n-1].firstSend == 0 {
		t.commits[n-1].uploadIn = now
	} else {
		t.commits = append(t.commits, commitRec{uploadIn: now})
	}
	t.mu.Unlock()
}

// Send times one server→client frame and attributes global-model frames to
// their commit.
func (l *tracedLink) Send(m fed.Msg) error {
	t := l.tr
	gm, isGlobal := m.(*fed.GlobalModel)
	commit := isGlobal && !gm.TaskFinal
	id := t.begin(spanSend, t.curHandle.Load(), 0)
	if commit {
		// The first Send of a version closes the open record. A peer that
		// already holds this version may upload again (opening the next
		// record) before the broadcast reaches the last link, so later Sends
		// of the same version find their record by version, not by position.
		t.mu.Lock()
		if gm.Version != t.casting {
			if n := len(t.commits); n > 0 && t.commits[n-1].firstSend == 0 {
				t.casting, t.castRec = gm.Version, n-1
				t.commits[n-1].version = gm.Version
				t.commits[n-1].firstSend = t.spans[id].Start
			}
		}
		t.mu.Unlock()
	}
	err := l.inner.Send(m)
	t.end(id)
	if commit {
		t.mu.Lock()
		if gm.Version == t.casting {
			t.commits[t.castRec].lastSendRe = t.spans[id].End
		}
		t.mu.Unlock()
		// The next spans belong to the next round.
		t.round.Store(int32(gm.Version) + 1)
	}
	return err
}

// Close forwards.
func (l *tracedLink) Close() error { return l.inner.Close() }
