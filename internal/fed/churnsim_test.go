package fed

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/tensor"
)

// This file is the churn-simulation harness: a scripted-peer driver that
// replays deterministic join/leave/crash/rejoin schedules against the
// asynchronous scheduler over loopback links and audits the seat-book
// invariants the elastic-membership design promises — every admitted seat's
// task reports land exactly once, every commit's weight denominator is the
// sum of the weights actually folded from live seats, the global version is
// monotone, and upload accounting closes (every update a peer sent is
// folded or counted exactly once, never duplicated, never silently lost).
// Tests call RunChurn with hand-written schedules for the scripted corners
// and with RandomChurnScripts for the seeded property mode; violations come
// back as strings so a failure names the broken invariant, not just a hang.

// ChurnAction is the scripted mid-run membership move of one churn peer.
type ChurnAction int

const (
	// ChurnStay runs the peer to completion with no membership event.
	ChurnStay ChurnAction = iota
	// ChurnLeave sends a clean Leave frame at the scripted point and closes
	// the link: the seat retires — renormalized away, never counted dead.
	ChurnLeave
	// ChurnCrash drops the link abruptly at the scripted point, exercising
	// the eviction path (and, with Rejoin, the catch-up splice back in).
	ChurnCrash
)

// ChurnScript describes one peer's scripted lifecycle in a RunChurn run.
// The zero value is a founding seat that stays to the end.
type ChurnScript struct {
	// Join makes the peer a mid-run joiner: instead of holding a founding
	// seat it enters through the v5 join handshake once JoinAfterCommits
	// global commits have landed, and is assigned the next free seat.
	Join bool
	// JoinAfterCommits is the join gate: the number of version-bumping
	// commits to wait for before dialing in (joiners only).
	JoinAfterCommits int
	// Action is the membership move to make (ChurnStay does nothing).
	Action ChurnAction
	// AtTask is the task during which Action triggers. A joiner admitted
	// after AtTask acts at its first opportunity.
	AtTask int
	// AfterUploads is how many of AtTask's uploads to deliver before acting;
	// values of Rounds or more act after the task's full upload quota.
	AfterUploads int
	// Rejoin, with ChurnCrash, makes the peer wait for its eviction and
	// splice back in through the rejoin path; with ChurnLeave it reclaims
	// its retired seat the same way (seat IDs are never reused, so a
	// departed seat remains rejoinable). The peer then runs to completion.
	Rejoin bool
}

// ChurnConfig configures one churn-simulation run.
type ChurnConfig struct {
	// Tasks and Rounds shape the run: Rounds uploads per seat per task.
	Tasks  int
	Rounds int
	// CommitEvery is the async commit window (K accepted updates); 0 takes
	// the scheduler's default of half the founding cohort.
	CommitEvery int
	// StalenessAlpha is the staleness-weighting exponent; the staleness
	// *bound* is always off in the harness so that scripted pacing can
	// never push a peer into rejection (other tests pin that path).
	StalenessAlpha float64
	// MaxCohort caps the seat book; 0 means every scripted peer fits.
	MaxCohort int
	// Scripts is the cohort: at least one founding (non-Join) seat must
	// stay alive to the end (ChurnStay, or a Rejoin variant).
	Scripts []ChurnScript
	// Logf, when set, additionally receives the server's log lines.
	Logf func(format string, args ...any)
	// Timeout bounds the whole run; 0 means 60 seconds. A run that exceeds
	// it is cancelled and reported as a violation, not a hang.
	Timeout time.Duration
}

// ChurnReport is the outcome of one RunChurn execution.
type ChurnReport struct {
	// Result is the server's run result (partial if the run failed).
	Result *Result
	// Commits is every RoundStats the observer saw, in commit order.
	Commits []RoundStats
	// Seats is the final seat-book size (founders plus admitted joiners).
	Seats int
	// Violations lists every broken invariant; empty means the run upheld
	// the elastic-membership contract end to end.
	Violations []string
}

// churnFold is one recorded aggregator fold: which seat, at what effective
// (staleness-scaled) weight.
type churnFold struct {
	seat   int
	weight float64
}

// churnHarness is the shared state of one RunChurn execution: the server,
// the injection channel, the log/commit synchronisation points peers wait
// on, and the audit trail the invariant checks read.
type churnHarness struct {
	cfg       ChurnConfig
	srv       *Server
	caps      int
	maxCohort int
	timeout   time.Duration

	admits chan admission

	mu          sync.Mutex
	cond        *sync.Cond
	logLines    []string
	commitCount int // version-bumping commits so far (join gates wait on it)
	handshakes  int // join/rejoin requests queued but not yet answered
	// joinGates counts the scripted joins per gate: the commit that meets a
	// gate marks them outstanding in the same critical section (roundDone),
	// so no report can end the run between a gate opening and its join.
	joinGates  map[int]int
	done       bool
	violations []string

	lastVersion uint64
	commits     []RoundStats

	window     []churnFold // folds of the open commit window
	windowSum  float64     // their weight sum, accumulated in fold order
	lastWindow int         // fold count of the window just closed

	seats map[int]*churnPeer // seat ID -> peer, as admitted
	ends  []Transport        // every client end ever created, closed at shutdown
}

// violate records one broken invariant.
func (h *churnHarness) violate(format string, args ...any) {
	h.mu.Lock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// logf is the server's log sink: lines are retained so peers can
// synchronise on membership events (eviction, retirement) the same way
// operators would — by watching the log.
func (h *churnHarness) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	h.mu.Lock()
	h.logLines = append(h.logLines, line)
	h.mu.Unlock()
	h.cond.Broadcast()
	if h.cfg.Logf != nil {
		h.cfg.Logf("%s", line)
	}
}

// await blocks until pred holds (under the harness lock), the run ends, or
// the harness deadline passes; it reports whether pred held.
func (h *churnHarness) await(pred func() bool) bool {
	deadline := time.Now().Add(h.timeout)
	h.mu.Lock()
	defer h.mu.Unlock()
	for !pred() {
		if h.done || time.Now().After(deadline) {
			return pred()
		}
		h.cond.Wait()
	}
	return true
}

// awaitLog blocks until a server log line contains substr.
func (h *churnHarness) awaitLog(substr string) bool {
	seen := 0
	return h.await(func() bool { return h.logMatchLocked(&seen, substr) })
}

// logMatchLocked scans unseen log lines for substr, advancing *seen; the
// caller (await's predicate loop) holds h.mu.
func (h *churnHarness) logMatchLocked(seen *int, substr string) bool {
	for ; *seen < len(h.logLines); *seen++ {
		if strings.Contains(h.logLines[*seen], substr) {
			return true
		}
	}
	return false
}

// beginHandshake marks a membership handshake as outstanding: a scripted
// departure whose comeback has not yet received its catch-up (a join is
// marked by the commit that meets its gate, see joinGates). While any
// handshake is outstanding, peers hold their task reports back (see
// report): a report landing in the departure→rejoin gap could end the run
// before the scheduler ever consumes the rejoin, turning a scripted
// comeback into a coin-flip foreclosure. The gate makes consumption
// deterministic — a gated reporter leaves the scheduler idle on exactly
// the channels the request is queued on — and it cannot deadlock, because
// the handshaking peer always calls endHandshake before its own next
// report, and the scheduler's event loop (eviction, retirement, catch-up
// replies) never waits on a gated report.
func (h *churnHarness) beginHandshake() {
	h.mu.Lock()
	h.handshakes++
	h.mu.Unlock()
	h.cond.Broadcast()
}

// endHandshake marks a membership request as answered (or foreclosed by the
// end of the run), releasing any reports held back by the gate.
func (h *churnHarness) endHandshake() {
	h.mu.Lock()
	h.handshakes--
	h.mu.Unlock()
	h.cond.Broadcast()
}

// runEnded reports whether the server's run has already completed — a
// handshake that races the end of the run is foreclosed, not broken.
func (h *churnHarness) runEnded() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done
}

// register records a client-side transport so shutdown can close it. Peers
// never close a link the run still depends on themselves (outside a scripted
// crash or leave): an early finisher's close would read as a crash to a
// server still collecting the others' reports. A link registered after the
// run has ended is closed on the spot, so its peer's pending handshake
// unblocks with EOF instead of stranding the goroutine.
func (h *churnHarness) register(t Transport) {
	h.mu.Lock()
	dead := h.done
	if !dead {
		h.ends = append(h.ends, t)
	}
	h.mu.Unlock()
	if dead {
		t.Close()
	}
}

// admitSeat records a joiner's seat assignment and checks the book's shape:
// assignments must be unique and inside the MaxCohort cap.
func (h *churnHarness) admitSeat(p *churnPeer) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev, taken := h.seats[p.seat]; taken {
		return fmt.Errorf("%s: assigned seat %d, already held by %s — seat IDs must be unique", p.name, p.seat, prev.name)
	}
	if p.seat < 0 || p.seat >= h.maxCohort {
		return fmt.Errorf("%s: assigned seat %d outside [0,%d)", p.name, p.seat, h.maxCohort)
	}
	h.seats[p.seat] = p
	return nil
}

// roundDone is the harness's RoundObserver: it pins version monotonicity
// (every participating commit bumps the version by exactly one; a
// participant-less flush bumps nothing) and that the reported participant
// count matches the folds the instrumented aggregator recorded.
func (h *churnHarness) roundDone(st RoundStats) {
	h.mu.Lock()
	switch {
	case st.Participants > 0 && st.Version != h.lastVersion+1:
		h.violations = append(h.violations, fmt.Sprintf(
			"commit with %d participants moved the version %d -> %d, want exactly +1",
			st.Participants, h.lastVersion, st.Version))
	case st.Participants == 0 && st.Version != h.lastVersion:
		h.violations = append(h.violations, fmt.Sprintf(
			"participant-less flush moved the version %d -> %d", h.lastVersion, st.Version))
	}
	if st.Participants != h.lastWindow {
		h.violations = append(h.violations, fmt.Sprintf(
			"commit reports %d participants, the aggregator folded %d", st.Participants, h.lastWindow))
	}
	h.lastVersion = st.Version
	if st.Participants > 0 {
		h.commitCount++
		h.handshakes += h.joinGates[h.commitCount]
	}
	h.commits = append(h.commits, st)
	h.mu.Unlock()
	h.cond.Broadcast()
}

// beginWindow resets the fold record for a fresh commit window.
func (h *churnHarness) beginWindow() {
	h.mu.Lock()
	h.window = h.window[:0]
	h.windowSum = 0
	h.mu.Unlock()
}

// recordFold audits one aggregator fold at the moment it happens (on the
// scheduler goroutine): the folded seat must be live — a retired or evicted
// seat's update must never reach the denominator — and its effective weight
// joins the running sum the commit's denominator is checked against.
func (h *churnHarness) recordFold(u *Update) {
	w := u.Weight
	if w == 0 {
		w = 1
	}
	h.mu.Lock()
	if st, _ := h.srv.book.at(u.ClientID); !st.alive {
		h.violations = append(h.violations, fmt.Sprintf(
			"folded an update from seat %d, which is not live at fold time", u.ClientID))
	}
	h.window = append(h.window, churnFold{seat: u.ClientID, weight: w})
	h.windowSum += w
	h.mu.Unlock()
}

// closeWindow checks the closing window's denominator — the aggregator's
// total weight must equal, bit for bit, the sum of the weights recorded at
// fold time (both accumulate in fold order), so the commit renormalizes over
// exactly the live set's contributions — then resets the record.
func (h *churnHarness) closeWindow(inner StreamAggregator) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if wa, ok := inner.(windowedAggregator); ok && len(h.window) > 0 {
		_, _, _, total := wa.windowState()
		if total != h.windowSum {
			h.violations = append(h.violations, fmt.Sprintf(
				"commit denominator %v, want %v (the weights folded from the live set)", total, h.windowSum))
		}
	}
	h.lastWindow = len(h.window)
	h.window = h.window[:0]
	h.windowSum = 0
}

// churnAgg instruments the server's streaming aggregator so the harness
// sees every fold and every window close without changing the arithmetic.
type churnAgg struct {
	inner StreamAggregator
	h     *churnHarness
}

// Name identifies the wrapped aggregation rule.
func (c *churnAgg) Name() string { return c.inner.Name() }

// BeginRound resets the wrapped round and the harness's fold record.
func (c *churnAgg) BeginRound() {
	c.h.beginWindow()
	c.inner.BeginRound()
}

// Accumulate records the fold for the audit, then delegates.
func (c *churnAgg) Accumulate(u *Update) {
	c.h.recordFold(u)
	c.inner.Accumulate(u)
}

// FinishRound audits the closing window's denominator, then delegates.
func (c *churnAgg) FinishRound() []float32 {
	c.h.closeWindow(c.inner)
	return c.inner.FinishRound()
}

// Aggregate implements the buffered interface in terms of the streaming one.
func (c *churnAgg) Aggregate(updates []*Update) []float32 {
	c.BeginRound()
	for _, u := range updates {
		c.Accumulate(u)
	}
	return c.FinishRound()
}

// churnPeer is one scripted protocol endpoint: it speaks the asynchronous
// client protocol over a loopback link and performs its script's membership
// move at the scripted point, recording everything it did so the post-run
// audit can reconcile the server's books against ground truth.
type churnPeer struct {
	h      *churnHarness
	script ChurnScript
	name   string
	seat   int // -1 until assigned (joiners)
	link   Transport

	lastVer uint64
	acted   bool

	sent      []int  // per task: Update frames delivered
	reported  []bool // per task: RoundEnd delivered (and believed processed)
	left      bool   // final state: departed via a clean Leave
	crashed   bool   // final state: crashed and never rejoined
	crashTask int
}

// accConst is the peer's sentinel accuracy: one exact binary fraction per
// seat, so the audit can recompute every matrix cell bit-for-bit from the
// set of reports that should have landed.
func (p *churnPeer) accConst() float64 { return float64(p.seat%16+1) / 32 }

// run drives the peer's whole scripted life; the returned error is a
// protocol violation or a stranded handshake.
func (p *churnPeer) run() error {
	if p.script.Join {
		gate := p.script.JoinAfterCommits
		//lint:ignore fedlint/atomic-hygiene await runs its predicate under h.mu
		if !p.h.await(func() bool { return p.h.commitCount >= gate }) {
			return fmt.Errorf("%s: run ended before its join gate of %d commits", p.name, gate)
		}
		// The handshake is already outstanding: the commit that met the gate
		// opened it (roundDone; RunChurn for a gate of zero).
		sEnd, cEnd := LoopbackCap(p.h.caps)
		p.h.register(cEnd)
		p.h.admits <- admission{seat: joinSeat, lastVersion: 0, link: sEnd}
		msg, err := cEnd.Recv()
		p.h.endHandshake()
		if err != nil {
			if p.h.runEnded() {
				// The run ended — failed, or timed out its report gate —
				// before the scheduler consumed the join request; the seat was
				// never admitted, which the audit does not hold against it.
				return nil
			}
			return fmt.Errorf("%s: join handshake got no seat assignment: %v", p.name, err)
		}
		hello, ok := msg.(*helloMsg)
		if !ok {
			return fmt.Errorf("%s: join reply was %T, want the seat-assignment hello", p.name, msg)
		}
		p.seat = hello.clientID
		if err := p.h.admitSeat(p); err != nil {
			return err
		}
		p.link = cEnd
		cu, err := p.recvCatchup()
		if err != nil {
			return fmt.Errorf("%s: join catch-up: %v", p.name, err)
		}
		return p.resume(cu)
	}
	// Founding seat: the first frame is task 0's announcement.
	msg, err := p.link.Recv()
	if err != nil {
		return fmt.Errorf("%s: waiting for the first RoundStart: %v", p.name, err)
	}
	if rs, ok := msg.(*RoundStart); !ok || rs.TaskIdx != 0 {
		return fmt.Errorf("%s: first frame %T, want task 0's RoundStart", p.name, msg)
	}
	return p.tasks(0, 0)
}

// tasks runs the protocol from (task, seen) to the end of the run — or to
// the peer's scripted departure.
func (p *churnPeer) tasks(task, seen int) error {
	for ; task < p.h.cfg.Tasks; task++ {
		done, err := p.runTask(task, seen)
		if done || err != nil {
			return err
		}
		seen = 0
		if task+1 < p.h.cfg.Tasks {
			if err := p.awaitRoundStart(task + 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// due reports whether the scripted action triggers before upload u of task.
func (p *churnPeer) due(task, u int) bool {
	if p.acted || p.script.Action == ChurnStay {
		return false
	}
	after := min(p.script.AfterUploads, p.h.cfg.Rounds)
	return task > p.script.AtTask || (task == p.script.AtTask && u >= after)
}

// runTask delivers one task's uploads (possibly acting mid-way), drains to
// the task-final broadcast, and reports. done means the peer's run is over
// (departed, or completed through a catch-up resume).
func (p *churnPeer) runTask(task, seen int) (done bool, err error) {
	for u := seen; u < p.h.cfg.Rounds; u++ {
		if p.due(task, u) {
			return true, p.act(task)
		}
		if err := p.upload(task); err != nil {
			return true, err
		}
	}
	if p.due(task, p.h.cfg.Rounds) {
		return true, p.act(task)
	}
	for {
		msg, err := p.link.Recv()
		if err != nil {
			return true, fmt.Errorf("%s: draining task %d to its final broadcast: %v", p.name, task, err)
		}
		if gm, ok := msg.(*GlobalModel); ok {
			p.lastVer = gm.Version
			if gm.TaskFinal {
				break
			}
		}
	}
	return false, p.report(task)
}

// upload delivers one update: unit-ish weight (varied per seat so
// denominators are non-trivial), based on the last version this peer saw.
func (p *churnPeer) upload(task int) error {
	err := p.link.Send(&Update{
		ClientID: p.seat, Participating: true,
		Weight:         float64(1 + p.seat%3),
		BaseVersion:    p.lastVer,
		Params:         []float32{float32(p.seat + 1)},
		ComputeSeconds: 0.001, UpBytes: 4, DownBytes: 4,
	})
	if err != nil {
		return fmt.Errorf("%s: upload %d of task %d: %v", p.name, p.sent[task], task, err)
	}
	p.sent[task]++
	return nil
}

// report delivers the task's RoundEnd carrying the peer's sentinel accuracy
// for every learned task. It first waits out any queued join/rejoin
// handshake: this report might be the run's last, and ending the run with a
// request still unconsumed would foreclose a scripted membership move at
// random. A timed-out wait proceeds anyway and lets the audit complain.
func (p *churnPeer) report(task int) error {
	//lint:ignore fedlint/atomic-hygiene await runs its predicate under h.mu
	p.h.await(func() bool { return p.h.handshakes == 0 })
	accs := make([]float64, task+1)
	for i := range accs {
		accs[i] = p.accConst()
	}
	if err := p.link.Send(&RoundEnd{ClientID: p.seat, EvalAccs: accs}); err != nil {
		return fmt.Errorf("%s: reporting task %d: %v", p.name, task, err)
	}
	p.reported[task] = true
	return nil
}

// act performs the scripted membership move during task. It always ends the
// normal task loop: a departing peer is done, and a rejoining peer resumes
// through the catch-up state machine instead.
func (p *churnPeer) act(task int) error {
	p.acted = true
	// A departure that scripts a comeback opens the report gate *before* the
	// link is disturbed: the eviction (or retirement), the quota recompute,
	// and every other peer's report-gate check are then all ordered after the
	// increment, so the run cannot end in the gap between the departure and
	// the rejoin request reaching the scheduler. endHandshake is rejoin's
	// job (right after the catch-up, before the peer's own next report);
	// error paths that never reach rejoin release the gate here.
	if p.script.Rejoin {
		p.h.beginHandshake()
	}
	switch p.script.Action {
	case ChurnLeave:
		if err := p.link.Send(&Leave{ClientID: p.seat}); err != nil {
			if p.script.Rejoin {
				p.h.endHandshake()
			}
			return fmt.Errorf("%s: sending leave: %v", p.name, err)
		}
		// Keep the link open until the server has processed the Leave: closing
		// it immediately would race the retirement — a broadcast hitting the
		// closed link first reads as a crash and evicts the seat, which is
		// exactly the noise a clean departure must never make.
		retired := p.h.awaitLog(fmt.Sprintf("seat %d retired at task", p.seat))
		p.link.Close()
		if !retired {
			if p.script.Rejoin {
				p.h.endHandshake()
			}
			return fmt.Errorf("%s: seat %d never logged as retired", p.name, p.seat)
		}
		if !p.script.Rejoin {
			p.left = true
			return nil
		}
		return p.rejoin(task)
	case ChurnCrash:
		p.link.Close()
		if !p.script.Rejoin {
			p.crashed = true
			p.crashTask = task
			return nil
		}
		if !p.h.awaitLog(fmt.Sprintf("evicted client %d at task", p.seat)) {
			p.h.endHandshake()
			return fmt.Errorf("%s: seat %d never logged as evicted", p.name, p.seat)
		}
		return p.rejoin(task)
	}
	if p.script.Rejoin {
		p.h.endHandshake()
	}
	return fmt.Errorf("%s: unknown action %d", p.name, p.script.Action)
}

// rejoin splices the peer back in through the v4 rejoin path and resumes
// from the server's catch-up. task is where the departure happened, so a
// rejoin foreclosed by the end of the run can settle the final state.
func (p *churnPeer) rejoin(task int) error {
	sEnd, cEnd := LoopbackCap(p.h.caps)
	p.h.register(cEnd)
	// The report gate is already held (act opened it before the departure);
	// it is released as soon as the scheduler's reply arrives, before the
	// peer's own resume can reach a gated report.
	p.h.admits <- admission{seat: p.seat, lastVersion: p.lastVer, link: sEnd}
	p.link = cEnd
	cu, err := p.recvCatchup()
	p.h.endHandshake()
	if err != nil {
		if p.h.runEnded() {
			// The run completed before the rejoin was consumed; the departure
			// stands as this peer's final state.
			if p.script.Action == ChurnCrash {
				p.crashed = true
				p.crashTask = task
			} else {
				p.left = true
			}
			return nil
		}
		return fmt.Errorf("%s: rejoin of seat %d: %v", p.name, p.seat, err)
	}
	return p.resume(cu)
}

// recvCatchup reads the catch-up reply off a fresh link.
func (p *churnPeer) recvCatchup() (*Catchup, error) {
	msg, err := p.link.Recv()
	if err != nil {
		return nil, err
	}
	cu, ok := msg.(*Catchup)
	if !ok {
		return nil, fmt.Errorf("got %T, want *Catchup", msg)
	}
	return cu, nil
}

// resume continues the run from a catch-up: TaskDone waits for the next
// task, TaskFinal owes the current task's report, and a plain catch-up
// resumes the current task's uploads after the Seen the server counted.
func (p *churnPeer) resume(cu *Catchup) error {
	p.lastVer = cu.Version
	switch {
	case cu.TaskDone:
		if cu.TaskIdx+1 >= p.h.cfg.Tasks {
			return nil
		}
		if err := p.awaitRoundStart(cu.TaskIdx + 1); err != nil {
			return err
		}
		return p.tasks(cu.TaskIdx+1, 0)
	case cu.TaskFinal:
		if err := p.report(cu.TaskIdx); err != nil {
			return err
		}
		if cu.TaskIdx+1 >= p.h.cfg.Tasks {
			return nil
		}
		if err := p.awaitRoundStart(cu.TaskIdx + 1); err != nil {
			return err
		}
		return p.tasks(cu.TaskIdx+1, 0)
	default:
		return p.tasks(cu.TaskIdx, cu.Seen)
	}
}

// awaitRoundStart drains broadcasts until the expected task's announcement.
func (p *churnPeer) awaitRoundStart(expect int) error {
	for {
		msg, err := p.link.Recv()
		if err != nil {
			return fmt.Errorf("%s: waiting for task %d's RoundStart: %v", p.name, expect, err)
		}
		switch m := msg.(type) {
		case *GlobalModel:
			p.lastVer = m.Version
		case *RoundStart:
			if m.TaskIdx != expect {
				return fmt.Errorf("%s: RoundStart for task %d, want %d", p.name, m.TaskIdx, expect)
			}
			return nil
		}
	}
}

// RunChurn executes one churn-simulation run: it builds an asynchronous
// server over loopback links with the scripted founding cohort, drives every
// scripted peer concurrently (joins and rejoins are injected on the channel
// Server.Accept's acceptor would feed), and audits the run against the
// elastic-membership invariants. The returned report's Violations list is
// empty iff every invariant held; the error covers malformed configurations
// only — a misbehaving run is a report full of violations, not an error.
func RunChurn(cfg ChurnConfig) (*ChurnReport, error) {
	if cfg.Tasks <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fed: churn: need positive Tasks and Rounds, got %d/%d", cfg.Tasks, cfg.Rounds)
	}
	founders, anchored := 0, false
	for _, sc := range cfg.Scripts {
		if sc.Join {
			continue
		}
		founders++
		if sc.Action == ChurnStay || sc.Rejoin {
			anchored = true
		}
	}
	if founders == 0 {
		return nil, fmt.Errorf("fed: churn: no founding seats (every script is a joiner)")
	}
	if !anchored {
		return nil, fmt.Errorf("fed: churn: no founding seat survives to the end — the cohort would die out")
	}
	maxCohort := cfg.MaxCohort
	if maxCohort == 0 {
		maxCohort = len(cfg.Scripts)
	}
	if maxCohort < founders {
		return nil, fmt.Errorf("fed: churn: MaxCohort %d below the founding cohort of %d", maxCohort, founders)
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 60 * time.Second
	}

	h := &churnHarness{
		cfg:       cfg,
		maxCohort: maxCohort,
		timeout:   timeout,
		caps:      len(cfg.Scripts)*cfg.Rounds*cfg.Tasks + 4*cfg.Tasks + 16,
		admits:    make(chan admission, len(cfg.Scripts)), // a peer has one handshake in flight at most
		seats:     map[int]*churnPeer{},
		joinGates: map[int]int{},
	}
	h.cond = sync.NewCond(&h.mu)

	links := make([]Transport, 0, founders)
	peers := make([]*churnPeer, 0, len(cfg.Scripts))
	for i, sc := range cfg.Scripts {
		p := &churnPeer{
			h: h, script: sc, seat: -1,
			name:     fmt.Sprintf("peer[%d]", i),
			sent:     make([]int, cfg.Tasks),
			reported: make([]bool, cfg.Tasks),
		}
		switch {
		case !sc.Join:
			sEnd, cEnd := LoopbackCap(h.caps)
			h.register(cEnd)
			p.seat = len(links)
			p.link = cEnd
			links = append(links, sEnd)
			h.seats[p.seat] = p
		case sc.JoinAfterCommits <= 0:
			h.handshakes++
		default:
			h.joinGates[sc.JoinAfterCommits]++
		}
		peers = append(peers, p)
	}

	agg := &churnAgg{inner: &SparseFedAvg{}, h: h}
	srv := NewServer(ServerConfig{
		Method: "churn", NumClients: founders, MaxCohort: maxCohort,
		NumTasks: cfg.Tasks, Rounds: cfg.Rounds,
		Scheduler: SchedulerAsync,
		Async:     AsyncConfig{CommitEvery: cfg.CommitEvery, StalenessAlpha: cfg.StalenessAlpha},
		Logf:      h.logf,
	}, agg, links)
	h.srv = srv
	srv.admits = h.admits
	srv.SetObserver(ObserverFuncs{Round: h.roundDone})

	// A slow ticker wakes cond waiters so their deadlines can fire even when
	// no log line or commit arrives to broadcast.
	tickDone, tickExited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tickExited)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.cond.Broadcast()
			case <-tickDone:
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	perr := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *churnPeer) {
			defer wg.Done()
			perr[i] = p.run()
		}(i, p)
	}
	res, runErr := srv.Run(ctx)

	h.mu.Lock()
	h.done = true
	ends := append([]Transport(nil), h.ends...)
	h.mu.Unlock()
	h.cond.Broadcast()
	for _, t := range ends {
		t.Close()
	}
	wg.Wait()
	close(tickDone)
	<-tickExited

	if runErr != nil {
		h.violate("server run failed: %v", runErr)
	}
	for i, err := range perr {
		if err != nil {
			h.violate("peer[%d]: %v", i, err)
		}
	}
	h.audit(res, peers)
	return &ChurnReport{
		Result:     res,
		Commits:    h.commits,
		Seats:      srv.book.size(),
		Violations: h.violations,
	}, nil
}

// audit reconciles the server's final books against the peers' ground
// truth: seat-book shape, liveness, death and departure records, refusal
// and eviction counts, the exactly-once report matrix, and per-task upload
// closure. Everything is quiesced when it runs, so plain reads are safe.
func (h *churnHarness) audit(res *Result, peers []*churnPeer) {
	srv := h.srv
	if srv.book.size() > h.maxCohort {
		h.violate("seat book grew to %d, above MaxCohort %d", srv.book.size(), h.maxCohort)
	}

	expectedAlive, expectedEvictions := 0, 0
	for _, p := range peers {
		if p.seat < 0 {
			continue // never admitted; its run error is already a violation
		}
		if p.script.Action == ChurnCrash && p.acted {
			expectedEvictions++
		}
		deadAt, dead := res.DeadAfter[p.seat]
		st, _ := srv.book.at(p.seat)
		switch {
		case p.left:
			if !st.left || st.alive {
				h.violate("%s: seat %d departed cleanly but the book says left=%v alive=%v",
					p.name, p.seat, st.left, st.alive)
			}
			if dead {
				h.violate("%s: clean leave of seat %d recorded as dead at task %d", p.name, p.seat, deadAt)
			}
		case p.crashed:
			if !dead || deadAt != p.crashTask {
				h.violate("%s: crashed seat %d at task %d, DeadAfter says (%d, %v)",
					p.name, p.seat, p.crashTask, deadAt, dead)
			}
			if st.alive {
				h.violate("%s: crashed seat %d still alive", p.name, p.seat)
			}
		default:
			expectedAlive++
			if !st.alive {
				h.violate("%s: seat %d ran to completion but is not alive", p.name, p.seat)
			}
			if dead {
				h.violate("%s: completed seat %d recorded dead at task %d", p.name, p.seat, deadAt)
			}
		}
	}
	if got := srv.AliveClients(); got != expectedAlive {
		h.violate("%d alive seats at the end, want %d", got, expectedAlive)
	}
	_, _, evicted, refused := srv.Rejections()
	if refused != 0 {
		h.violate("%d membership handshakes refused, want 0 for a well-formed schedule", refused)
	}
	if evicted != expectedEvictions {
		h.violate("%d evictions, want %d (one per scripted crash)", evicted, expectedEvictions)
	}

	if len(res.PerTask) != h.cfg.Tasks {
		h.violate("run covered %d of %d tasks", len(res.PerTask), h.cfg.Tasks)
		return
	}

	// Exactly-once reports: every matrix cell must equal the mean — summed
	// in ascending seat order, exactly as the server computes it — of the
	// sentinel accuracies of the seats whose reports should have landed.
	seatOrder := make([]int, 0, len(h.seats))
	for seat := range h.seats {
		seatOrder = append(seatOrder, seat)
	}
	sort.Ints(seatOrder)
	for t := 0; t < h.cfg.Tasks; t++ {
		var sum float64
		n := 0
		for _, seat := range seatOrder {
			if p := h.seats[seat]; p.reported[t] {
				sum += p.accConst()
				n++
			}
		}
		if n == 0 {
			h.violate("task %d closed with no reports at all", t)
			continue
		}
		want := sum / float64(n)
		for q := 0; q <= t; q++ {
			if got := res.Matrix.Get(t, q); got != want {
				h.violate("matrix(%d,%d) = %v, want %v — the mean of the %d reports that landed (a lost or duplicated report skews it)",
					t, q, got, want, n)
			}
		}
	}

	// Upload closure: on loopback nothing in flight is ever lost, so every
	// update a peer delivered must be accounted by exactly one commit window
	// of its task — folded, or counted as a staleness/hardening rejection.
	folds := make([]int, h.cfg.Tasks)
	for _, st := range h.commits {
		if st.TaskIdx >= 0 && st.TaskIdx < len(folds) {
			folds[st.TaskIdx] += st.Participants + st.Stale + st.NonFinite
		}
	}
	for t := 0; t < h.cfg.Tasks; t++ {
		want := 0
		for _, p := range peers {
			want += p.sent[t]
		}
		if folds[t] != want {
			h.violate("task %d: commits account for %d uploads, peers delivered %d", t, folds[t], want)
		}
	}
}

// RandomChurnScripts derives a seeded random churn schedule: founders
// founding seats (seat 0 always stays, anchoring the cohort) and joiners
// mid-run joiners, each with a random membership move. The same seed always
// yields the same schedule, so a failing property-test seed reproduces its
// exact scripts; rejoin variants never target the final task, where the
// rejoin splice could race the end of the run.
func RandomChurnScripts(seed uint64, founders, joiners, tasks, rounds int) []ChurnScript {
	rng := tensor.NewRNG(seed ^ 0xC0423)
	scripts := make([]ChurnScript, 0, founders+joiners)
	for i := 0; i < founders; i++ {
		sc := ChurnScript{}
		if i > 0 {
			sc = randomChurnScript(rng, tasks, rounds)
		}
		scripts = append(scripts, sc)
	}
	for j := 0; j < joiners; j++ {
		sc := randomChurnScript(rng, tasks, rounds)
		sc.Join = true
		sc.JoinAfterCommits = 1 + rng.Intn(2)
		scripts = append(scripts, sc)
	}
	return scripts
}

// randomChurnScript draws one membership move: stay, clean leave, crash, or
// crash-and-rejoin, at a random task and upload offset.
func randomChurnScript(rng *tensor.RNG, tasks, rounds int) ChurnScript {
	sc := ChurnScript{AfterUploads: rng.Intn(rounds + 1)}
	switch rng.Intn(4) {
	case 0: // stay
	case 1:
		sc.Action = ChurnLeave
		sc.AtTask = rng.Intn(tasks)
	case 2:
		sc.Action = ChurnCrash
		sc.AtTask = rng.Intn(tasks)
	case 3:
		sc.Action = ChurnCrash
		sc.Rejoin = true
		if tasks > 1 {
			sc.AtTask = rng.Intn(tasks - 1)
		}
	}
	return sc
}
