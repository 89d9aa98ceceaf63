package fed

import (
	"errors"
	"iter"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/tensor"
)

// seat is everything the server keeps per client ID. A seat outlives its
// connection: eviction and retirement drop the link and keep the rest, which
// is what a rejoin is re-admitted against.
type seat struct {
	link Transport
	gen  int // link generation, bumped each time a link is seated

	alive   bool
	left    bool // retired by a clean Leave: not alive, never dead
	dead    bool // lost (evicted, or a device death report) at task deadAt
	deadAt  int
	offline bool // sitting out the current lockstep round (sync dropout draw)

	expect   bool // alive at the restored cut and not yet rejoined
	reported bool // owes no report for the current task

	seen      int       // uploads received this task
	sim, comm float64   // device clocks (asynchronous clock model)
	row       []float64 // the current task's accuracy report
}

// resume is what a seated link is told before the book changes: how many of
// the task's uploads the book already holds and, in the finish phase — once
// the task-final broadcast is out — whether the seat still owes the report
// (final) or sits the rest of the task out (done).
type resume struct {
	seen        int
	done, final bool
}

// Refusals of a membership handshake; the caller closes the link.
var (
	errBookFull    = errors.New("cohort is at capacity")
	errSeatUnknown = errors.New("unknown seat")
	errSeatAlive   = errors.New("seat is still alive")
)

// seatBook is the server's membership ledger and the only code that indexes
// per-seat state. Every method runs on the scheduler goroutine except
// wireTraffic, which is why seating a link takes trafficMu.
type seatBook struct {
	seats     []seat
	maxCohort int

	// evicted and refused are the run's membership counters behind
	// Server.Rejections: seats lost to a transport failure, and handshakes
	// turned away (a live or unknown rejoin, a join beyond maxCohort).
	evicted, refused int

	// trafficMu guards the seats slice header and every seat's link against
	// wireTraffic; retiredSent/retiredRecv keep the bytes of links a rejoin
	// replaced.
	trafficMu   sync.Mutex
	retiredSent int64
	retiredRecv int64
}

// newSeatBook opens one alive seat per founding link.
func newSeatBook(links []Transport, maxCohort int) *seatBook {
	b := &seatBook{seats: make([]seat, len(links)), maxCohort: maxCohort}
	for i, t := range links {
		b.seats[i] = seat{link: t, gen: 1, alive: true}
	}
	return b
}

// size is the number of seats ever opened.
func (b *seatBook) size() int { return len(b.seats) }

// at returns a copy of seat id, false when no such seat was ever opened.
func (b *seatBook) at(id int) (seat, bool) {
	if id < 0 || id >= len(b.seats) {
		return seat{}, false
	}
	return b.seats[id], true
}

// live iterates the alive seats in ascending ID — the order that keeps
// lockstep aggregation reproducible. A seat evicted mid-iteration is skipped
// from then on.
func (b *seatBook) live() iter.Seq2[int, seat] {
	return func(yield func(int, seat) bool) {
		for id := range b.seats {
			if b.seats[id].alive && !yield(id, b.seats[id]) {
				return
			}
		}
	}
}

// count is the number of seats pred holds for.
func (b *seatBook) count(pred func(seat) bool) int {
	n := 0
	for id := range b.seats {
		if pred(b.seats[id]) {
			n++
		}
	}
	return n
}

// alive counts the seats with a live link.
func (b *seatBook) alive() int {
	return b.count(func(st seat) bool { return st.alive })
}

// admit opens the next seat for a joiner. Seat IDs only append and are never
// recycled: the new ID is the book's size, whatever happened to earlier
// seats. A join beyond maxCohort is refused. greet runs before the book
// changes, so a failed reply burns no ID. A seat admitted in the finish phase
// never trained the task: it is pre-reported, so it is told done and neither
// it nor its eviction moves owing.
func (b *seatBook) admit(link Transport, finish bool, greet func(id int, r resume) error) (int, error) {
	id := len(b.seats)
	if id >= b.maxCohort {
		b.refused++
		return id, errBookFull
	}
	if err := greet(id, resume{done: finish}); err != nil {
		return id, err
	}
	b.trafficMu.Lock()
	b.seats = append(b.seats, seat{link: link, gen: 1, alive: true, reported: finish})
	b.trafficMu.Unlock()
	return id, nil
}

// readmit seats a rejoining client's fresh link. A live seat and a seat that
// was never opened are refused. greet runs before the book changes and
// carries the retained upload count; in the finish phase a seat that already
// reported is told done — never asked for a second report — and one that has
// not is told final and counts in owing again. Seating the link clears the
// death record and the restored-cut expectation, reopens a retired seat, and
// bumps the generation so the old link's reader is recognised as superseded.
func (b *seatBook) readmit(id int, link Transport, finish bool, greet func(id int, r resume) error) error {
	if id < 0 || id >= len(b.seats) {
		b.refused++
		return errSeatUnknown
	}
	st := &b.seats[id]
	if st.alive {
		b.refused++
		return errSeatAlive
	}
	if err := greet(id, resume{seen: st.seen, done: finish && st.reported, final: finish && !st.reported}); err != nil {
		return err
	}
	b.trafficMu.Lock()
	if w, ok := st.link.(byteCounter); ok {
		b.retiredSent += w.BytesSent()
		b.retiredRecv += w.BytesRecv()
	}
	st.link = link
	b.trafficMu.Unlock()
	st.gen++
	st.alive, st.left, st.expect = true, false, false
	st.dead, st.deadAt = false, 0
	return nil
}

// evict closes a seat whose transport failed and records the task it was
// lost at; everything else is retained for a rejoin. It reports whether the
// seat was alive — evicting a seat twice counts once.
func (b *seatBook) evict(id, task int) bool {
	st := &b.seats[id]
	if !st.alive {
		return false
	}
	st.alive, st.dead, st.deadAt = false, true, task
	b.evicted++
	st.link.Close()
	return true
}

// retire closes a seat on a clean Leave. A clean leave is never an eviction:
// no death record, no eviction count. It reports whether the seat was alive.
func (b *seatBook) retire(id int) bool {
	st := &b.seats[id]
	if !st.alive {
		return false
	}
	st.alive, st.left = false, true
	st.link.Close()
	return true
}

// uploaded counts one received upload against the seat's task quota and
// advances its device clocks.
func (b *seatBook) uploaded(id int, compute, comm float64) {
	st := &b.seats[id]
	st.seen++
	st.sim += compute + comm
	st.comm += comm
}

// report closes the task for a seat: its accuracy row stands, or — the
// device's own death report — the seat is recorded dead at task. Either way
// it is reported, so a rejoin can never ask it for a second report.
func (b *seatBook) report(id, task int, row []float64, dead bool) {
	st := &b.seats[id]
	st.reported = true
	if dead {
		st.alive, st.dead, st.deadAt = false, true, task
		return
	}
	st.row = row
}

// beginTask opens a task: nobody has reported, no row stands, and — unless
// the task resumes from a restored cut — no upload has been seen.
func (b *seatBook) beginTask(keepSeen bool) {
	for id := range b.seats {
		st := &b.seats[id]
		st.reported, st.row = false, nil
		if !keepSeen {
			st.seen = 0
		}
	}
}

// drawOffline makes the lockstep round's dropout draws: ascending ID, no
// draw for a seat that is not alive (the draw sequence is part of the
// reproducibility contract), and at least one alive seat stays online.
func (b *seatBook) drawOffline(prob float64, rng *tensor.RNG) {
	first, anyOnline := -1, false
	for id := range b.seats {
		st := &b.seats[id]
		st.offline = st.alive && prob > 0 && rng.Float64() < prob
		if st.alive && first < 0 {
			first = id
		}
		anyOnline = anyOnline || st.alive && !st.offline
	}
	if !anyOnline && first >= 0 {
		b.seats[first].offline = false
	}
}

// allUploaded reports whether every alive seat has delivered its rounds
// uploads for the current task.
func (b *seatBook) allUploaded(rounds int) bool {
	return b.count(func(st seat) bool { return st.alive && st.seen < rounds }) == 0
}

// expecting reports whether a restored seat is still awaited: its client was
// alive at the cut and has not rejoined, so the task must not close — and an
// empty cohort is not "all clients lost" — without it.
func (b *seatBook) expecting() bool {
	return b.count(func(st seat) bool { return st.expect }) > 0
}

// owing counts the seats the finish phase still waits on: alive and not
// reported.
func (b *seatBook) owing() int {
	return b.count(func(st seat) bool { return st.alive && !st.reported })
}

// accuracy sums learned task p over the rows reported this task, in
// ascending seat order, and counts them.
func (b *seatBook) accuracy(p int) (sum float64, n int) {
	for id := range b.seats {
		if row := b.seats[id].row; p < len(row) {
			sum += row[p]
			n++
		}
	}
	return sum, n
}

// slowest returns the largest device clocks: under the asynchronous clock
// model a task is done when its slowest client is.
func (b *seatBook) slowest() (sim, comm float64) {
	for id := range b.seats {
		sim = max(sim, b.seats[id].sim)
		comm = max(comm, b.seats[id].comm)
	}
	return sim, comm
}

// deadAfter renders the death records as Result.DeadAfter.
func (b *seatBook) deadAfter() map[int]int {
	m := map[int]int{}
	for id := range b.seats {
		if b.seats[id].dead {
			m[id] = b.seats[id].deadAt
		}
	}
	return m
}

// records is the book's half of a snapshot cut. A boundary cut names the
// next task, for which nothing has been seen yet.
func (b *seatBook) records(boundary bool) []checkpoint.SeatRecord {
	recs := make([]checkpoint.SeatRecord, len(b.seats))
	for id := range b.seats {
		st := &b.seats[id]
		recs[id] = checkpoint.SeatRecord{
			Alive: st.alive, Left: st.left, Dead: st.dead, DeadAtTask: st.deadAt,
			SimSeconds: st.sim, CommSeconds: st.comm,
		}
		if !boundary {
			recs[id].Seen = st.seen
		}
	}
	return recs
}

// restore rewrites a book of placeholder links — one per seat record — to
// a snapshot cut: nobody is alive, every seat alive at the cut is expected
// back through readmit, a seat that left stays left (neither awaited nor
// dead), and the cut's measured traffic stands in for the lost links'.
func (b *seatBook) restore(snap *checkpoint.ServerSnapshot) {
	for id, rec := range snap.Seats {
		st := &b.seats[id]
		st.alive, st.expect, st.left = false, rec.Alive, rec.Left
		st.dead, st.deadAt = rec.Dead, rec.DeadAtTask
		st.sim, st.comm, st.seen = rec.SimSeconds, rec.CommSeconds, rec.Seen
	}
	b.trafficMu.Lock()
	b.retiredSent, b.retiredRecv = snap.WireSent, snap.WireRecv
	b.trafficMu.Unlock()
}

// byteCounter is a link that measures its traffic, as a WireTransport does.
type byteCounter interface {
	BytesSent() int64
	BytesRecv() int64
}

// wireTraffic sums the measured bytes of every link the book has held that
// counts them. Safe from any goroutine.
func (b *seatBook) wireTraffic() (sent, recv int64) {
	b.trafficMu.Lock()
	defer b.trafficMu.Unlock()
	sent, recv = b.retiredSent, b.retiredRecv
	for id := range b.seats {
		if w, ok := b.seats[id].link.(byteCounter); ok {
			sent += w.BytesSent()
			recv += w.BytesRecv()
		}
	}
	return sent, recv
}

// closeAll closes every seat's link.
func (b *seatBook) closeAll() {
	for id := range b.seats {
		b.seats[id].link.Close()
	}
}
