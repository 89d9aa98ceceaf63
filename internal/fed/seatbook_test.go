package fed

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
)

// TestSeatBookTransitions pins the membership invariants on the seat book
// alone — no scheduler, no links that carry anything: each case drives the
// transitions on a fresh two-founder book capped at four seats.
func TestSeatBookTransitions(t *testing.T) {
	const collect, finish = false, true // the scheduler's phase, as admit and readmit take it
	links := func(n int) []Transport {
		ls := make([]Transport, n)
		for i := range ls {
			ls[i] = deadLink{}
		}
		return ls
	}
	// told records what the book tells the seated link.
	told := func(r *resume) func(int, resume) error {
		return func(_ int, got resume) error { *r = got; return nil }
	}
	var r resume
	cases := []struct {
		name string
		run  func(t *testing.T, b *seatBook)
	}{
		{"seat IDs only append and are never recycled", func(t *testing.T, b *seatBook) {
			b.evict(0, 0)
			b.retire(1)
			for want := 2; want < 4; want++ {
				if id, err := b.admit(deadLink{}, collect, told(&r)); err != nil || id != want {
					t.Fatalf("admit = seat %d, %v; want seat %d with seats 0 and 1 vacant", id, err, want)
				}
			}
			if err := b.readmit(0, deadLink{}, collect, told(&r)); err != nil {
				t.Fatal(err)
			}
			if id, err := b.admit(deadLink{}, collect, told(&r)); !errors.Is(err, errBookFull) || b.size() != 4 {
				t.Fatalf("admit at MaxCohort = seat %d, %v, size %d; want a refusal", id, err, b.size())
			}
			failed := errors.New("reply failed")
			b.maxCohort = 5
			if _, err := b.admit(deadLink{}, collect, func(int, resume) error { return failed }); err != failed || b.size() != 4 {
				t.Fatalf("admit with a failed reply: %v, size %d; want the seat ID not burned", err, b.size())
			}
			if b.refused != 1 {
				t.Fatalf("refused = %d, want 1", b.refused)
			}
		}},
		{"a clean leave is never dead or evicted", func(t *testing.T, b *seatBook) {
			if !b.retire(1) || b.retire(1) {
				t.Fatal("retire must report the live seat once")
			}
			st, _ := b.at(1)
			if st.alive || !st.left || st.dead || b.evicted != 0 || len(b.deadAfter()) != 0 {
				t.Fatalf("retired seat %+v, evicted %d, DeadAfter %v", st, b.evicted, b.deadAfter())
			}
			if b.evict(1, 3) || b.evicted != 0 {
				t.Fatal("evicting a retired seat must not count")
			}
			if !b.evict(0, 2) || b.evict(0, 3) || b.evicted != 1 || !reflect.DeepEqual(b.deadAfter(), map[int]int{0: 2}) {
				t.Fatalf("evicted %d, DeadAfter %v; want one eviction at task 2", b.evicted, b.deadAfter())
			}
			if err := b.readmit(1, deadLink{}, collect, told(&r)); err != nil {
				t.Fatal(err)
			}
			if st, _ := b.at(1); !st.alive || st.left || st.gen != 2 {
				t.Fatalf("rejoined retired seat %+v, want it reopened on generation 2", st)
			}
		}},
		{"live-seat and unknown-seat readmit are refused", func(t *testing.T, b *seatBook) {
			for id, want := range map[int]error{0: errSeatAlive, 2: errSeatUnknown, -1: errSeatUnknown} {
				greeted := false
				err := b.readmit(id, deadLink{}, collect, func(int, resume) error { greeted = true; return nil })
				if !errors.Is(err, want) || greeted {
					t.Fatalf("readmit(%d) = %v (greeted %v), want %v and no reply", id, err, greeted, want)
				}
			}
			if st, _ := b.at(0); b.refused != 3 || b.alive() != 2 || st.gen != 1 {
				t.Fatalf("refused %d, alive %d, seat 0 generation %d", b.refused, b.alive(), st.gen)
			}
		}},
		{"a reported seat readmitted in the finish phase is told done", func(t *testing.T, b *seatBook) {
			b.uploaded(0, 1, 0.5)
			b.report(0, 0, []float64{0.5}, false)
			b.evict(0, 0)
			b.evict(1, 0)
			if b.owing() != 0 {
				t.Fatalf("owing = %d with nobody alive", b.owing())
			}
			if err := b.readmit(0, deadLink{}, finish, told(&r)); err != nil || r != (resume{seen: 1, done: true}) || b.owing() != 0 {
				t.Fatalf("reported seat: %v, told %+v, owing %d; want done and nothing owed", err, r, b.owing())
			}
			if err := b.readmit(1, deadLink{}, finish, told(&r)); err != nil || r != (resume{final: true}) || b.owing() != 1 {
				t.Fatalf("unreported seat: %v, told %+v, owing %d; want final and one report owed", err, r, b.owing())
			}
			if len(b.deadAfter()) != 0 {
				t.Fatalf("DeadAfter = %v after both rejoined", b.deadAfter())
			}
		}},
		{"a finish-phase admit is pre-reported", func(t *testing.T, b *seatBook) {
			b.report(0, 0, []float64{0.5}, false)
			id, err := b.admit(deadLink{}, finish, told(&r))
			if err != nil || r != (resume{done: true}) || b.owing() != 1 {
				t.Fatalf("admit: %v, told %+v, owing %d; want done and only seat 1 owing", err, r, b.owing())
			}
			if b.evict(id, 0); b.owing() != 1 {
				t.Fatalf("owing = %d after evicting the joiner, want 1", b.owing())
			}
			if id, _ = b.admit(deadLink{}, collect, told(&r)); r != (resume{}) || b.owing() != 2 {
				t.Fatalf("collect-phase admit told %+v, owing %d; want the full task owed", r, b.owing())
			}
			b.beginTask(false)
			if b.owing() != 3 {
				t.Fatalf("owing = %d after beginTask, want every alive seat", b.owing())
			}
		}},
		{"records and restore round-trip a grown book", func(t *testing.T, b *seatBook) {
			for i := 0; i < 2; i++ {
				if _, err := b.admit(deadLink{}, collect, told(&r)); err != nil {
					t.Fatal(err)
				}
			}
			b.uploaded(0, 2, 0.25)
			b.uploaded(3, 1, 0.5)
			b.evict(1, 1)
			b.retire(2)
			want := []checkpoint.SeatRecord{
				{Alive: true, SimSeconds: 2.25, CommSeconds: 0.25, Seen: 1},
				{Dead: true, DeadAtTask: 1},
				{Left: true},
				{Alive: true, SimSeconds: 1.5, CommSeconds: 0.5, Seen: 1},
			}
			if got := b.records(false); !reflect.DeepEqual(got, want) {
				t.Fatalf("records = %+v\nwant %+v", got, want)
			}
			if got := b.records(true); got[0].Seen != 0 || got[3].Seen != 0 || got[0].SimSeconds != 2.25 {
				t.Fatalf("boundary records = %+v, want Seen zeroed and clocks kept", got)
			}
			re := newSeatBook(links(4), 4)
			re.restore(&checkpoint.ServerSnapshot{Seats: want, WireSent: 7, WireRecv: 9})
			if got := re.records(false); re.alive() != 0 || !reflect.DeepEqual(got[1:3], want[1:3]) ||
				got[0].Seen != 1 || got[3].SimSeconds != 1.5 || !reflect.DeepEqual(re.deadAfter(), map[int]int{1: 1}) {
				t.Fatalf("restored records = %+v, DeadAfter %v", got, re.deadAfter())
			}
			if sent, recv := re.wireTraffic(); sent != 7 || recv != 9 {
				t.Fatalf("restored wire traffic = %d/%d, want 7/9", sent, recv)
			}
			if !re.expecting() {
				t.Fatal("restored book expects nobody, want seats 0 and 3")
			}
			for _, id := range []int{0, 2, 3} {
				if err := re.readmit(id, deadLink{}, collect, told(&r)); err != nil {
					t.Fatal(err)
				}
			}
			want[2] = checkpoint.SeatRecord{Alive: true}
			if got := re.records(false); re.expecting() || !reflect.DeepEqual(got, want) {
				t.Fatalf("after the rejoins: expecting %v, records = %+v\nwant %+v", re.expecting(), got, want)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newSeatBook(links(2), 4)) })
	}
}
