package main

import "testing"

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	// run [0,100]
	//   recv [10,60]            parent run
	//     step [15,30]          parent recv   (client 0)
	//     step [25,50]          parent recv   (client 1, overlaps the first)
	//       gemm [26,36]        parent second step (nested two deep)
	//   send [60,70]            parent run
	//   handle [90,130]         parent run, sticks out of it
	spans := []span{
		{ID: 0, Parent: noParent, Name: spanRun, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: spanRecv, Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: spanStep, Start: 15, End: 30},
		{ID: 3, Parent: 1, Name: spanStep, Start: 25, End: 50},
		{ID: 4, Parent: 3, Name: "gemm", Start: 26, End: 36},
		{ID: 5, Parent: 0, Name: spanSend, Start: 60, End: 70},
		{ID: 6, Parent: 0, Name: spanHandle, Start: 90, End: 130},
	}
	want := []int64{
		100 - (50 + 10 + 10), // run: recv + send + the clipped part of handle
		50 - 35,              // recv: its children cover [15,50] once, not 15+25
		15,                   // leaf
		25 - 10,              // step minus its nested child
		10,                   // leaf
		10,                   // leaf
		40,                   // a span's own duration is not clipped
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerRecordsParentsAndRounds(t *testing.T) {
	tr := newTracer(false)
	tr.start()
	a := tr.begin(spanRecv, tr.root, 0)
	b := tr.begin(spanStep, a, 1)
	tr.end(b)
	tr.end(a)
	tr.round.Store(2)
	c := tr.begin(spanSend, tr.root, 0)
	tr.end(c)
	spans := tr.finish()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	if spans[b].Parent != a || spans[a].Parent != tr.root || spans[tr.root].Parent != noParent {
		t.Errorf("parents: step %d recv %d root %d", spans[b].Parent, spans[a].Parent, spans[tr.root].Parent)
	}
	if spans[a].Round != 1 || spans[b].Round != 1 || spans[c].Round != 2 {
		t.Errorf("rounds: %d %d %d, want 1 1 2", spans[a].Round, spans[b].Round, spans[c].Round)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if spans[tr.root].End < spans[c].End {
		t.Error("the root must close last")
	}
}
