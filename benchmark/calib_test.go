package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/fed"
)

func TestSlowdown(t *testing.T) {
	if slow, factor := slowdown(refNominalS, refNominalS, 0.7); slow != 1 || factor != 1 {
		t.Errorf("at nominal speed: slow %g, factor %g; want 1, 1", slow, factor)
	}
	// The program is taken to see its sensitivity's share of what the kernel
	// sees: a kernel 80 % slower, a workload of sensitivity 0.5 40 % slower.
	slow, factor := slowdown(1.6*refNominalS, 2.0*refNominalS, 0.5)
	if math.Abs(slow-1.8) > 1e-12 || math.Abs(factor-1.4) > 1e-12 {
		t.Errorf("slow %g, factor %g; want 1.8, 1.4", slow, factor)
	}
}

func TestRoundRefMsStraddlesTwoSegments(t *testing.T) {
	segs := []segment{{factor: 1}, {factor: 1.5}, {factor: 2}}
	inOne := roundSample{ms: 30, seg: 1}
	if got, want := inOne.refMs(segs), 20.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("round in one segment = %g, want %g", got, want)
	}
	straddling := roundSample{ms: 30, ms2: 12, seg: 1}
	if got, want := straddling.refMs(segs), 26.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("straddling round = %g, want %g", got, want)
	}
}

// TestRoundClockSplitsAtTaskBoundaries drives the train job's observer the
// way the server does — rounds, then the task report — and checks that a
// metered job gets one segment per task, that the round in progress at a
// boundary straddles the probe, and that the probe itself is in no round.
func TestRoundClockSplitsAtTaskBoundaries(t *testing.T) {
	const tasks, rounds = 3, 2
	m := &meter{cal: newCalibrator(), sensitivity: 0.5}
	c := &roundClock{meter: m, taskSeen: make([]int, tasks)}
	m.start()
	c.last = time.Now()
	for task := 0; task < tasks; task++ {
		for r := 0; r < rounds; r++ {
			c.RoundDone(fed.RoundStats{})
		}
		c.TaskDone(fed.TaskPoint{TaskIdx: task})
	}
	m.stop()
	if len(m.segs) != tasks {
		t.Fatalf("%d segments for %d tasks", len(m.segs), tasks)
	}
	if len(c.rounds) != tasks*rounds {
		t.Fatalf("%d rounds, want %d", len(c.rounds), tasks*rounds)
	}
	var total float64
	for i, r := range c.rounds {
		wantSeg, straddles := i/rounds, i%rounds == 0 && i > 0
		if straddles {
			wantSeg--
		}
		if r.seg != wantSeg || (r.ms2 != 0) != straddles {
			t.Errorf("round %d: segment %d, straddles %v; want %d, %v", i, r.seg, r.ms2 != 0, wantSeg, straddles)
		}
		total += r.ms + r.ms2
	}
	for _, s := range m.segs {
		if s.slow <= 0 || s.factor <= 0 {
			t.Errorf("segment without probes: %+v", s)
		}
	}
	// Two probes between tasks take tens of milliseconds; the rounds, which
	// did nothing, must not contain them.
	if total > 10 {
		t.Errorf("rounds add up to %.1f ms: a probe leaked into them", total)
	}
	for task, n := range c.taskSeen {
		if n != 1 {
			t.Errorf("task %d seen %d times", task, n)
		}
	}
}

func TestMeterWithoutCalibrator(t *testing.T) {
	m := &meter{}
	m.start()
	m.split(time.Now())
	if last := m.stop(); last != 0 {
		t.Errorf("stop returned probe %g without a calibrator", last)
	}
	if len(m.segs) != 2 || m.segs[0].slow != 0 || m.segs[0].factor != 1 {
		t.Errorf("segments %+v: want two, as measured", m.segs)
	}
}
