package main

import "time"

// The benchmark runs on a few hardware threads of a shared host, and what it
// shares is the core: whenever the thread it runs on has a busy sibling — a
// neighbour's, the kernel's, or (with two busy threads of its own) itself —
// the same code takes up to 1.8 times as long, for a fraction of a second or
// for minutes, and raw timings of one commit spread by half their median from
// run to run. Two measures keep the numbers about the program:
//
//   - every run keeps one hardware thread busy (main.go pins GOMAXPROCS to 1),
//     so the benchmark never contends with itself;
//   - every stretch of timed region (a "segment": one task of a training job,
//     one whole ingest job) and every set-up is bracketed by probes of a
//     reference kernel, and its timings are divided by how much slower than
//     nominal the machine ran around it, as far as the probes saw.
//
// The kernel is a fixed amount of scalar floating-point work with several
// independent operations in flight at once: it keeps the core's ports full,
// which is what a busy sibling hurts most and makes it a sensitive detector.
// Real code also waits for memory and the network and sees part of that
// slowdown: the workload's sensitivity (metrics.go). The kernel is written
// here and shares nothing with the program under test, so a change that
// speeds up internal/tensor cannot speed up the yardstick. Probes are outside
// every timed region. End-to-end timings are therefore in reference-speed
// units: what the clock would have read had the kernel run at its nominal
// speed.

const (
	// refLen is the length of the kernel's two vectors: 2 × 32 KiB, resident
	// in the core's own caches.
	refLen = 8192
	// refReps is how many passes one probe makes.
	refReps = 4000
	// refNominalS is one probe's time on the quiet reference box (Xeon
	// 2.1 GHz). It only fixes the unit: on another box every timing is off by
	// one constant factor.
	refNominalS = 0.0232
)

// calibrator runs probes of the reference kernel.
type calibrator struct {
	x, y []float32
	sink float32
}

// newCalibrator prepares the kernel and runs it once, so that the first
// counted probe finds it paged in.
func newCalibrator() *calibrator {
	c := &calibrator{x: make([]float32, refLen), y: make([]float32, refLen)}
	for i := range c.x {
		c.x[i] = float32(i%97) * 0.01
	}
	c.probe()
	return c
}

// refKernel is the fixed work: refReps damped axpy passes.
func refKernel(x, y []float32) float32 {
	y = y[:len(x)]
	var acc float32
	for r := 0; r < refReps; r++ {
		a := float32(r&7)*0.001 + 0.5
		for i, v := range x {
			y[i] = y[i]*0.999 + a*v
		}
		acc += y[r%len(y)]
	}
	return acc
}

// probe runs the kernel once and returns how long it took, in seconds.
func (c *calibrator) probe() float64 {
	t0 := time.Now()
	c.sink += refKernel(c.x, c.y)
	return time.Since(t0).Seconds()
}

// segment is one stretch of a job's timed region between two probes.
type segment struct {
	wallS, cpuS float64
	// slow is the mean of the two probes around the segment over the nominal
	// probe: how much slower than nominal the kernel ran (0 without probes).
	slow float64
	// factor is how much slower than nominal the program is taken to have
	// run: timings divided by it are in reference-speed units.
	factor float64
}

// slowdown is how much slower than nominal a program of the given sensitivity
// is taken to have run between the probes before and after.
func slowdown(before, after, sensitivity float64) (slow, factor float64) {
	slow = (before + after) / 2 / refNominalS
	return slow, 1 + sensitivity*(slow-1)
}

// meter times a job's timed region as a sequence of segments. With a nil
// calibrator it takes no probes and every segment counts as measured.
type meter struct {
	cal         *calibrator
	sensitivity float64
	segs        []segment

	before float64 // the probe that opened the segment
	t0     time.Time
	cpu0   float64
	first  float64 // the probe taken by start
}

// start probes and opens the first segment.
func (m *meter) start() {
	if m.cal != nil {
		m.first = m.cal.probe()
		m.before = m.first
	}
	m.begin()
}

func (m *meter) begin() { m.cpu0, m.t0 = cpuSeconds(), time.Now() }

// end closes the open segment at now and probes.
func (m *meter) end(now time.Time) {
	seg := segment{wallS: now.Sub(m.t0).Seconds(), cpuS: cpuSeconds() - m.cpu0, factor: 1}
	if m.cal != nil {
		after := m.cal.probe()
		seg.slow, seg.factor = slowdown(m.before, after, m.sensitivity)
		m.before = after
	}
	m.segs = append(m.segs, seg)
}

// split closes the open segment at now, probes, opens the next segment and
// returns its start: the caller's own clocks skip the probe with it.
func (m *meter) split(now time.Time) time.Time {
	m.end(now)
	m.begin()
	return m.t0
}

// stop closes the last segment and returns the probe that closed it.
func (m *meter) stop() float64 {
	m.end(time.Now())
	return m.before
}

// seg is the index of the open segment.
func (m *meter) seg() int { return len(m.segs) }

// totals sums the segments.
func (m *meter) totals() (wallS, cpuS float64) {
	for _, s := range m.segs {
		wallS += s.wallS
		cpuS += s.cpuS
	}
	return
}

// roundSample is one round time. A round lies in one segment, or — a train
// job's first round after a task boundary — straddles the probe between two
// adjacent ones: ms in segment seg, ms2 in segment seg+1.
type roundSample struct {
	ms, ms2 float64
	seg     int
}

// refMs is the round time in reference-speed units.
func (r roundSample) refMs(segs []segment) float64 {
	v := r.ms / segs[r.seg].factor
	if r.ms2 != 0 {
		v += r.ms2 / segs[r.seg+1].factor
	}
	return v
}
