package fed

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/tensor"
)

// tapConn records every byte its reader takes off the stream, so a test can
// compare the frames a link carried with what a fresh encoder makes of the
// same messages.
type tapConn struct {
	net.Conn
	mu sync.Mutex
	in bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// globalFrames splits the recorded stream into frames and returns the
// GlobalModel ones, header included.
func (c *tapConn) globalFrames(t *testing.T) [][]byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]byte
	for raw := c.in.Bytes(); len(raw) > 0; {
		if len(raw) < frameHeader {
			t.Fatalf("recorded stream ends inside a header (%d bytes left)", len(raw))
		}
		n := frameHeader + int(binary.LittleEndian.Uint32(raw[1:]))
		if len(raw) < n {
			t.Fatalf("recorded stream ends inside a %d-byte frame (%d bytes left)", n, len(raw))
		}
		if Kind(raw[0]) == KindGlobalModel {
			out = append(out, raw[:n])
		}
		raw = raw[n:]
	}
	return out
}

// recordingAgg keeps a copy of every global the inner rule commits: the
// server-side truth the frames on the links are compared with.
type recordingAgg struct {
	*SparseFedAvg
	globals [][]float32
}

func (r *recordingAgg) FinishRound() []float32 {
	g := r.SparseFedAvg.FinishRound()
	if g != nil {
		r.globals = append(r.globals, append([]float32(nil), g...))
	}
	return g
}

// forwardingLink is a Transport decorator of the kind benchmark/trace.go
// wraps every server-side link in: it knows nothing about shared frames and
// forwards the message it was given.
type forwardingLink struct {
	Transport
	sends int
}

func (l *forwardingLink) Send(m Msg) error {
	l.sends++
	return l.Transport.Send(m)
}

// scriptedPeer speaks one task of the round lifecycle in closed loop — one
// upload per entry of vecs, each answered by one commit — under either
// scheduler, and returns the parameters of every GlobalModel it received
// (copied: a wire link's decode buffer is reused, a loopback one aliased).
func scriptedPeer(link Transport, id int, async bool, vecs [][]float32) ([][]float32, error) {
	defer link.Close()
	var got [][]float32
	var seen uint64
	recvGlobal := func() error {
		msg, err := link.Recv()
		if err != nil {
			return err
		}
		gm, ok := msg.(*GlobalModel)
		if !ok {
			return fmt.Errorf("peer %d got %T, want *GlobalModel", id, msg)
		}
		seen = gm.Version
		got = append(got, append([]float32(nil), gm.Params...))
		return nil
	}
	for r, v := range vecs {
		if r == 0 || !async {
			if msg, err := link.Recv(); err != nil {
				return got, err
			} else if _, ok := msg.(*RoundStart); !ok {
				return got, fmt.Errorf("peer %d got %T, want *RoundStart", id, msg)
			}
		}
		if err := link.Send(&Update{ClientID: id, Participating: true, Weight: 1, BaseVersion: seen, Params: v}); err != nil {
			return got, err
		}
		if err := recvGlobal(); err != nil {
			return got, err
		}
	}
	if async { // the task-final re-announcement
		if err := recvGlobal(); err != nil {
			return got, err
		}
	}
	if err := link.Send(&RoundEnd{ClientID: id, EvalAccs: []float64{0.5}}); err != nil {
		return got, err
	}
	if _, err := link.Recv(); err != io.EOF && !errors.Is(err, io.ErrClosedPipe) {
		return got, fmt.Errorf("peer %d: after the report: %v, want the server's close", id, err)
	}
	return got, nil
}

// broadcastVectors is one sparse-winning and one dense-winning upload: a
// 19 %-dense vector and a full one.
func broadcastVectors(n int) [][]float32 {
	rng := tensor.NewRNG(19)
	sparse, full := make([]float32, n), make([]float32, n)
	for i := range full {
		full[i] = float32(rng.Float64() - 0.5)
		if rng.Float64() < 0.19 {
			sparse[i] = full[i]
		}
	}
	return [][]float32{sparse, full}
}

// runBroadcastCohort drives one task through a server whose seats are one
// wire link (over net.Pipe) per entry of comps followed by loopbacks loopback
// links, and checks the broadcast contract: every GlobalModel frame on every
// wire link is, byte for byte, what a fresh codec of that link's compression
// makes of the committed global, and every loopback seat was handed the
// committed vector itself.
func runBroadcastCohort(t *testing.T, sched string, comps []Compression, loopbacks int) {
	t.Helper()
	async := sched == SchedulerAsync
	vecs := broadcastVectors(3000)
	cohort := len(comps) + loopbacks
	links := make([]Transport, cohort)
	ends := make([]Transport, cohort)
	taps := make([]*tapConn, len(comps))
	for i := range links {
		if i < len(comps) {
			a, b := net.Pipe()
			taps[i] = &tapConn{Conn: b}
			links[i] = NewWireWith(a, WireOptions{Compression: comps[i]})
			ends[i] = NewWireWith(taps[i], WireOptions{Compression: comps[i]})
		} else {
			links[i], ends[i] = LoopbackCap(16)
		}
	}
	agg := &recordingAgg{SparseFedAvg: &SparseFedAvg{}}
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: len(vecs), Scheduler: sched,
		Async: AsyncConfig{CommitEvery: cohort}, Logf: t.Logf,
	}, agg, links)

	peerGot := make([][][]float32, cohort)
	peerErr := make([]error, cohort)
	var wg sync.WaitGroup
	for i := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peerGot[i], peerErr[i] = scriptedPeer(ends[i], i, async, vecs)
		}()
	}
	_, err := srv.Run(context.Background())
	wg.Wait()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, err := range peerErr {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	if len(agg.globals) != len(vecs) {
		t.Fatalf("%d commits, want %d", len(agg.globals), len(vecs))
	}
	wantFrames := len(vecs)
	if async {
		wantFrames++
	}
	sawSparse, sawDense := false, false
	for i, tap := range taps {
		frames := tap.globalFrames(t)
		if len(frames) != wantFrames {
			t.Fatalf("link %d carried %d global frames, want %d", i, len(frames), wantFrames)
		}
		for k, frame := range frames {
			m, err := Decode(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("link %d frame %d: %v", i, k, err)
			}
			gm := m.(*GlobalModel)
			if gm.Version < 1 || int(gm.Version) > len(agg.globals) || gm.TaskFinal != (k == len(vecs)) {
				t.Fatalf("link %d frame %d: version %d, final %v", i, k, gm.Version, gm.TaskFinal)
			}
			var want bytes.Buffer
			if err := NewCodec(comps[i]).Encode(&want, &GlobalModel{
				Params: agg.globals[gm.Version-1], Version: gm.Version, TaskFinal: gm.TaskFinal}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, want.Bytes()) {
				t.Fatalf("link %d (%+v) frame %d: %d bytes on the wire differ from a fresh encode (%d bytes, first difference at %d)",
					i, comps[i], k, len(frame), want.Len(), firstDiff(frame, want.Bytes()))
			}
			// params format byte: header, version uvarint (< 128 here), flags.
			if frame[frameHeader+2]&fmtSparse != 0 {
				sawSparse = true
			} else {
				sawDense = true
			}
		}
	}
	if len(taps) > 0 && !(sawSparse && sawDense) {
		t.Fatalf("the run must broadcast both block forms (sparse %v, dense %v)", sawSparse, sawDense)
	}
	for i := len(comps); i < cohort; i++ {
		if len(peerGot[i]) != wantFrames {
			t.Fatalf("loopback peer %d received %d globals, want %d", i, len(peerGot[i]), wantFrames)
		}
		for k, got := range peerGot[i] {
			want := agg.globals[min(k, len(agg.globals)-1)]
			if !slices.Equal(got, want) {
				t.Fatalf("loopback peer %d global %d differs from the commit", i, k)
			}
		}
	}
}

// TestBroadcastFramesMatchPerLinkEncode: one encode per commit puts on every
// link exactly the bytes a per-link encode would have, at every cohort size,
// under both schedulers, in both block forms.
func TestBroadcastFramesMatchPerLinkEncode(t *testing.T) {
	for _, sched := range []string{SchedulerSync, SchedulerAsync} {
		for _, c := range []int{1, 2, 5} {
			t.Run(fmt.Sprintf("%s/cohort=%d", sched, c), func(t *testing.T) {
				runBroadcastCohort(t, sched, make([]Compression, c), 0)
			})
		}
	}
}

// TestBroadcastMixedCompression: links that negotiated different encodings
// share nothing they must not — each gets its own correct frame, whichever
// of them met the shared frame first.
func TestBroadcastMixedCompression(t *testing.T) {
	mixes := [][]Compression{
		{{}, {Quant: QuantF16}, {Quant: QuantI8}},
		{{Quant: QuantI8}, {}, {Quant: QuantI8}, {}},
		{{DisableSparse: true}, {}, {DisableSparse: true}},
	}
	for _, sched := range []string{SchedulerSync, SchedulerAsync} {
		for i, comps := range mixes {
			t.Run(fmt.Sprintf("%s/mix=%d", sched, i), func(t *testing.T) {
				runBroadcastCohort(t, sched, comps, 0)
			})
		}
	}
}

// TestBroadcastMixedLoopbackAndWire: loopback seats are handed the message
// itself while wire seats share its frame; run under -race this is the proof
// that a loopback receiver never touches what the server arms and disarms.
func TestBroadcastMixedLoopbackAndWire(t *testing.T) {
	for _, sched := range []string{SchedulerSync, SchedulerAsync} {
		t.Run(sched, func(t *testing.T) {
			runBroadcastCohort(t, sched, make([]Compression, 2), 2)
		})
	}
}

// pipeCohort builds a server over n wire links on net.Pipe, each wrapped by
// wrap (nil: bare), with one goroutine per client end draining the stream
// into a buffer; collect closes the server side and returns what each client
// end read.
func pipeCohort(t *testing.T, cfg ServerConfig, n int, wrap func(Transport) Transport) (srv *Server, clientEnds []net.Conn, collect func() [][]byte) {
	t.Helper()
	links := make([]Transport, n)
	bufs := make([]bytes.Buffer, n)
	clientEnds = make([]net.Conn, n)
	var wg sync.WaitGroup
	for i := range links {
		a, b := net.Pipe()
		links[i], clientEnds[i] = NewWire(a), b
		if wrap != nil {
			links[i] = wrap(links[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(&bufs[i], b)
		}()
	}
	cfg.NumTasks, cfg.Rounds, cfg.Logf = 1, 1, t.Logf
	srv = NewServer(cfg, nil, links)
	return srv, clientEnds, func() [][]byte {
		srv.book.closeAll()
		wg.Wait()
		out := make([][]byte, n)
		for i := range bufs {
			out[i] = bufs[i].Bytes()
		}
		return out
	}
}

// freshFrame is m as a codec that shares nothing encodes it.
func freshFrame(t *testing.T, m Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBroadcastClosedLinkPolicies: a link that fails in the middle of a
// broadcast is handled by the caller's policy — evicted, left to its reader,
// or fatal — and the shared frame it failed on still reaches the seats after
// it intact.
func TestBroadcastClosedLinkPolicies(t *testing.T) {
	gm := &GlobalModel{Params: broadcastVectors(2000)[0], Version: 3}
	want := freshFrame(t, gm)
	type outcome struct {
		err       bool  // broadcast returns an error
		alive     int   // seats alive afterwards
		delivered []int // seats that hold the intact frame
	}
	cases := map[string]struct {
		cfg  ServerConfig
		lost func(s *Server) func(int, error) error
		want outcome
	}{
		"async announce: evict": {
			cfg: ServerConfig{Scheduler: SchedulerAsync},
			lost: func(s *Server) func(int, error) error {
				return func(id int, err error) error { s.evict(0, id, err); return nil }
			},
			want: outcome{alive: 2, delivered: []int{0, 2}},
		},
		"async commit: leave to the reader": {
			cfg:  ServerConfig{Scheduler: SchedulerAsync},
			lost: func(*Server) func(int, error) error { return nil },
			want: outcome{alive: 3, delivered: []int{0, 2}},
		},
		"sync: fail": {
			lost: func(s *Server) func(int, error) error {
				return func(id int, err error) error {
					return s.sched.(*SyncScheduler).dropOrFail(context.Background(), s, 0, id, err)
				}
			},
			want: outcome{err: true, alive: 3, delivered: []int{0}},
		},
		"sync-evict: drop": {
			cfg: ServerConfig{SyncEvict: true},
			lost: func(s *Server) func(int, error) error {
				return func(id int, err error) error {
					return s.sched.(*SyncScheduler).dropOrFail(context.Background(), s, 0, id, err)
				}
			},
			want: outcome{alive: 2, delivered: []int{0, 2}},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			srv, ends, collect := pipeCohort(t, tc.cfg, 3, nil)
			ends[1].Close()
			err := srv.broadcast(gm, nil, nil, tc.lost(srv))
			if (err != nil) != tc.want.err {
				t.Fatalf("broadcast returned %v", err)
			}
			if gm.frame != nil {
				t.Fatal("the message left the broadcast still armed")
			}
			if got := srv.AliveClients(); got != tc.want.alive {
				t.Fatalf("%d seats alive, want %d", got, tc.want.alive)
			}
			got := collect()
			delivered := map[int]bool{}
			for _, id := range tc.want.delivered {
				delivered[id] = true
			}
			for id, raw := range got {
				if delivered[id] && !bytes.Equal(raw, want) {
					t.Fatalf("seat %d holds %d bytes, want the intact %d-byte frame", id, len(raw), len(want))
				}
				if !delivered[id] && len(raw) != 0 {
					t.Fatalf("seat %d holds %d bytes, want none", id, len(raw))
				}
			}
		})
	}
}

// TestBroadcastFrameNeverStale pins the frame's lifetime to one broadcast:
// consecutive broadcasts of different models deliver different bytes, a
// message re-sent after its broadcast returned is encoded afresh from what it
// holds then, and a message nobody broadcast never sees the server's frame.
func TestBroadcastFrameNeverStale(t *testing.T) {
	vecs := broadcastVectors(2000)
	srv, _, collect := pipeCohort(t, ServerConfig{Scheduler: SchedulerAsync}, 2, nil)
	first := &GlobalModel{Params: vecs[0], Version: 1}
	second := &GlobalModel{Params: vecs[1], Version: 2}
	want := append([]byte(nil), freshFrame(t, first)...)
	want = append(want, freshFrame(t, second)...)
	for _, gm := range []*GlobalModel{first, second} {
		if err := srv.broadcast(gm, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		if gm.frame != nil {
			t.Fatal("the message left the broadcast still armed")
		}
	}
	// The first message again, changed, outside any broadcast: link 0 must
	// encode what it holds now, not replay either earlier frame.
	first.Params = vecs[1][:100]
	first.Version = 9
	st, _ := srv.book.at(0)
	if err := st.link.Send(first); err != nil {
		t.Fatal(err)
	}
	got := collect()
	if !bytes.Equal(got[1], want) {
		t.Fatalf("link 1 read %d bytes, want the two broadcasts' %d", len(got[1]), len(want))
	}
	if want0 := append(want, freshFrame(t, first)...); !bytes.Equal(got[0], want0) {
		t.Fatalf("link 0 read %d bytes, want the two broadcasts and the fresh re-send (%d)", len(got[0]), len(want0))
	}
}

// TestBroadcastThroughDecorator: the frame rides on the message, so a
// Transport wrapper that only forwards Send still gets the one encode — no
// link behind it ever builds a frame of its own.
func TestBroadcastThroughDecorator(t *testing.T) {
	var wires []*WireTransport
	var wrapped []*forwardingLink
	srv, _, collect := pipeCohort(t, ServerConfig{Scheduler: SchedulerAsync}, 3, func(inner Transport) Transport {
		wires = append(wires, inner.(*WireTransport))
		wrapped = append(wrapped, &forwardingLink{Transport: inner})
		return wrapped[len(wrapped)-1]
	})
	gm := &GlobalModel{Params: broadcastVectors(2000)[0], Version: 1}
	if err := srv.broadcast(gm, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := freshFrame(t, gm)
	for i, raw := range collect() {
		if !bytes.Equal(raw, want) {
			t.Fatalf("link %d read %d bytes, want the %d-byte frame", i, len(raw), len(want))
		}
		if wrapped[i].sends != 1 {
			t.Fatalf("decorator %d forwarded %d sends", i, wrapped[i].sends)
		}
		if len(wires[i].codec.enc) != 0 {
			t.Fatalf("link %d encoded %d bytes of its own behind the decorator", i, len(wires[i].codec.enc))
		}
	}
}

// discardConn is a stream that swallows writes and never yields a byte.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)    { return 0, io.EOF }
func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// discardCohort is a server over n wire links that write to nowhere.
func discardCohort(n int) *Server {
	links := make([]Transport, n)
	for i := range links {
		links[i] = NewWire(discardConn{})
	}
	return NewServer(ServerConfig{Scheduler: SchedulerAsync, NumTasks: 1, Rounds: 1}, nil, links)
}

// TestBroadcastAllocatesNothing: once the frame buffer is sized, a commit's
// broadcast costs no allocation, whatever the cohort.
func TestBroadcastAllocatesNothing(t *testing.T) {
	srv := discardCohort(4)
	gm := &GlobalModel{Params: broadcastVectors(1 << 14)[0], Version: 1}
	send := func() {
		if err := srv.broadcast(gm, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	send() // sizes the frame
	if allocs := testing.AllocsPerRun(20, send); allocs != 0 {
		t.Fatalf("a warmed-up broadcast allocates %v times", allocs)
	}
}

// versionSink records the committed global of every version from the cut the
// server writes ahead of its broadcast, closes done once version last is in,
// and lists every later cut (mid-window, task boundary) whose global differs
// from what its version committed.
type versionSink struct {
	globals map[uint64][]float32
	last    uint64
	done    chan struct{}
	drifted []uint64
}

func (s *versionSink) Save(snap *checkpoint.ServerSnapshot) error {
	if snap.Version == 0 {
		return nil
	}
	g, ok := s.globals[snap.Version]
	switch {
	case !ok:
		s.globals[snap.Version] = slices.Clone(snap.Global)
		if snap.Version == s.last {
			close(s.done)
		}
	case !slices.Equal(g, snap.Global):
		s.drifted = append(s.drifted, snap.Version)
	}
	return nil
}

// gatedLink holds back every GlobalModel its holder receives until open is
// closed.
type gatedLink struct {
	Transport
	open <-chan struct{}
}

func (l *gatedLink) Recv() (Msg, error) {
	m, err := l.Transport.Recv()
	if _, ok := m.(*GlobalModel); ok {
		select {
		case <-l.open:
		case <-time.After(time.Minute): // the comparison below reports it
		}
	}
	return m, err
}

// TestAsyncLoopbackBroadcastOutlivesLaterCommits: an asynchronous commit
// broadcasts the aggregator's result itself, which the reducer rewrites two
// commits later. A loopback seat that reads none of its first task's
// broadcasts until the task is committed must still find every version
// bit-equal to what the server committed — the loopback detaches a borrowed
// message — and every snapshot cut, the next task's mid-window ones
// included, must carry the global its version committed.
func TestAsyncLoopbackBroadcastOutlivesLaterCommits(t *testing.T) {
	const cohort, rounds, tasks, k, n = 3, 3, 2, 2, 64
	// No staleness bound: every k-th upload commits, and the task-closing
	// flush commits the rest.
	perTask := (cohort*rounds + k - 1) / k
	links := make([]Transport, cohort)
	ends := make([]Transport, cohort)
	for i := range links {
		links[i], ends[i] = LoopbackCap(perTask + 4)
	}
	sink := &versionSink{globals: map[uint64][]float32{}, last: uint64(perTask), done: make(chan struct{})}
	ends[0] = &gatedLink{Transport: ends[0], open: sink.done}
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: tasks, Rounds: rounds, Scheduler: SchedulerAsync,
		Async: AsyncConfig{CommitEvery: k}, Logf: t.Logf,
	}, nil, links)
	srv.SetSnapshots(sink)

	// Every peer uploads a task's rounds up front, then reads what it was
	// sent through the task-final broadcast. Every upload is its own vector,
	// so every commit is a distinct global.
	got := make([][][]*GlobalModel, cohort)
	errs := make([]error, cohort)
	var wg sync.WaitGroup
	for id, link := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer link.Close()
			errs[id] = func() error {
				for task := range tasks {
					if m, err := link.Recv(); err != nil {
						return err
					} else if _, ok := m.(*RoundStart); !ok {
						return fmt.Errorf("task %d: got %T, want *RoundStart", task, m)
					}
					for r := range rounds {
						v := make([]float32, n)
						for i := range v {
							v[i] = float32(task*10000 + id*1000 + r*100 + i)
						}
						if err := link.Send(&Update{ClientID: id, Participating: true, Weight: 1, Params: v}); err != nil {
							return err
						}
					}
					var gms []*GlobalModel
					for final := false; !final; {
						m, err := link.Recv()
						if err != nil {
							return err
						}
						gm, ok := m.(*GlobalModel)
						if !ok {
							return fmt.Errorf("task %d: got %T, want *GlobalModel", task, m)
						}
						// Installing is reading: keep what the seat holds now.
						gms = append(gms, &GlobalModel{Params: slices.Clone(gm.Params), Version: gm.Version, TaskFinal: gm.TaskFinal})
						final = gm.TaskFinal
					}
					got[id] = append(got[id], gms)
					if err := link.Send(&RoundEnd{ClientID: id, EvalAccs: make([]float64, task+1)}); err != nil {
						return err
					}
				}
				if _, err := link.Recv(); err != io.EOF && !errors.Is(err, io.ErrClosedPipe) {
					return fmt.Errorf("after the last report: %v, want the server's close", err)
				}
				return nil
			}()
		}()
	}
	_, err := srv.Run(context.Background())
	wg.Wait()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", id, err)
		}
	}
	if len(sink.globals) != tasks*perTask {
		t.Fatalf("the sink recorded %d versions, want %d", len(sink.globals), tasks*perTask)
	}
	if len(sink.drifted) > 0 {
		t.Fatalf("snapshot cuts at versions %v carry a global other than the one their version committed", sink.drifted)
	}
	for id, byTask := range got {
		for task, gms := range byTask {
			if len(gms) != perTask+1 {
				t.Fatalf("peer %d task %d: received %d globals, want %d commits and the task-final one", id, task, len(gms), perTask)
			}
			for i, gm := range gms {
				if want := sink.globals[gm.Version]; !slices.Equal(gm.Params, want) {
					t.Fatalf("peer %d: version %d (final %v) differs from the committed global at %d of %d coordinates",
						id, gm.Version, gm.TaskFinal, countDiff(gm.Params, want), len(want))
				}
				if want := uint64(task*perTask + min(i+1, perTask)); gm.Version != want {
					t.Fatalf("peer %d task %d: global %d is version %d, want %d", id, task, i, gm.Version, want)
				}
			}
		}
	}
}

// countDiff counts the positions at which a and b differ.
func countDiff(a, b []float32) int {
	d := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// TestAsyncCommitAllocFree: at one kernel thread a steady-state commit window
// on by-value links — two sparse uploads folded, the merge, the commit and
// its broadcast — allocates nothing: the committed global is the reducer's
// buffer and the broadcast message is the scheduler's own.
func TestAsyncCommitAllocFree(t *testing.T) {
	pinKernelThreads(t, 1)
	const n, cohort = 1 << 18, 2
	srv := discardCohort(cohort)
	a := srv.sched.(*AsyncScheduler)
	a.commitK = cohort
	res := &Result{}
	rng := tensor.NewRNG(34)
	// Two windows of 10 %-dense uploads with their own supports: the union a
	// merge scales is past the sparse kernels' parallel threshold (1 << 15
	// coordinates) and short of the quarter that switches the fold to full.
	var ups []*Update
	for k := range 2 {
		touched, union := make([]bool, n), 0
		for id := range cohort {
			w := make([]float32, n)
			mask := make([]bool, n)
			for j := range w {
				w[j] = float32(rng.Norm())
				if mask[j] = rng.Float64() < 0.1; mask[j] && !touched[j] {
					touched[j] = true
					union++
				}
			}
			ups = append(ups, &Update{ClientID: id, Participating: true, Weight: 1, Sparse: tensor.GatherMask(nil, w, mask)})
		}
		if union < 1<<15 || union >= n/4 {
			t.Fatalf("window %d touches %d coordinates, want a sparse union of at least %d", k, union, 1<<15)
		}
	}
	srv.stream.BeginRound()
	win := 0
	window := func() {
		for id := range cohort {
			u := ups[win%2*cohort+id]
			u.BaseVersion = srv.version
			if err := a.handleUpdate(srv, res, 0, id, u); err != nil {
				t.Fatal(err)
			}
		}
		win++
	}
	for range 4 { // both reducer buffers and the frame sized
		window()
	}
	before := srv.version
	if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
		t.Fatalf("a steady-state commit window allocates %v times", allocs)
	}
	if srv.version == before {
		t.Fatal("no commit ran")
	}
}
