package fed

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/tensor"
)

func TestLoopbackOrderAndEOF(t *testing.T) {
	server, client := Loopback()
	for i := 0; i < 3; i++ {
		if err := server.Send(&RoundStart{Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	server.Close()
	// Buffered messages drain in order before the close surfaces as EOF.
	for i := 0; i < 3; i++ {
		msg, err := client.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if rs := msg.(*RoundStart); rs.Round != i {
			t.Fatalf("recv %d: got round %d", i, rs.Round)
		}
	}
	if _, err := client.Recv(); err != io.EOF {
		t.Fatalf("after close: err = %v, want io.EOF", err)
	}
	if err := client.Send(&Update{}); err == nil {
		t.Fatal("send to closed peer must fail")
	}
}

func TestLoopbackZeroCopy(t *testing.T) {
	server, client := Loopback()
	params := []float32{1, 2, 3}
	if err := client.Send(&Update{Params: params}); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(*Update).Params; &got[0] != &params[0] {
		t.Fatal("loopback must pass slices by reference")
	}
}

// TestServerRejectsImpersonatedUpdate: the update's ClientID routes the
// GlobalModel broadcast, so a client claiming another link's ID (possible
// with a buggy or hostile wire peer) must abort the run instead of panicking
// or misdirecting parameters.
func TestServerRejectsImpersonatedUpdate(t *testing.T) {
	sEnd, cEnd := Loopback()
	srv := NewServer(ServerConfig{Method: "test", NumTasks: 1, Rounds: 1},
		nil, []Transport{sEnd})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	if _, err := cEnd.Recv(); err != nil { // RoundStart
		t.Fatal(err)
	}
	if err := cEnd.Send(&Update{ClientID: 999, Participating: true, Params: []float32{1}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("server accepted an update with a foreign client ID")
	}
}

// TestServerRejectsMismatchedParamLengths: participants must agree on the
// parameter-vector length; a client with a different model (slipping past
// the fingerprint check) must abort the round as a protocol error instead
// of panicking inside the aggregator.
func TestServerRejectsMismatchedParamLengths(t *testing.T) {
	s0, c0 := Loopback()
	s1, c1 := Loopback()
	srv := NewServer(ServerConfig{Method: "test", NumTasks: 1, Rounds: 1},
		nil, []Transport{s0, s1})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	for i, end := range []Transport{c0, c1} {
		if _, err := end.Recv(); err != nil { // RoundStart
			t.Fatal(err)
		}
		params := []float32{1, 2}[:i+1] // client 0 sends 1 value, client 1 sends 2
		if err := end.Send(&Update{ClientID: i, Participating: true, Params: params}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err == nil {
		t.Fatal("server accepted updates with mismatched parameter lengths")
	}
}

// TestServeRejectsFingerprintMismatch: a wire client whose job derives from
// different knobs (seed, hyperparameters) must be rejected at the handshake,
// and Serve's error path must close the already-accepted connections so
// their clients unblock instead of hanging forever.
func TestServeRejectsFingerprintMismatch(t *testing.T) {
	cfg, _, _, _ := tinySetup(25)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	goodDone := make(chan error, 1)
	go func() {
		tr, err := Dial(addr, 0, cfg.Fingerprint())
		if err != nil {
			goodDone <- err
			return
		}
		_, err = tr.Recv() // must unblock when Serve fails and closes the link
		goodDone <- err
	}()
	go func() {
		bad := cfg
		bad.Seed++
		if _, err := Dial(addr, 1, bad.Fingerprint()); err != nil {
			t.Error(err)
		}
	}()
	if _, err := Serve(ln, 2, cfg.Fingerprint()); err == nil {
		t.Fatal("Serve accepted a client with a mismatched job fingerprint")
	}
	ln.Close()
	if err := <-goodDone; err == nil {
		t.Fatal("accepted client's Recv returned a message after failed Serve")
	}
}

// runWire executes the same federation as the loopback engine, but over real
// localhost TCP: one server goroutine speaking WireTransport to one goroutine
// per client endpoint built with NewWireClient (the standalone constructor a
// separate process would use).
func runWire(t *testing.T, cfg Config, cluster *device.Cluster, seqs [][]data.ClientTask,
	build func(*tensor.RNG) *model.Model, factory Factory) *Result {
	return runWireWith(t, cfg, cluster, seqs, build, factory, WireOptions{})
}

func runWireWith(t *testing.T, cfg Config, cluster *device.Cluster, seqs [][]data.ClientTask,
	build func(*tensor.RNG) *model.Model, factory Factory, opts WireOptions) *Result {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	errs := make([]error, len(seqs))
	for i := range seqs {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tr, err := DialWith(addr, id, cfg.Fingerprint(), opts)
			if err != nil {
				errs[id] = err
				return
			}
			c := NewWireClient(cfg, id, len(seqs), cluster.Devices[id%cluster.Size()],
				seqs[id], build, factory)
			errs[id] = c.Run(context.Background(), tr)
		}(i)
	}
	links, err := ServeWith(ln, len(seqs), cfg.Fingerprint(), opts)
	ln.Close()
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	srv := NewServer(cfg.ServerConfigFor(len(seqs), len(seqs[0])), nil, links)
	res, err := srv.Run(context.Background())
	if err != nil {
		t.Fatalf("server run: %v", err)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("wire client %d: %v", id, err)
		}
	}
	return res
}

// compareResults demands bit-level equality — the acceptance bar for the
// transport seam is that a TCP run reproduces a loopback run exactly.
func compareResults(t *testing.T, numTasks int, loop, wire *Result) {
	t.Helper()
	if len(wire.PerTask) != len(loop.PerTask) {
		t.Fatalf("PerTask: %d vs %d", len(wire.PerTask), len(loop.PerTask))
	}
	for i := range loop.PerTask {
		if wire.PerTask[i] != loop.PerTask[i] {
			t.Errorf("task %d: wire %+v != loopback %+v", i, wire.PerTask[i], loop.PerTask[i])
		}
	}
	for i := 0; i < numTasks; i++ {
		for j := 0; j <= i; j++ {
			if w, l := wire.Matrix.Get(i, j), loop.Matrix.Get(i, j); w != l {
				t.Errorf("matrix[%d][%d]: wire %v != loopback %v", i, j, w, l)
			}
		}
	}
	if len(wire.DeadAfter) != len(loop.DeadAfter) {
		t.Fatalf("DeadAfter: %v vs %v", wire.DeadAfter, loop.DeadAfter)
	}
	for id, task := range loop.DeadAfter {
		if wire.DeadAfter[id] != task {
			t.Errorf("DeadAfter[%d]: wire %d != loopback %d", id, wire.DeadAfter[id], task)
		}
	}
}

func TestWireMatchesLoopback(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(21)
	factory := func(ctx *ClientCtx) Strategy { return &passthrough{ctx: ctx} }
	loop := NewEngine(cfg, cluster, seqs, build, factory).Run()
	wire := runWire(t, cfg, cluster, seqs, build, factory)
	compareResults(t, 3, loop, wire)
	if loop.PerTask[0].AvgAccuracy == 0 {
		t.Fatal("degenerate run: nothing learned, equivalence is vacuous")
	}
}

// TestWireMatchesLoopbackExplicitSyncScheduler runs the transport
// equivalence bar through the Scheduler seam selected by name: -scheduler
// sync must change nothing, over either transport.
func TestWireMatchesLoopbackExplicitSyncScheduler(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(21) // same seed as TestWireMatchesLoopback
	factory := func(ctx *ClientCtx) Strategy { return &passthrough{ctx: ctx} }
	implicit := NewEngine(cfg, cluster, seqs, build, factory).Run()
	cfg.Scheduler = SchedulerSync
	loop := NewEngine(cfg, cluster, seqs, build, factory).Run()
	wire := runWire(t, cfg, cluster, seqs, build, factory)
	compareResults(t, 3, implicit, loop)
	compareResults(t, 3, loop, wire)
}

func TestWireMatchesLoopbackUnderDropout(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(22)
	cfg.DropoutProb = 0.4
	factory := func(ctx *ClientCtx) Strategy { return &passthrough{ctx: ctx} }
	loop := NewEngine(cfg, cluster, seqs, build, factory).Run()
	wire := runWire(t, cfg, cluster, seqs, build, factory)
	compareResults(t, 3, loop, wire)
}

// TestWireMatchesLoopbackWithMask covers the masked-install path (the
// FedRep-style personal/shared split) across the wire: the mask never
// crosses the transport — it is applied client-side — and both bindings
// must agree bit for bit.
func TestWireMatchesLoopbackWithMask(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(23)
	factory := func(ctx *ClientCtx) Strategy {
		n := ctx.Model.NumParams()
		mask := make([]bool, n)
		for i := 0; i < n/2; i++ {
			mask[i] = true
		}
		return &maskHalf{passthrough: passthrough{ctx: ctx}, mask: mask}
	}
	loop := NewEngine(cfg, cluster, seqs, build, factory).Run()
	wire := runWire(t, cfg, cluster, seqs, build, factory)
	compareResults(t, 3, loop, wire)
}

// TestWireQuantizedF16Run: an opt-in fp16 wire run is lossy, so it cannot be
// bit-identical to loopback — but it must complete the protocol and land
// close to the lossless run (fp16 keeps ~3 decimal digits; small models
// barely move).
func TestWireQuantizedF16Run(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(26)
	factory := func(ctx *ClientCtx) Strategy { return &passthrough{ctx: ctx} }
	loop := NewEngine(cfg, cluster, seqs, build, factory).Run()
	wire := runWireWith(t, cfg, cluster, seqs, build, factory,
		WireOptions{Compression: Compression{Quant: QuantF16}})
	if len(wire.PerTask) != len(loop.PerTask) {
		t.Fatalf("quantized run incomplete: %d of %d tasks", len(wire.PerTask), len(loop.PerTask))
	}
	for i := range loop.PerTask {
		d := wire.PerTask[i].AvgAccuracy - loop.PerTask[i].AvgAccuracy
		if d < -0.15 || d > 0.15 {
			t.Errorf("task %d: fp16 accuracy %v vs lossless %v", i,
				wire.PerTask[i].AvgAccuracy, loop.PerTask[i].AvgAccuracy)
		}
	}
}

// TestServeRejectsCompressionMismatch: quantisation changes results, so a
// client that negotiated a different value encoding than the server must be
// rejected at the handshake with an explicit error.
func TestServeRejectsCompressionMismatch(t *testing.T) {
	cfg, _, _, _ := tinySetup(27)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		Dial(ln.Addr().String(), 0, cfg.Fingerprint()) // QuantNone hello
	}()
	_, err = ServeWith(ln, 1, cfg.Fingerprint(),
		WireOptions{Compression: Compression{Quant: QuantI8}})
	if err == nil {
		t.Fatal("server accepted a client with mismatched compression")
	}
}

// TestWireTimeout: with -wire-timeout deadlines installed, a silent peer
// turns into a timeout error instead of wedging Recv (and Send, once the
// peer stops draining) forever.
func TestWireTimeout(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	tr := NewWireWith(a, WireOptions{Timeout: 50 * time.Millisecond})
	defer tr.Close()
	if _, err := tr.Recv(); err == nil {
		t.Fatal("Recv from a silent peer must time out")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("Recv error %v, want a net timeout", err)
	}
	// net.Pipe is unbuffered: a Send nobody reads must also time out.
	if err := tr.Send(&RoundStart{}); err == nil {
		t.Fatal("Send to a stalled peer must time out")
	}
}

// TestWireByteCounters: the transport's measured traffic must account every
// frame both ways, and shrink when the payload is mostly zeros (auto-sparse).
func TestWireByteCounters(t *testing.T) {
	a, b := net.Pipe()
	ta, tb := NewWire(a), NewWire(b)
	defer ta.Close()
	defer tb.Close()
	done := make(chan Msg, 1)
	go func() {
		m, _ := tb.Recv()
		done <- m
	}()
	params := make([]float32, 1000)
	params[1] = 2
	if err := ta.Send(&GlobalModel{Params: params}); err != nil {
		t.Fatal(err)
	}
	<-done
	if ta.BytesSent() == 0 || ta.BytesSent() != tb.BytesRecv() {
		t.Fatalf("sent %d, peer received %d", ta.BytesSent(), tb.BytesRecv())
	}
	if ta.BytesSent() > 64 { // sparse frame: ~13 bytes, dense would be >4000
		t.Fatalf("mostly-zero broadcast cost %d bytes on the wire", ta.BytesSent())
	}

	// Two links of one broadcast share one encoded frame, and each still
	// counts its own bytes: the frame's size, once, on both ends.
	srv, _, collect := pipeCohort(t, ServerConfig{Scheduler: SchedulerAsync}, 2, nil)
	gm := &GlobalModel{Params: params, Version: 1}
	if err := srv.broadcast(gm, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := int64(len(freshFrame(t, gm)))
	if sent, _ := srv.WireTraffic(); sent != 2*want {
		t.Fatalf("two links sent %d bytes between them, want 2 × %d", sent, want)
	}
	for i, raw := range collect() {
		st, _ := srv.book.at(i)
		if sent := st.link.(*WireTransport).BytesSent(); sent != want || int64(len(raw)) != want {
			t.Fatalf("link %d counted %d bytes sent, its peer read %d, want %d", i, sent, len(raw), want)
		}
	}
}

// TestWireMatchesLoopbackOOM exercises the eviction path over TCP: a dead
// client's endpoint exits after its RoundEnd death report and the server
// carries on without it.
func TestWireMatchesLoopbackOOM(t *testing.T) {
	cfg, _, seqs, build := tinySetup(24)
	cfg.MemScale = 1
	tiny := &device.Cluster{Devices: []device.Device{
		{Name: "tiny", FLOPS: 1e9, MemBytes: 2 << 20},
		{Name: "big", FLOPS: 1e9, MemBytes: 1 << 40},
	}}
	factory := func(ctx *ClientCtx) Strategy {
		if ctx.ID == 0 {
			return &memHog{passthrough: passthrough{ctx: ctx}}
		}
		return &passthrough{ctx: ctx}
	}
	loop := NewEngine(cfg, tiny, seqs, build, factory).Run()
	wire := runWire(t, cfg, tiny, seqs, build, factory)
	if len(loop.DeadAfter) != 1 {
		t.Fatalf("setup should evict exactly client 0, got %v", loop.DeadAfter)
	}
	compareResults(t, 3, loop, wire)
}
