package fed

import (
	"bytes"
	"context"
	"math"
	"net"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// rmsDev is the root-mean-square deviation between a global model and the
// honest cohort's reference mean — the poisoning metric: how far did the
// attackers drag the aggregate.
func rmsDev(global []float32, ref []float64) float64 {
	var sum float64
	for i := range global {
		d := float64(global[i]) - ref[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(global)))
}

// TestRobustBoundsPoisoning is the aggregation-rule half of the adversarial
// matrix: 8 honest clients near a ground truth, 2 colluding attackers. The
// naive weighted mean is dragged arbitrarily far; every robust rule must stay
// within the honest cohort's own noise floor. Both classic attack shapes are
// driven: sign-flip (×−10) and scaled poisoning (×1000). The control row
// "none" has the two extra clients behave honestly (they stay out of the
// reference), and there every rule, the naive mean included, must hold the
// noise floor.
func TestRobustBoundsPoisoning(t *testing.T) {
	const n, honest, attackers = 512, 8, 2
	rng := tensor.NewRNG(99)
	truth := make([]float64, n)
	for i := range truth {
		truth[i] = rng.Norm()
	}
	attacks := []struct {
		name  string
		mount func(i int) float32
	}{
		{"sign-flip", func(i int) float32 { return float32(-10 * truth[i]) }},
		{"scaled", func(i int) float32 { return float32(1000 * truth[i]) }},
		{"none", func(i int) float32 { return float32(truth[i] + 0.05*rng.Norm()) }},
	}
	rules := []struct {
		name string
		mk   func() Aggregator
	}{
		{"trimmed-mean:0.2", func() Aggregator { return NewBuffered(NewTrimmedMeanFedAvg(0.2)) }},
		{"median", func() Aggregator { return NewBuffered(&CoordinateMedianFedAvg{}) }},
		{"krum:2", func() Aggregator { return NewBuffered(NewKrumFedAvg(2)) }},
		{"fedopt:0.9:trimmed-mean:0.2", func() Aggregator {
			return NewBuffered(NewFedOptServer(0.9, NewTrimmedMeanFedAvg(0.2)))
		}},
	}
	for _, atk := range attacks {
		// Honest updates: truth plus per-client noise. The reference is their
		// exact mean, so "deviation" measures only what the attackers moved.
		var ups []*Update
		ref := make([]float64, n)
		for c := 0; c < honest; c++ {
			params := make([]float32, n)
			for i := range params {
				params[i] = float32(truth[i] + 0.05*rng.Norm())
				ref[i] += float64(params[i]) / honest
			}
			ups = append(ups, &Update{ClientID: c, Participating: true, Weight: 1, Params: params})
		}
		for c := honest; c < honest+attackers; c++ {
			params := make([]float32, n)
			for i := range params {
				params[i] = atk.mount(i)
			}
			ups = append(ups, &Update{ClientID: c, Participating: true, Weight: 1, Params: params})
		}
		naive := rmsDev((&SparseFedAvg{}).Aggregate(ups), ref)
		switch {
		case atk.name == "none" && naive > 0.25:
			t.Errorf("naive mean with no attack: deviation %.3f from the honest mean, want ≤ 0.25", naive)
		case atk.name != "none" && naive < 1:
			t.Fatalf("%s: naive mean deviated only %.3f — the attack is too weak to prove anything", atk.name, naive)
		}
		for _, r := range rules {
			global := r.mk().Aggregate(ups)
			if dev := rmsDev(global, ref); dev > 0.25 {
				t.Errorf("%s under %s: deviation %.3f from the honest mean, want ≤ 0.25", r.name, atk.name, dev)
			}
		}
	}
}

// TestSyncServerRejectsNonFinite drives the lockstep scheduler with scripted
// peers: client 1 sends NaN parameters in round 1 and an infinite weight in
// round 2. Both uploads must be counted as rejected — never folded — while
// the client keeps its seat and receives every broadcast.
func TestSyncServerRejectsNonFinite(t *testing.T) {
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 2, RejectNonFinite: true, Logf: t.Logf,
	}, nil, []Transport{s0, s1})
	var rounds []RoundStats
	srv.SetObserver(ObserverFuncs{Round: func(s RoundStats) { rounds = append(rounds, s) }})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	recvGM := func(end Transport) *GlobalModel {
		t.Helper()
		msg, err := end.Recv()
		if err != nil {
			t.Fatal(err)
		}
		gm, ok := msg.(*GlobalModel)
		if !ok {
			t.Fatalf("got %T, want *GlobalModel", msg)
		}
		return gm
	}
	for _, end := range []Transport{c0, c1} {
		if _, err := end.Recv(); err != nil { // RoundStart
			t.Fatal(err)
		}
	}
	nan := float32(math.NaN())
	c0.Send(&Update{ClientID: 0, Participating: true, Weight: 1, Params: []float32{2}})
	c1.Send(&Update{ClientID: 1, Participating: true, Weight: 1, Params: []float32{nan}})
	if gm := recvGM(c0); gm.Params[0] != 2 {
		t.Fatalf("round 1 global = %v: the NaN update was folded", gm.Params)
	}
	// The poisoner keeps its seat: it still receives the commit.
	if gm := recvGM(c1); gm.Params[0] != 2 {
		t.Fatalf("rejected client's broadcast = %v", gm.Params)
	}
	for _, end := range []Transport{c0, c1} {
		if _, err := end.Recv(); err != nil { // round 2 RoundStart
			t.Fatal(err)
		}
	}
	c0.Send(&Update{ClientID: 0, Participating: true, Weight: 1, Params: []float32{4}})
	c1.Send(&Update{ClientID: 1, Participating: true, Weight: math.Inf(1), Params: []float32{100}})
	if gm := recvGM(c0); gm.Params[0] != 4 {
		t.Fatalf("round 2 global = %v: the infinite-weight update was folded", gm.Params)
	}
	recvGM(c1)
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.7}})
	c1.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.5}})
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(rounds) != 2 {
		t.Fatalf("%d rounds observed, want 2", len(rounds))
	}
	for i, r := range rounds {
		if r.Participants != 1 || r.NonFinite != 1 {
			t.Fatalf("round %d: %d participants, %d non-finite rejections, want 1 and 1",
				i, r.Participants, r.NonFinite)
		}
	}
	nonFinite, stale, evicted, _ := srv.Rejections()
	if nonFinite != 2 || stale != 0 || evicted != 0 {
		t.Fatalf("Rejections() = %d/%d/%d, want 2/0/0", nonFinite, stale, evicted)
	}
}

// TestSyncAllRejectedFailsLoudly: when every update of a lockstep round is
// rejected there is nothing to broadcast and the participants would block
// forever — the server must abort with an explicit error instead.
func TestSyncAllRejectedFailsLoudly(t *testing.T) {
	s0, c0 := LoopbackCap(64)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 1, RejectNonFinite: true, Logf: t.Logf,
	}, nil, []Transport{s0})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	if _, err := c0.Recv(); err != nil { // RoundStart
		t.Fatal(err)
	}
	c0.Send(&Update{ClientID: 0, Participating: true, Weight: 1,
		Params: []float32{float32(math.Inf(-1))}})
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("all-rejected round must fail loudly, got %v", err)
	}
}

// TestAsyncServerRejectsNonFinite drives the asynchronous scheduler with a
// garbage injector: the NaN upload must advance the client's books (it owes
// one fewer upload) without committing, the window's stats must report it,
// and the cumulative counter must survive to the run summary.
func TestAsyncServerRejectsNonFinite(t *testing.T) {
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 2, Scheduler: SchedulerAsync,
		Async:           AsyncConfig{CommitEvery: 1},
		RejectNonFinite: true,
		Logf:            t.Logf,
	}, nil, []Transport{s0, s1})
	var rounds []RoundStats
	srv.SetObserver(ObserverFuncs{Round: func(s RoundStats) { rounds = append(rounds, s) }})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	recvGM := func(end Transport) *GlobalModel {
		t.Helper()
		msg, err := end.Recv()
		if err != nil {
			t.Fatal(err)
		}
		gm, ok := msg.(*GlobalModel)
		if !ok {
			t.Fatalf("got %T, want *GlobalModel", msg)
		}
		return gm
	}
	for _, end := range []Transport{c0, c1} {
		if _, err := end.Recv(); err != nil { // RoundStart
			t.Fatal(err)
		}
	}
	// c0 fresh → commit v1 = [2].
	c0.Send(&Update{ClientID: 0, Participating: true, Weight: 1, BaseVersion: 0, Params: []float32{2}})
	if gm := recvGM(c0); gm.Version != 1 || gm.Params[0] != 2 {
		t.Fatalf("commit 1: v%d %v", gm.Version, gm.Params)
	}
	recvGM(c1)
	// c1 injects NaN garbage: rejected, no commit, no broadcast — but the
	// upload is consumed (Seen advances), so the task still closes.
	c1.Send(&Update{ClientID: 1, Participating: true, Weight: 1, BaseVersion: 1,
		Params: []float32{float32(math.NaN())}})
	// c0 fresh again → commit v2 = [6]. 8 never reached the global.
	c0.Send(&Update{ClientID: 0, Participating: true, Weight: 1, BaseVersion: 1, Params: []float32{6}})
	if gm := recvGM(c0); gm.Version != 2 || gm.Params[0] != 6 {
		t.Fatalf("commit 2: v%d %v — a NaN leaked into the fold", gm.Version, gm.Params)
	}
	recvGM(c1)
	// c1's last upload is healthy → commit v3 = [10], then the task-final.
	c1.Send(&Update{ClientID: 1, Participating: true, Weight: 1, BaseVersion: 2, Params: []float32{10}})
	if gm := recvGM(c0); gm.Version != 3 || gm.Params[0] != 10 {
		t.Fatalf("commit 3: v%d %v", gm.Version, gm.Params)
	}
	recvGM(c1)
	for i, end := range []Transport{c0, c1} {
		if gm := recvGM(end); !gm.TaskFinal {
			t.Fatal("missing task-final broadcast")
		}
		end.Send(&RoundEnd{ClientID: i, EvalAccs: []float64{0.6}})
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	participants, nonFinite := 0, 0
	for _, r := range rounds {
		participants += r.Participants
		nonFinite += r.NonFinite
	}
	if participants != 3 || nonFinite != 1 {
		t.Fatalf("folded %d with %d non-finite rejections, want 3 and 1", participants, nonFinite)
	}
	nf, stale, evicted, _ := srv.Rejections()
	if nf != 1 || stale != 0 || evicted != 0 {
		t.Fatalf("Rejections() = %d/%d/%d, want 1/0/0", nf, stale, evicted)
	}
}

// TestMaxFrameCap pins the decoder's configurable frame bound: a frame whose
// length prefix exceeds the configured cap must be refused before any
// allocation, naming the limit; frames under the cap still decode; and a
// sparse frame claiming a dense length beyond MaxFrame/4 is refused by the
// scaled logical bound even though its wire size is tiny.
func TestMaxFrameCap(t *testing.T) {
	var enc Codec
	var buf bytes.Buffer
	big := &Update{ClientID: 0, Participating: true, Weight: 1, Params: make([]float32, 256)}
	for i := range big.Params {
		big.Params[i] = float32(i + 1)
	}
	if err := enc.Encode(&buf, big); err != nil {
		t.Fatal(err)
	}
	capped := Codec{maxFrame: 64}
	if _, err := capped.Decode(&buf); err == nil || !strings.Contains(err.Error(), "exceeds limit 64") {
		t.Fatalf("oversized frame: got %v, want a limit error naming 64", err)
	}
	// A frame under the cap still decodes.
	buf.Reset()
	small := &Update{ClientID: 3, Participating: true, Weight: 2, Params: []float32{1, 2, 3}}
	if err := enc.Encode(&buf, small); err != nil {
		t.Fatal(err)
	}
	msg, err := capped.Decode(&buf)
	if err != nil {
		t.Fatalf("in-bounds frame refused: %v", err)
	}
	if u := msg.(*Update); u.ClientID != 3 || u.Params[2] != 3 {
		t.Fatalf("in-bounds frame mangled: %+v", u)
	}
	// The logical params bound scales with the cap: a small sparse frame must
	// not be able to claim a dense length the cap could never carry.
	buf.Reset()
	sparse := &Update{ClientID: 0, Participating: true, Weight: 1,
		Sparse: &tensor.SparseVec{N: 1 << 20, Indices: []int32{0}, Values: []float32{1}}}
	if err := enc.Encode(&buf, sparse); err != nil {
		t.Fatal(err)
	}
	capped2 := Codec{maxFrame: 1 << 10}
	if _, err := capped2.Decode(&buf); err == nil {
		t.Fatal("sparse frame claiming 1M dense params must be refused at MaxFrame 1KB")
	}
	// End-to-end: the option threads through the wire transport.
	left, right := net.Pipe()
	defer left.Close()
	defer right.Close()
	sender := NewWire(left)
	receiver := NewWireWith(right, WireOptions{MaxFrame: 64})
	errc := make(chan error, 1)
	go func() { errc <- sender.Send(big) }()
	if _, err := receiver.Recv(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("wire recv of oversized frame: got %v, want a limit error", err)
	}
	<-errc // the pipe write may or may not have completed; just reap it
}
