package fed

import (
	"math"
	"net"
	"testing"

	"repro/internal/tensor"
)

// A lossless dense upload off a wire link stays in wire form: its values are
// the little-endian run in the frame payload the link read it into. These
// tests hand every consumer of such an upload the one a real WireTransport
// decoded, while it is still borrowed, and hold each to what it makes of the
// vector that was sent.

// wireFormLen has a tail past every 16-byte window and every eight-float
// vector, and is long enough for a sharded fold to fan out.
const wireFormLen = 5003

// overWire sends msgs down a WireTransport over net.Pipe and calls fn with
// each message as the receiving end decoded it, before that end's next Recv:
// the whole life a link's decode has.
func overWire(t *testing.T, msgs []Msg, fn func(i int, m Msg)) {
	t.Helper()
	a, b := net.Pipe()
	tx, rx := NewWireWith(a, WireOptions{}), NewWireWith(b, WireOptions{})
	defer rx.Close() // unblocks the sender if fn fails the test
	sent := make(chan error, 1)
	go func() {
		defer tx.Close()
		for _, m := range msgs {
			if err := tx.Send(m); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := range msgs {
		m, err := rx.Recv()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		fn(i, m)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// denseUploads builds k dense uploads of wireFormLen coordinates, each with
// its own weight, whose values mix normals with -0 and denormals (no +0, so
// the encoder keeps every one dense). Coordinate 0 is -0 in every one, so the
// fold's first write must turn it into +0.
func denseUploads(seed uint64, k int) ([]*Update, []Msg) {
	rng := tensor.NewRNG(seed)
	ups, msgs := make([]*Update, k), make([]Msg, k)
	for i := range ups {
		v := make([]float32, wireFormLen)
		rng.FillNorm(v, 1)
		for j := i; j < len(v); j += 7 {
			v[j] = math.Float32frombits([]uint32{0x80000000, 0x00000001, 0x807fffff}[j%3])
		}
		v[0] = math.Float32frombits(0x80000000)
		ups[i] = &Update{ClientID: i, Participating: true, Weight: float64(1 + i%3), Params: v}
		msgs[i] = ups[i]
	}
	return ups, msgs
}

// wireForm fails the test unless m is a lossless dense upload in wire form
// of the given length.
func wireForm(t *testing.T, m Msg) *Update {
	t.Helper()
	u := m.(*Update)
	if u.Params != nil || u.Sparse != nil || len(u.paramsLE) != 4*wireFormLen || u.ParamLen() != wireFormLen {
		t.Fatalf("decoded upload: Params %d, Sparse %v, %d wire bytes, ParamLen %d; want the wire form of %d coordinates",
			len(u.Params), u.Sparse != nil, len(u.paramsLE), u.ParamLen(), wireFormLen)
	}
	return u
}

// TestWireDenseUploadFolds: SparseFedAvg folds wire-form uploads straight
// from their frames, bit for bit what it makes of the vectors sent and what
// the reference clear → Axpy → scale makes of them, at one shard and at
// three; and the fold of a wire-form upload allocates nothing.
func TestWireDenseUploadFolds(t *testing.T) {
	ups, msgs := denseUploads(61, 4)
	want := (&WeightedFedAvg{}).Aggregate(ups)
	for _, shards := range []int{1, 3} {
		wire, vec := NewShardedFedAvg(shards), NewShardedFedAvg(shards)
		wire.BeginRound()
		vec.BeginRound()
		overWire(t, msgs, func(i int, m Msg) {
			wire.Accumulate(wireForm(t, m))
			vec.Accumulate(ups[i])
		})
		got := wire.FinishRound()
		if !sameBits(got, vec.FinishRound()) || !sameBits(got, want) {
			t.Fatalf("shards=%d: the fold from the frames differs from the fold of the vectors", shards)
		}
	}
	overWire(t, msgs[:1], func(_ int, m Msg) {
		u, agg := wireForm(t, m), NewShardedFedAvg(3)
		if allocs := testing.AllocsPerRun(20, func() {
			agg.BeginRound()
			agg.Accumulate(u)
			agg.Accumulate(u)
			agg.FinishRound()
		}); allocs != 0 {
			t.Fatalf("a window of wire-form folds allocates %.1f times", allocs)
		}
	})
}

// TestWireDenseUploadRobustRules: the buffering adapter decodes a wire-form
// upload straight into its slot, so trimmed-mean, median and Krum reduce the
// vectors that were sent, bit for bit.
func TestWireDenseUploadRobustRules(t *testing.T) {
	ups, msgs := denseUploads(62, 5)
	for _, spec := range []string{"trimmed-mean:0.2", "median", "krum:1"} {
		wire, err := ParseAggregator(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		vec, _ := ParseAggregator(spec, 1)
		ws, vs := wire.(StreamAggregator), vec.(StreamAggregator)
		ws.BeginRound()
		vs.BeginRound()
		overWire(t, msgs, func(i int, m Msg) {
			ws.Accumulate(wireForm(t, m))
			vs.Accumulate(ups[i])
		})
		if !sameBits(ws.FinishRound(), vs.FinishRound()) {
			t.Fatalf("%s: the reduction of the wire-form uploads differs from that of the vectors", spec)
		}
	}
}

// TestWireDenseUploadNonFinite: with RejectNonFinite the server tests a
// wire-form upload's values on the bytes, and refuses a NaN or an infinity
// wherever it sits — first, in the middle or among the last coordinates —
// while a finite upload, -0 and denormals included, passes.
func TestWireDenseUploadNonFinite(t *testing.T) {
	ups, _ := denseUploads(63, 1)
	finite := ups[0].Params
	cases := []struct {
		at   int
		bits uint32
	}{
		{-1, 0}, // finite
		{0, 0x7fc00000},
		{1234, 0xff800000},
		{2501, 0xffc00001},
		{wireFormLen - 4, 0x7f800001},
		{wireFormLen - 3, 0x7f800000},
		{wireFormLen - 1, 0xffffffff},
	}
	msgs := make([]Msg, len(cases))
	for i, c := range cases {
		v := append([]float32(nil), finite...)
		if c.at >= 0 {
			v[c.at] = math.Float32frombits(c.bits)
		}
		msgs[i] = &Update{ClientID: 0, Participating: true, Weight: 1, Params: v}
	}
	link, _ := Loopback()
	srv := NewServer(ServerConfig{Method: "test", NumTasks: 1, Rounds: 1, RejectNonFinite: true, Logf: t.Logf},
		nil, []Transport{link})
	overWire(t, msgs, func(i int, m Msg) {
		if admitted := srv.admitUpdate(wireForm(t, m), 0); admitted != (cases[i].at < 0) {
			t.Fatalf("%#x at %d: admitted %v", cases[i].bits, cases[i].at, admitted)
		}
	})
	if nonFinite, _, _, _ := srv.Rejections(); nonFinite != len(cases)-1 {
		t.Fatalf("%d non-finite rejections, want %d", nonFinite, len(cases)-1)
	}
}

// TestWireDenseUploadDetached: the link's next Recv rewrites a borrowed
// wire-form upload in place — its bytes are the frame payload — while the
// detached copy taken before it keeps the values that were sent.
func TestWireDenseUploadDetached(t *testing.T) {
	ups, msgs := denseUploads(64, 2)
	var borrowed []byte
	var kept *Update
	overWire(t, msgs, func(i int, m Msg) {
		u := wireForm(t, m)
		if i == 0 {
			borrowed, kept = u.paramsLE, detached(u).(*Update)
			return
		}
		if kept.borrowed || kept.ParamLen() != wireFormLen || !sameBits(kept.DenseInto(nil), ups[0].Params) {
			t.Fatal("the detached upload did not outlive the next Recv")
		}
		got := make([]float32, wireFormLen)
		if tensor.GetFloat32sLE(got, borrowed); !sameBits(got, ups[1].Params) {
			t.Fatal("the borrowed upload's bytes were not the link's frame: the next Recv left them alone")
		}
	})
}
