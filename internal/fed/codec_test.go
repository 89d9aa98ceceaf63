package fed

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/shard"
	"repro/internal/tensor"
)

// roundTrip encodes m, decodes the frame, and returns the result.
func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after one frame", buf.Len())
	}
	return got
}

func TestCodecRoundTrip(t *testing.T) {
	msgs := []Msg{
		&helloMsg{clientID: 7, fingerprint: 0xDEADBEEFCAFE},
		&helloMsg{clientID: 4, fingerprint: 99, rejoin: true, lastVersion: 1 << 40},
		&helloMsg{fingerprint: 0xFEED, join: true},
		&helloMsg{fingerprint: 7, join: true, lastVersion: 1 << 33},
		&helloMsg{clientID: 9}, // seat-assignment reply
		&Leave{ClientID: 0},
		&Leave{ClientID: 1 << 20},
		&Catchup{TaskIdx: 2, Seen: 3, Version: 300, Params: []float32{1, -2}},
		&Catchup{TaskIdx: 0, Seen: 1, Version: 7, TaskFinal: true, Params: []float32{0.5}},
		&Catchup{TaskIdx: 1, Seen: 2, Version: 9, TaskDone: true},
		&RoundStart{TaskIdx: 3, Round: 14, Participate: true, TaskDone: true},
		&RoundStart{},
		&Update{ClientID: 2, Participating: true, Weight: 30,
			ComputeSeconds: 0.125, UpBytes: 1 << 40, DownBytes: 12345,
			Params: []float32{0, 1.5, -2.25, float32(math.Inf(1)), math.SmallestNonzeroFloat32}},
		&Update{ClientID: 1}, // dropped-out acknowledgement: no params
		&GlobalModel{Params: []float32{3.14, -0}},
		&GlobalModel{},
		&RoundEnd{ClientID: 5, EvalAccs: []float64{0.25, 1, 0.6180339887498949}},
		&RoundEnd{ClientID: 0, Dead: true},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if u, ok := got.(*Update); ok && u.ParamLen() > 0 && (u.Params != nil || u.paramsLE == nil) {
			t.Fatalf("round trip: a lossless dense update decoded to %+v, want its wire form", u)
		}
		if got = materialised(got); !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %T: got %+v, want %+v", m, got, m)
		}
	}
}

func TestCodecFloatBitsPreserved(t *testing.T) {
	// IEEE-754 bit patterns — including NaN payloads — must survive the
	// wire untouched; that is what makes wire runs bit-identical.
	nan32 := math.Float32frombits(0x7FC00123)
	u := roundTrip(t, &Update{Params: []float32{nan32}, Participating: true,
		Weight: math.Float64frombits(0x7FF8000000000042)}).(*Update)
	if got := u.DenseInto(nil); math.Float32bits(got[0]) != 0x7FC00123 {
		t.Errorf("float32 bits %#x", math.Float32bits(got[0]))
	}
	if math.Float64bits(u.Weight) != 0x7FF8000000000042 {
		t.Errorf("float64 bits %#x", math.Float64bits(u.Weight))
	}
}

// materialised returns m with the values of an update in wire form decoded
// into Params (through DenseInto, the tests' one way to read them), which
// is how it compares with the message that was sent; any other message is
// returned as it is.
func materialised(m Msg) Msg {
	if u, ok := m.(*Update); ok && u.paramsLE != nil {
		u.Params, u.paramsLE = u.DenseInto(nil), nil
	}
	return m
}

func TestCodecStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	sent := []Msg{
		&RoundStart{TaskIdx: 1, Participate: true},
		&Update{ClientID: 0, Participating: true, Weight: 2, Params: []float32{1, 2}},
		&GlobalModel{Params: []float32{1.5, 1.5}},
		&RoundEnd{ClientID: 0, EvalAccs: []float64{0.5, 0.25}},
	}
	for _, m := range sent {
		if err := Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got = materialised(got); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := Decode(&buf); err != io.EOF {
		t.Fatalf("exhausted stream: err = %v, want io.EOF", err)
	}
}

func TestCodecErrors(t *testing.T) {
	cases := map[string][]byte{
		"unknown kind":       {99, 0, 0, 0, 0},
		"truncated header":   {byte(KindUpdate), 1, 0},
		"truncated payload":  {byte(KindUpdate), 10, 0, 0, 0, 1, 2},
		"oversized frame":    {byte(KindGlobalModel), 0xFF, 0xFF, 0xFF, 0xFF},
		"short round start":  {byte(KindRoundStart), 2, 0, 0, 0, 1, 2},
		"f32 count too big":  append([]byte{byte(KindGlobalModel), 8, 0, 0, 0}, bytes.Repeat([]byte{0xFF}, 8)...),
		"trailing bytes":     {byte(KindRoundStart), 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0},
		"empty hello":        {byte(KindHello), 0, 0, 0, 0},
		"round end no count": {byte(KindRoundEnd), 5, 0, 0, 0, 1, 0, 0, 0, 0},
	}
	for name, raw := range cases {
		if _, err := Decode(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	// A clean EOF at a frame boundary is not an error condition.
	if _, err := Decode(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
	// A payload over the frame bound is refused by the encoder, before a byte
	// of it is written — not shipped in full for the peer to refuse.
	c := NewCodec(Compression{})
	c.maxFrame = 64
	var out bytes.Buffer
	full := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if err := c.Encode(&out, &GlobalModel{Params: full}); err == nil || out.Len() != 0 {
		t.Errorf("oversized encode: err = %v with %d bytes written, want an error and none", err, out.Len())
	}
	if err := c.Encode(&out, &GlobalModel{Params: full[:8]}); err != nil || out.Len() == 0 {
		t.Errorf("encode within the bound: err = %v, %d bytes written", err, out.Len())
	}
}

// TestCodecMembershipErrors pins the v5 decode-time validation of the
// membership frames: a malformed seat ID, a hello claiming both roles or a
// pre-picked seat, and an out-of-range catch-up position are all rejected
// while the frame is being read — before the acceptor, the scheduler, or
// the params allocator ever sees the claim.
func TestCodecMembershipErrors(t *testing.T) {
	hello := func(clientID [4]byte, flags byte) []byte {
		raw := append([]byte{byte(KindHello), 15, 0, 0, 0}, clientID[:]...)
		raw = append(raw, 1, 0, 0, 0, 0, 0, 0, 0) // fingerprint
		return append(raw, 0, flags, 0)           // quant, flags, lastVersion
	}
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{
			name: "hello claiming join and rejoin at once",
			raw:  hello([4]byte{}, flagJoin|flagRejoin),
			want: "claims both join and rejoin",
		},
		{
			name: "join hello claiming a seat",
			raw:  hello([4]byte{2, 0, 0, 0}, flagJoin),
			want: "join hello claims seat 2",
		},
		{
			name: "hello seat ID beyond the bound",
			raw:  hello([4]byte{0xFF, 0xFF, 0xFF, 0xFF}, 0),
			want: "malformed seat ID",
		},
		{
			name: "leave seat ID beyond the bound",
			raw:  []byte{byte(KindLeave), 4, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},
			want: "malformed seat ID",
		},
		{
			name: "truncated leave",
			raw:  []byte{byte(KindLeave), 2, 0, 0, 0, 1, 0},
			want: "",
		},
		{
			name: "leave with trailing bytes",
			raw:  []byte{byte(KindLeave), 8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0},
			want: "",
		},
		{
			// The hostile task index is rejected on read; the params block
			// that would follow is never reached, let alone allocated.
			name: "catch-up task position out of range",
			raw:  []byte{byte(KindCatchup), 7, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0},
			want: "catch-up position",
		},
		{
			// seen = 2^35 as a uvarint: beyond any seat's possible progress.
			name: "catch-up resume round out of range",
			raw: []byte{byte(KindCatchup), 12, 0, 0, 0, 0, 0, 0, 0,
				0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 0},
			want: "catch-up position",
		},
	}
	for _, c := range cases {
		_, err := Decode(bytes.NewReader(c.raw))
		if err == nil {
			t.Errorf("%s: decode succeeded, want error", c.name)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCodecRoundTripSparse(t *testing.T) {
	msgs := []*Update{
		{ClientID: 3, Participating: true, Weight: 12,
			Sparse: &tensor.SparseVec{N: 10, Indices: []int32{0, 4, 9}, Values: []float32{1.5, -2, 3}}},
		{ClientID: 1, Participating: true, Weight: 1,
			Sparse: &tensor.SparseVec{N: 1 << 20}}, // empty sparse vector
		{ClientID: 0, Participating: true,
			Sparse: &tensor.SparseVec{N: 3, Indices: []int32{2}, Values: []float32{0}}}, // stored zero survives
	}
	for _, m := range msgs {
		got := roundTrip(t, m).(*Update)
		if got.Params != nil || got.paramsLE != nil {
			t.Fatalf("sparse update decoded with dense params")
		}
		if got.Sparse.N != m.Sparse.N || got.Sparse.Len() != m.Sparse.Len() {
			t.Fatalf("sparse shape: got (%d,%d), want (%d,%d)",
				got.Sparse.N, got.Sparse.Len(), m.Sparse.N, m.Sparse.Len())
		}
		for i := range m.Sparse.Indices {
			if got.Sparse.Indices[i] != m.Sparse.Indices[i] ||
				math.Float32bits(got.Sparse.Values[i]) != math.Float32bits(m.Sparse.Values[i]) {
				t.Fatalf("sparse entry %d: got (%d,%v), want (%d,%v)", i,
					got.Sparse.Indices[i], got.Sparse.Values[i],
					m.Sparse.Indices[i], m.Sparse.Values[i])
			}
		}
	}
}

// TestCodecAutoSparse: a mostly-zero dense vector is transparently shipped
// as a sparse frame — smaller on the wire, bit-exact after decoding — while
// a dense vector keeps the dense form. Negative zero has a non-zero bit
// pattern and must survive either way.
func TestCodecAutoSparse(t *testing.T) {
	dense := make([]float32, 1000)
	dense[3] = 1.5
	dense[500] = float32(math.Copysign(0, -1))
	dense[999] = -8

	var sparse, denseOff bytes.Buffer
	if err := Encode(&sparse, &Update{Participating: true, Params: dense}); err != nil {
		t.Fatal(err)
	}
	c := NewCodec(Compression{DisableSparse: true})
	if err := c.Encode(&denseOff, &Update{Participating: true, Params: dense}); err != nil {
		t.Fatal(err)
	}
	if sparse.Len() >= denseOff.Len() {
		t.Fatalf("auto-sparse frame (%d B) not smaller than dense (%d B)", sparse.Len(), denseOff.Len())
	}
	got, err := Decode(&sparse)
	if err != nil {
		t.Fatal(err)
	}
	u := got.(*Update)
	if u.Sparse == nil {
		t.Fatal("auto-sparse frame decoded dense")
	}
	back := u.Sparse.Densify()
	for i := range dense {
		if math.Float32bits(back[i]) != math.Float32bits(dense[i]) {
			t.Fatalf("coordinate %d: %#x != %#x", i, math.Float32bits(back[i]), math.Float32bits(dense[i]))
		}
	}

	// A fully dense vector stays dense.
	full := make([]float32, 100)
	for i := range full {
		full[i] = float32(i + 1)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, &GlobalModel{Params: full}); err != nil {
		t.Fatal(err)
	}
	gm, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gm.(*GlobalModel).Params, full) {
		t.Fatal("dense global model mangled")
	}
}

// TestCodecSparseGlobalModelDensifies: GlobalModel frames may travel sparse,
// but clients install full vectors, so the decoder densifies them.
func TestCodecSparseGlobalModelDensifies(t *testing.T) {
	params := make([]float32, 64)
	params[7] = 3.5
	var buf bytes.Buffer
	if err := Encode(&buf, &GlobalModel{Params: params}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.(*GlobalModel).Params, params) {
		t.Fatalf("sparse-encoded global model: got %v", got.(*GlobalModel).Params)
	}
}

func TestCodecQuantizedF16(t *testing.T) {
	c := NewCodec(Compression{Quant: QuantF16})
	params := []float32{1, -0.5, 0.333333, 100, 0}
	var buf bytes.Buffer
	if err := c.Encode(&buf, &Update{Participating: true, Weight: 2, Params: params}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	u := got.(*Update)
	var dec []float32
	if u.Sparse != nil {
		dec = u.Sparse.Densify()
	} else {
		dec = u.Params
	}
	for i, v := range params {
		if math.Abs(float64(dec[i]-v)) > math.Abs(float64(v))*1e-3 {
			t.Errorf("f16 value %d: %v → %v", i, v, dec[i])
		}
	}
	// Exactly-representable values survive bit-for-bit.
	for _, i := range []int{0, 1, 3, 4} {
		if dec[i] != params[i] {
			t.Errorf("f16-exact value %v decoded as %v", params[i], dec[i])
		}
	}
}

// TestCodecQuantizedEmptyParams: a dropped-out client's acknowledgement
// (nil params) must round-trip under every value encoding — a -compress
// int8 run with dropout sends these every round.
func TestCodecQuantizedEmptyParams(t *testing.T) {
	for _, q := range []Quant{QuantNone, QuantF16, QuantI8} {
		var buf bytes.Buffer
		c := NewCodec(Compression{Quant: q})
		if err := c.Encode(&buf, &Update{ClientID: 3}); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		u := got.(*Update)
		if u.ClientID != 3 || u.Params != nil || u.paramsLE != nil || u.Sparse != nil {
			t.Fatalf("%s: %+v", q, u)
		}
	}
}

func TestCodecQuantizedI8(t *testing.T) {
	c := NewCodec(Compression{Quant: QuantI8})
	params := []float32{127, -127, 64, 0, 1}
	var buf bytes.Buffer
	if err := c.Encode(&buf, &GlobalModel{Params: params}); err != nil {
		t.Fatal(err)
	}
	// int8 dense payload: version+flags+format+n+scale+5 values =
	// 1+1+1+1+4+5 = 13 ≤ half the float32 form's 25.
	if plLen := buf.Len() - 5; plLen != 13 {
		t.Fatalf("i8 payload %d bytes, want 13", plLen)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dec := got.(*GlobalModel).Params
	for i, v := range params {
		if math.Abs(float64(dec[i]-v)) > 0.5 {
			t.Errorf("i8 value %d: %v → %v", i, v, dec[i])
		}
	}
}

// TestCodecSparseDecoderBounds exercises the sparse decoder's validation:
// out-of-range indices, over-long counts and varint overflows must error,
// never panic or over-allocate.
func TestCodecSparseDecoderBounds(t *testing.T) {
	sparseFrame := func(body ...byte) []byte {
		// v3 GlobalModel payload: version(uvarint)=0, flags=0, then the
		// params block under test.
		body = append([]byte{0, 0}, body...)
		frame := append([]byte{byte(KindGlobalModel), 0, 0, 0, 0}, body...)
		binary.LittleEndian.PutUint32(frame[1:], uint32(len(body)))
		return frame
	}
	cases := map[string][]byte{
		"index out of range":     sparseFrame(0x04, 4, 1, 200, 0, 0, 0x80, 0x3F),                                                                             // idx 200 ≥ n 4
		"gap wraps to duplicate": sparseFrame(0x04, 8, 2, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0, 0x80, 0x3F, 0, 0, 0x80, 0x3F), // gap 2^64-1 ⇒ idx = prev
		"gap varint overflow":    sparseFrame(0x04, 4, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
		"k exceeds n":            sparseFrame(0x04, 2, 3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
		"k exceeds payload":      sparseFrame(0x04, 100, 90),
		"n exceeds limit":        sparseFrame(0x04, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0),
		"truncated gap stream":   sparseFrame(0x04, 10, 2, 1),
		"truncated sparse value": sparseFrame(0x04, 10, 2, 1, 1, 0, 0, 0, 0),
		"unknown format":         sparseFrame(0x0F, 1, 0),
		"unknown value encoding": sparseFrame(0x03, 1, 0, 0, 0, 0),
		"nonzero k at n=0":       sparseFrame(0x04, 0, 1, 0, 0, 0, 0, 0),
	}
	for name, raw := range cases {
		if _, err := Decode(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	// A count the rest of the payload cannot hold at its exact minimum size is
	// refused before anything is sized by it: the frame leaves the scratch as
	// empty as it found it, where a one-byte-per-coordinate check let a dense
	// count grow 4× and a sparse one 8× the payload first.
	for name, raw := range map[string][]byte{
		"dense count over payload":  sparseFrame(append([]byte{0x00, 100}, make([]byte, 100)...)...),
		"int8 dense without scale":  sparseFrame(append([]byte{0x02, 8}, make([]byte, 8)...)...),
		"sparse count over payload": sparseFrame(append([]byte{0x04, 0xC8, 0x01, 100}, make([]byte, 100)...)...),
	} {
		c := NewCodec(Compression{})
		if _, err := c.Decode(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "exceeds payload") {
			t.Errorf("%s: err %v, want the payload bound", name, err)
		}
		if s := &c.dec; cap(s.f32)+cap(s.spIdx)+cap(s.spVal) != 0 {
			t.Errorf("%s: refused frame grew the scratch (f32 %d, spIdx %d, spVal %d)", name, cap(s.f32), cap(s.spIdx), cap(s.spVal))
		}
	}
	// Duplicate/descending indices are impossible by construction: gap
	// encoding always advances by at least one. A zero gap after the first
	// index is index+1, still strictly ascending — verify it decodes.
	ok := sparseFrame(0x04, 4, 2, 1, 0, 0, 0, 0x80, 0x3F, 0, 0, 0x80, 0xBF) // idx 1,2 ← gaps 1,0
	m, err := Decode(bytes.NewReader(ok))
	if err != nil {
		t.Fatalf("valid sparse frame rejected: %v", err)
	}
	sp := m.(*GlobalModel).Params
	if sp[1] != 1 || sp[2] != -1 {
		t.Fatalf("sparse frame decoded wrong: %v", sp)
	}
}

// FuzzDecode feeds arbitrary bytes through the decoder: it must never panic
// or over-allocate, and anything it accepts must re-encode to a frame that
// decodes back to the same message.
func FuzzDecode(f *testing.F) {
	seeds := []Msg{
		&helloMsg{clientID: 3, fingerprint: 1, quant: QuantF16},
		&RoundStart{TaskIdx: 2, Round: 1, Participate: true, TaskDone: true},
		&Update{ClientID: 1, Participating: true, Weight: 10, ComputeSeconds: 1.5,
			UpBytes: 100, DownBytes: 200, Params: []float32{1, 2, 3}},
		&Update{ClientID: 2, Participating: true, Weight: 4,
			Sparse: &tensor.SparseVec{N: 100, Indices: []int32{0, 17, 99}, Values: []float32{1, -2, 3}}},
		&GlobalModel{Params: []float32{-1, 0.5}},
		&GlobalModel{Params: append(make([]float32, 60), 2.5)}, // auto-sparse form
		&RoundEnd{ClientID: 2, EvalAccs: []float64{0.1, 0.9}},
		&helloMsg{clientID: 1, fingerprint: 2, rejoin: true, lastVersion: 5},
		&helloMsg{fingerprint: 3, join: true, lastVersion: 9},
		&helloMsg{clientID: 6}, // seat-assignment reply
		&Leave{ClientID: 4},
		&Catchup{TaskIdx: 1, Seen: 2, Version: 3, TaskFinal: true, Params: []float32{1, 0, 0, 2}},
		&Catchup{TaskIdx: 0, Seen: 0, Version: 1, TaskDone: true},
	}
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, comp := range []Compression{{Quant: QuantF16}, {Quant: QuantI8}} {
		var buf bytes.Buffer
		if err := NewCodec(comp).Encode(&buf, &Update{Participating: true,
			Params: []float32{0.25, 0, -3, 0, 0, 0, 0, 0, 0, 0.5}}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{byte(KindUpdate), 0xFF, 0xFF, 0, 0})
	f.Add([]byte{byte(KindGlobalModel), 7, 0, 0, 0, 0x04, 10, 2, 1, 1})           // truncated sparse
	f.Add([]byte{byte(KindLeave), 4, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})            // out-of-range seat
	f.Add([]byte{byte(KindCatchup), 7, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0}) // hostile position
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := Decode(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if u, ok := m.(*Update); ok && u.Sparse == nil && u.ParamLen() > 0 {
			// A dense upload folds from the form it was decoded to (a
			// lossless one from its frame) bit for bit as its vector does:
			// once onto a range (the write) and once more (the add).
			vec := &Update{Weight: u.Weight, Params: u.DenseInto(nil)}
			got := NewShardedFedAvg(3).Aggregate([]*Update{u, u})
			if want := NewShardedFedAvg(3).Aggregate([]*Update{vec, vec}); !sameBits(got, want) {
				t.Fatalf("folding the decoded update gives %v, folding its vector %v", got, want)
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			t.Fatalf("re-encode %T: %v", m, err)
		}
		m2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		b1 := appendPayload(nil, m, Compression{})
		b2 := appendPayload(nil, m2, Compression{})
		if !bytes.Equal(b1, b2) {
			t.Fatalf("decode/encode not idempotent: %x vs %x", b1, b2)
		}
	})
}

// TestUvarintLen holds the closed form to the encoder it sizes, on both
// sides of every group boundary.
func TestUvarintLen(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if got, want := uvarintLen(v), binary.PutUvarint(buf[:], v); got != want {
				t.Errorf("uvarintLen(%#x) = %d, the encoding takes %d bytes", v, got, want)
			}
		}
	}
	if got := uvarintLen(math.MaxUint64); got != binary.MaxVarintLen64 {
		t.Errorf("uvarintLen(max) = %d", got)
	}
}

// refAppendParams is the parent commit's dense-vector encoder, kept verbatim
// as the reference the two-pass compacting encoder is held to byte for byte:
// one branching sweep for the size decision (with its early bail), then one
// for the gaps and one for the values, an append per byte group.
func refAppendParams(buf []byte, dense []float32, comp Compression) []byte {
	n := len(dense)
	if !comp.DisableSparse && n > 0 {
		vb := comp.Quant.valueBytes()
		scaleBytes := 0
		if comp.Quant == QuantI8 {
			scaleBytes = 4
		}
		k, gapBytes, prev := 0, 0, -1
		for i, v := range dense {
			if math.Float32bits(v) != 0 {
				gapBytes += uvarintLen(uint64(i - prev - 1))
				prev = i
				k++
				if gapBytes+k*vb+1 >= n*vb {
					break
				}
			}
		}
		if uvarintLen(uint64(k))+scaleBytes+gapBytes+k*vb < scaleBytes+n*vb {
			buf = append(buf, comp.formatByte(true))
			buf = binary.AppendUvarint(buf, uint64(n))
			return refAppendSparseFromDense(buf, dense, k, comp.Quant)
		}
	}
	buf = append(buf, comp.formatByte(false))
	buf = binary.AppendUvarint(buf, uint64(n))
	switch comp.Quant {
	case QuantF16:
		for _, v := range dense {
			buf = binary.LittleEndian.AppendUint16(buf, f32ToF16(v))
		}
	case QuantI8:
		if n == 0 {
			break
		}
		scale := i8Scale(dense)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(scale))
		for _, v := range dense {
			buf = append(buf, byte(i8Quantize(v, scale)))
		}
	default:
		for _, v := range dense {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return buf
}

func refAppendSparseFromDense(buf []byte, dense []float32, k int, q Quant) []byte {
	buf = binary.AppendUvarint(buf, uint64(k))
	var scale float32
	if q == QuantI8 {
		scale = i8Scale(dense)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(scale))
	}
	prev := -1
	for i, v := range dense {
		if math.Float32bits(v) != 0 {
			buf = binary.AppendUvarint(buf, uint64(i-prev-1))
			prev = i
		}
	}
	for _, v := range dense {
		if math.Float32bits(v) == 0 {
			continue
		}
		switch q {
		case QuantF16:
			buf = binary.LittleEndian.AppendUint16(buf, f32ToF16(v))
		case QuantI8:
			buf = append(buf, byte(i8Quantize(v, scale)))
		default:
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return buf
}

// allCompressions is every encoder setting: three value encodings, with and
// without the sparse form.
var allCompressions = []Compression{
	{}, {Quant: QuantF16}, {Quant: QuantI8},
	{DisableSparse: true}, {Quant: QuantF16, DisableSparse: true}, {Quant: QuantI8, DisableSparse: true},
}

// oddValues are the non-zero bit patterns an encoder is most likely to get
// wrong: negative zero (a zero value, a non-zero pattern), NaN (fails every
// comparison), a denormal, and ordinary values of both signs.
var oddValues = []float32{
	1.5, float32(math.Copysign(0, -1)), math.Float32frombits(0x7FC00123),
	math.SmallestNonzeroFloat32, -8, 3e38,
}

// checkEncodeParams holds appendParams to the reference on one vector, under
// every compression, behind a non-empty prefix (offsets are relative to the
// block, not the buffer), and checks the block decodes back to the vector.
func checkEncodeParams(t *testing.T, dense []float32) {
	t.Helper()
	for _, comp := range allCompressions {
		prefix := []byte{0xAA, 0xBB, 0xCC}
		want := refAppendParams(append([]byte(nil), prefix...), dense, comp)
		got := appendParams(append([]byte(nil), prefix...), dense, nil, comp)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d comp=%+v: encoder differs from the reference (%d vs %d bytes, first difference at %d)",
				len(dense), comp, len(got), len(want), firstDiff(got, want))
		}
		checkParamsDecode(t, got[len(prefix):], dense, comp.Quant)
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// checkParamsDecode decodes one params block and compares it, coordinate by
// coordinate and bit for bit, with what the value encoding makes of dense.
func checkParamsDecode(t *testing.T, block []byte, dense []float32, q Quant) {
	t.Helper()
	c := &cursor{buf: block, scratch: &decodeScratch{}}
	got, run, sp := c.params(false)
	if c.err != nil || c.off != len(block) {
		t.Fatalf("n=%d quant=%s: decode: err %v, %d of %d bytes read", len(dense), q, c.err, c.off, len(block))
	}
	if sp != nil {
		got = sp.Densify()
	}
	if run != nil {
		got = make([]float32, len(run)/4)
		tensor.GetFloat32sLE(got, run)
	}
	if len(got) != len(dense) {
		t.Fatalf("n=%d quant=%s: decoded %d coordinates", len(dense), q, len(got))
	}
	scale := i8Scale(dense)
	for i, v := range dense {
		want := v
		switch q {
		case QuantF16:
			want = f16ToF32(f32ToF16(v))
		case QuantI8:
			want = float32(i8Quantize(v, scale)) * scale
		}
		if math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("n=%d quant=%s: coordinate %d decodes to %#x, want %#x",
				len(dense), q, i, math.Float32bits(got[i]), math.Float32bits(want))
		}
	}
}

// runsVector builds a vector from zero-run lengths: each run is followed by
// one non-zero taken from oddValues in turn; tail zeros close it.
func runsVector(tail int, runs ...int) []float32 {
	n := tail
	for _, r := range runs {
		n += r + 1
	}
	out := make([]float32, n)
	at := -1
	for i, r := range runs {
		at += r + 1
		out[at] = oddValues[i%len(oddValues)]
	}
	return out
}

// TestEncodeParamsMatchesReference is the differential test of the
// compacting encoder: every density around the dense/sparse break-even, every
// uvarint gap width on both sides of its boundary and across a compaction
// block boundary, every length around the block size, and the bit patterns
// that are zero values but not zero bits (or the reverse of what a float
// comparison says).
func TestEncodeParamsMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(2024)
	for _, n := range []int{5000, 1<<18 + 3} {
		for _, density := range []float64{0, 1e-4, 0.01, 0.10, 0.19, 0.5, 0.79, 0.80, 0.81, 1} {
			dense := make([]float32, n)
			for i := range dense {
				if rng.Float64() < density {
					dense[i] = float32(rng.Float64() - 0.5)
				}
			}
			checkEncodeParams(t, dense)
		}
	}
	for _, n := range []int{0, 1, 2, compactBlock - 1, compactBlock, compactBlock + 1, 2*compactBlock + 1} {
		full := make([]float32, n)
		for i := range full {
			full[i] = oddValues[i%len(oddValues)]
		}
		checkEncodeParams(t, full)
		checkEncodeParams(t, make([]float32, n))
		if n > 0 {
			first, last := make([]float32, n), make([]float32, n)
			first[0], last[n-1] = -1, float32(math.Copysign(0, -1))
			checkEncodeParams(t, first)
			checkEncodeParams(t, last)
		}
	}
	// 1-, 2-, 3- and 4-byte gaps, each side of each width's boundary.
	checkEncodeParams(t, runsVector(40, 126, 127, 128, 129, 0, 0, 127, 128))
	checkEncodeParams(t, runsVector(0, 16383, 16384, 16382, 1))
	checkEncodeParams(t, runsVector(3, 1<<21-1, 5, 1<<21, 0))
	// The same gaps with the non-zero that ends them on either side of a
	// block boundary.
	for _, gap := range []int{126, 127, 128, 129} {
		for shift := -2; shift <= 2; shift++ {
			lead := 3*compactBlock + shift - gap - 1
			checkEncodeParams(t, runsVector(compactBlock, lead, gap, 0, gap))
		}
	}
	// Blocks without a single zero (the size pass counts their gaps without
	// looking at them) behind a long gap, ahead of one, and between sparse
	// stretches.
	solid := runsVector(700, append([]int{700}, make([]int, 3*compactBlock)...)...)
	checkEncodeParams(t, solid)
	checkEncodeParams(t, append(runsVector(0, 5, 300, 17), solid...))
	// Only odd bit patterns, sparse enough for the sparse form to win.
	odd := make([]float32, 4*compactBlock)
	for i := 0; i < len(odd); i += 37 {
		odd[i] = oddValues[(i/37)%len(oddValues)]
	}
	checkEncodeParams(t, odd)

	// The fused dense write: one zero in an otherwise zero-free vector, in
	// each lane of the first eight-coordinate step, of a middle one and of the
	// last full one, and at each tail coordinate. Dense still wins each time,
	// so the write stops at the zero's step, the size resumes from the prefix
	// and only the rest is written.
	nz := 4*compactBlock + 5
	for _, step := range []int{0, 100, nz/8 - 1} {
		for lane := range 8 {
			checkEncodeParams(t, zeroFreeWith(nz, 8*step+lane))
		}
	}
	for p := 8 * (nz / 8); p < nz; p++ {
		checkEncodeParams(t, zeroFreeWith(nz, p))
	}
	// Tails of one to seven coordinates behind whole steps, inside and past
	// the first compaction block, zero-free and with a last coordinate of +0.
	for _, steps := range []int{1, compactBlock / 8, 3 * compactBlock / 8} {
		for tail := 1; tail <= 7; tail++ {
			n := 8*steps + tail
			checkEncodeParams(t, zeroFreeWith(n))
			checkEncodeParams(t, zeroFreeWith(n, n-1))
		}
	}
	// −0 and NaN payloads are non-zero bit patterns: a vector of nothing else
	// stays dense.
	odd = make([]float32, 3*compactBlock+3)
	for i := range odd {
		odd[i] = [...]float32{float32(math.Copysign(0, -1)), math.Float32frombits(0x7FC00123), math.Float32frombits(0xFF800001)}[i%3]
	}
	checkEncodeParams(t, odd)
	// A zero just after a zero-free prefix at, and either side of, a
	// compaction block boundary: followed by non-zeros (dense wins), by
	// zeros only (sparse wins), and by a sparse stretch.
	nb := 8 * compactBlock
	for _, b := range []int{compactBlock, 2 * compactBlock} {
		for p := b - 1; p <= b+1; p++ {
			checkEncodeParams(t, zeroFreeWith(nb, p))
			tail := zeroFreeWith(nb)
			clear(tail[p:])
			checkEncodeParams(t, slices.Clone(tail))
			for i := p + 1; i < nb; i += 9 {
				tail[i] = oddValues[i%len(oddValues)]
			}
			checkEncodeParams(t, tail)
		}
	}
	// A zero-free prefix then only zeros, across the exact break-even: the
	// sparse block of a prefix of p takes 5p + len(uvarint(p)) bytes against
	// the dense 4n, so n = 4096 is beaten at p = 3276 and not at 3277, in the
	// middle of a step, and n = 4091 at p = 3272 and not at 3273, where the
	// first zero opens a step: a prefix counted one coordinate long there
	// flips the form.
	for _, c := range []struct{ n, p int }{{4096, 3276}, {4091, 3272}} {
		for p := c.p - 3; p <= c.p+3; p++ {
			v := zeroFreeWith(c.n)
			clear(v[p:])
			checkEncodeParams(t, v)
		}
	}
}

// zeroFreeWith returns n coordinates cycling through oddValues, none of them
// a zero bit pattern, with +0 at each of zeros.
func zeroFreeWith(n int, zeros ...int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = oddValues[i%len(oddValues)]
	}
	for _, p := range zeros {
		v[p] = 0
	}
	return v
}

// TestZeroFree holds the zero-free test, and the dense write that runs it, to
// a direct scan: one zero bit pattern at any position of any length is found,
// the prefix reported before it is zero-free and ends at most seven
// coordinates short of it, and a negative zero is not a zero. A block with
// exactly one zero is also the only kind on which a wrong answer reaches the
// encoding — it sizes the sparse block by one coordinate too many — so some
// are encoded as well, ahead of a zero tail that makes the sparse form win.
func TestZeroFree(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, compactBlock - 1, compactBlock} {
		v := make([]float32, n)
		for i := range v {
			v[i] = oddValues[i%len(oddValues)]
		}
		out := make([]byte, 4*n)
		check := func(what string, want int) {
			t.Helper()
			if m := zeroFreeLen(v); m > want || m+8 <= want || (m == n) != (want == n) {
				t.Fatalf("n=%d %s: zeroFreeLen %d, first zero at %d", n, what, m, want)
			}
			clear(out)
			m := tensor.PutFloat32sLE(out, v)
			if m != zeroFreeLen(v) {
				t.Fatalf("n=%d %s: the fused write proved %d, zeroFreeLen %d", n, what, m, zeroFreeLen(v))
			}
			got := make([]float32, n)
			if tensor.GetFloat32sLE(got, out); !sameBits(got, v) {
				t.Fatalf("n=%d %s: the fused write stored other bits (prefix %d)", n, what, m)
			}
		}
		check("no zero", n)
		for p := range v {
			keep := v[p]
			v[p] = 0
			check(fmt.Sprintf("zero at %d", p), p)
			v[p] = float32(math.Copysign(0, -1))
			check(fmt.Sprintf("negative zero at %d", p), n)
			if n == compactBlock && (p%8 == 0 || p%8 == 7) {
				v[p] = 0
				checkEncodeParams(t, append(slices.Clone(v), make([]float32, 8*compactBlock)...))
			}
			v[p] = keep
		}
	}
}

// fuzzParamsVector expands a fuzz pattern into a vector: the pattern is a
// sequence of (uvarint zero-run, value selector byte) pairs; whatever is left
// after the last whole pair is a trailing zero run. The length is capped at
// maxN, so a hostile run cannot exhaust memory: a run that would pass it ends
// the vector.
func fuzzParamsVector(pattern []byte, maxN int) []float32 {
	var nz []int
	var sel []byte
	n := 0
	for len(pattern) > 0 {
		run, w := binary.Uvarint(pattern)
		if w <= 0 || run > uint64(maxN) || n+int(run) > maxN {
			break
		}
		pattern = pattern[w:]
		n += int(run)
		if len(pattern) == 0 { // trailing zeros
			break
		}
		nz, sel = append(nz, n), append(sel, pattern[0])
		pattern = pattern[1:]
		n++
	}
	out := make([]float32, n)
	for i, at := range nz {
		out[at] = oddValues[int(sel[i])%len(oddValues)]
	}
	return out
}

// The two caps of fuzzParamsVector. A seed may run to seedMaxN: past 2²¹, the
// step of a uvarint from three bytes to four, both for a gap and for the
// vector's length in the block header, with two compaction blocks to spare
// past 2²². The mutator's inputs stop at mutatorMaxN, past the step from two
// bytes to three at 2¹⁴: at seedMaxN most of its budget went to a few
// four-million-coordinate vectors, each encoded, referenced and decoded six
// times. The seeds reach the large shapes on purpose, and plain go test runs
// them at full size every time.
const (
	seedMaxN    = 1<<22 + 2*compactBlock
	mutatorMaxN = 1 << 16
)

// fuzzing reports whether this test binary runs a fuzz target's mutator
// (-test.fuzz), not only its seeds.
func fuzzing() bool {
	f := flag.Lookup("test.fuzz")
	return f != nil && f.Value.String() != ""
}

// FuzzEncodeParams searches for a vector on which the compacting encoder and
// the reference disagree, or whose block does not decode back.
func FuzzEncodeParams(f *testing.F) {
	pat := func(tail int, pairs ...int) []byte { // (run, selector) pairs
		var p []byte
		for i := 0; i < len(pairs); i += 2 {
			p = binary.AppendUvarint(p, uint64(pairs[i]))
			p = append(p, byte(pairs[i+1]))
		}
		if tail > 0 {
			p = binary.AppendUvarint(p, uint64(tail))
		}
		return p
	}
	f.Add([]byte{})
	f.Add(pat(0, 0, 0))
	f.Add(pat(7))
	f.Add(pat(40, 126, 0, 127, 1, 128, 2, 129, 3))
	f.Add(pat(0, 16383, 4, 16384, 5))
	f.Add(pat(3, 1<<21-1, 0, 1<<21, 1))
	f.Add(pat(compactBlock, compactBlock-1, 1, 0, 2, 127, 3))
	f.Add(pat(0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5)) // fully dense
	f.Add(pat(1000, 3, 1, 496, 1, 498, 4))
	// The length's own uvarint steps in the header: 2¹⁴ − 1 and 2¹⁴ zeros,
	// then 2²¹ − 1 and 2²¹ coordinates ending in a value.
	f.Add(pat(1<<14 - 1))
	f.Add(pat(1 << 14))
	f.Add(pat(0, 1<<21-2, 6))
	f.Add(pat(0, 1<<21-1, 7))
	// The old cap exactly: a four-byte gap of 2²², then two dense blocks.
	top := pat(0, 1<<22, 0)
	for i := 1; i < 2*compactBlock; i++ {
		top = append(top, pat(0, 0, i)...)
	}
	f.Add(top)
	maxN := seedMaxN
	if fuzzing() {
		maxN = mutatorMaxN
	}
	f.Fuzz(func(t *testing.T, pattern []byte) {
		checkEncodeParams(t, fuzzParamsVector(pattern, maxN))
	})
}

// refDecodeParams is the per-element params-block decoder the fixed-width one
// replaced, kept as the reference it is held to bit for bit: a pre-check of one
// byte per claimed coordinate, one bounds-checked uvarint per gap, one indexed
// load per value, and a sparse block staged in spVal and densified afterwards.
func refDecodeParams(c *cursor, densify bool) (dense []float32, sp *tensor.SparseVec) {
	format := c.u8()
	n := c.uvarint()
	if c.err != nil {
		return nil, nil
	}
	if format&^(fmtValueMask|fmtSparse) != 0 || Quant(format&fmtValueMask) > QuantI8 {
		c.err = fmt.Errorf("fed: unknown params format %#x", format)
		return nil, nil
	}
	if n > c.paramLimit() {
		c.err = fmt.Errorf("fed: params length %d exceeds limit %d", n, c.paramLimit())
		return nil, nil
	}
	q := Quant(format & fmtValueMask)
	if n == 0 {
		if format&fmtSparse != 0 {
			if k := c.uvarint(); c.err == nil && k != 0 {
				c.err = fmt.Errorf("fed: sparse params store %d of 0 coordinates", k)
			}
			if q == QuantI8 {
				c.f32()
			}
		}
		return nil, nil
	}
	var scale float32
	if format&fmtSparse == 0 {
		if uint64(len(c.buf)-c.off) < n {
			c.err = fmt.Errorf("fed: params count %d exceeds payload", n)
			return nil, nil
		}
		out := grow(&c.scratch.f32, int(n))
		if q == QuantI8 {
			scale = c.f32()
		}
		refQuantValues(c, out, q, scale)
		return out, nil
	}
	k := c.uvarint()
	if c.err != nil {
		return nil, nil
	}
	if k > n || uint64(len(c.buf)-c.off) < k {
		c.err = fmt.Errorf("fed: sparse params store %d of %d coordinates", k, n)
		return nil, nil
	}
	sp = &c.scratch.sp
	sp.N = int(n)
	sp.Indices = grow(&c.scratch.spIdx, int(k))
	sp.Values = grow(&c.scratch.spVal, int(k))
	if q == QuantI8 {
		scale = c.f32()
	}
	prev := int64(-1)
	for i := range sp.Indices {
		gap := c.uvarint()
		if c.err != nil {
			return nil, nil
		}
		if gap > c.paramLimit() {
			c.err = fmt.Errorf("fed: sparse index gap %d exceeds limit", gap)
			return nil, nil
		}
		idx := prev + 1 + int64(gap)
		if idx >= int64(n) {
			c.err = fmt.Errorf("fed: sparse index %d out of range [0,%d)", idx, n)
			return nil, nil
		}
		sp.Indices[i] = int32(idx)
		prev = idx
	}
	refQuantValues(c, sp.Values, q, scale)
	if densify {
		c.scratch.f32 = sp.DensifyInto(c.scratch.f32)
		return c.scratch.f32, nil
	}
	return nil, sp
}

func refQuantValues(c *cursor, out []float32, q Quant, scale float32) {
	switch q {
	case QuantF16:
		if b := c.take(len(out) * 2); b != nil {
			for i := range out {
				out[i] = f16ToF32(binary.LittleEndian.Uint16(b[2*i:]))
			}
		}
	case QuantI8:
		if b := c.take(len(out)); b != nil {
			for i := range out {
				out[i] = float32(int8(b[i])) * scale
			}
		}
	default:
		if b := c.take(len(out) * 4); b != nil {
			for i := range out {
				out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
			}
		}
	}
}

// sameBits reports whether a and b hold the same bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sameSparse(a, b *tensor.SparseVec) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.N == b.N && slices.Equal(a.Indices, b.Indices) && sameBits(a.Values, b.Values)
}

// decoded is what one decoder made of one params block.
type decoded struct {
	err   error
	off   int // bytes read
	dense []float32
	sp    *tensor.SparseVec
}

// agrees reports whether two decodes both refused their block, or both read
// the same bytes into the same coordinates, bit for bit.
func (a decoded) agrees(b decoded) bool {
	if a.err != nil || b.err != nil {
		return (a.err == nil) == (b.err == nil)
	}
	return a.off == b.off && sameBits(a.dense, b.dense) && sameSparse(a.sp, b.sp)
}

// decoders is the long-lived scratch of the fixed-width decoder and of the
// reference, so a value an earlier decode left behind would show.
type decoders struct{ fixed, ref decodeScratch }

// decode decodes block with both decoders under the frame limit limit (0:
// the default).
func (d *decoders) decode(block []byte, limit int, densify bool) (got, want decoded) {
	d.fixed.limit, d.ref.limit = limit, limit
	c := &cursor{buf: block, scratch: &d.fixed}
	var run []byte
	got.dense, run, got.sp = c.params(densify)
	got.err, got.off = c.err, c.off
	if run != nil {
		// A lossless dense block the fold form leaves in the payload: its
		// run's values are what the reference decodes.
		got.dense = make([]float32, len(run)/4)
		tensor.GetFloat32sLE(got.dense, run)
	}
	c = &cursor{buf: block, scratch: &d.ref}
	want.dense, want.sp = refDecodeParams(c, densify)
	want.err, want.off = c.err, c.off
	return got, want
}

// checkDecodeParams fails unless the two decoders agree on block, densifying
// and not.
func checkDecodeParams(t *testing.T, d *decoders, block []byte, limit int) {
	t.Helper()
	for _, densify := range []bool{false, true} {
		if got, want := d.decode(block, limit, densify); !got.agrees(want) {
			t.Fatalf("%d-byte block %x… (limit %d, densify %v): decoder (err %v, %d bytes read) and reference (err %v, %d bytes) differ",
				len(block), block[:min(len(block), 16)], limit, densify, got.err, got.off, want.err, want.off)
		}
	}
}

// checkDecodePrefixes runs checkDecodeParams on block and on its truncations:
// every one of a block up to 1 KiB; of a longer one every prefix within 16
// bytes of its start, its end and the offset split (where a sparse block's
// values begin), plus seven more spread over the rest; of one over 64 KiB,
// whose decodes each cost what a real model's does, only those within 4
// bytes.
func checkDecodePrefixes(t *testing.T, d *decoders, block []byte, split int) {
	t.Helper()
	checkDecodeParams(t, d, block, 0)
	n := len(block)
	if n <= 1024 {
		for i := 0; i < n; i++ {
			checkDecodeParams(t, d, block[:i], 0)
		}
		return
	}
	win, spread := 16, 8
	if n > 64<<10 {
		win, spread = 4, 1
	}
	for _, at := range []int{0, split, n} {
		for i := max(at-win, 0); i < min(at+win, n); i++ {
			checkDecodeParams(t, d, block[:i], 0)
		}
	}
	for i := 1; i < spread; i++ {
		checkDecodeParams(t, d, block[:i*n/spread], 0)
	}
}

// sparseOf is v's non-zero (by bit pattern) coordinates as a sparse vector,
// the form an explicit sparse Update carries.
func sparseOf(v []float32) *tensor.SparseVec {
	sp := &tensor.SparseVec{N: len(v)}
	for i, x := range v {
		if math.Float32bits(x) != 0 {
			sp.Indices = append(sp.Indices, int32(i))
			sp.Values = append(sp.Values, x)
		}
	}
	return sp
}

// checkDecodeVector encodes v every way a params block can carry it — each
// compression, and as an explicit sparse vector under each value encoding —
// and holds the decoders to each other on every block and its truncations.
// A vector of millions is not forced dense: those blocks are tens of MB and
// cover nothing the 2¹⁸ + 3 ones do not.
func checkDecodeVector(t *testing.T, d *decoders, v []float32) {
	t.Helper()
	for _, comp := range allCompressions {
		if comp.DisableSparse && len(v) > 1<<20 {
			continue
		}
		block := appendParams(nil, v, nil, comp)
		checkDecodePrefixes(t, d, block, len(block)-len(v)*comp.Quant.valueBytes())
	}
	sp := sparseOf(v)
	for _, q := range []Quant{QuantNone, QuantF16, QuantI8} {
		block := appendParams(nil, nil, sp, Compression{Quant: q})
		checkDecodePrefixes(t, d, block, len(block)-len(sp.Values)*q.valueBytes())
	}
}

// TestDecodeParamsMatchesReference is the differential test of the
// fixed-width decoder: densities from empty to full, gaps of every varint
// width on both sides of each boundary, lengths around the four-value stride
// and the compaction block, the bit patterns a float comparison misjudges,
// each under every value encoding and both block forms, whole and truncated.
func TestDecodeParamsMatchesReference(t *testing.T) {
	d := &decoders{}
	rng := tensor.NewRNG(2025)
	sizes := []int{5000, 1<<18 + 3}
	if testing.Short() {
		sizes = sizes[:1] // the race-detector runs: model-sized blocks take ten seconds there
	}
	for _, n := range sizes {
		for _, density := range []float64{0, 1e-4, 0.01, 0.10, 0.19, 0.5, 0.79, 0.80, 0.81, 1} {
			v := make([]float32, n)
			for i := range v {
				if rng.Float64() < density {
					v[i] = float32(rng.Float64() - 0.5)
				}
			}
			checkDecodeVector(t, d, v)
		}
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, compactBlock - 1, compactBlock + 1} {
		full := make([]float32, n)
		for i := range full {
			full[i] = oddValues[i%len(oddValues)]
		}
		checkDecodeVector(t, d, full)
		checkDecodeVector(t, d, make([]float32, n))
		if n > 0 {
			last := make([]float32, n)
			last[n-1] = float32(math.Copysign(0, -1))
			checkDecodeVector(t, d, last)
		}
	}
	checkDecodeVector(t, d, runsVector(40, 126, 127, 128, 129, 0, 0, 127, 128))
	checkDecodeVector(t, d, runsVector(0, 16383, 16384, 16382, 1))
	checkDecodeVector(t, d, runsVector(3, 1<<21-1, 5, 1<<21, 0))
}

// sparseBlock builds a float32 sparse params block by hand: n, the gap bytes
// as given (canonical or not) and one value per gap count k.
func sparseBlock(n, k int, gaps ...byte) []byte {
	b := binary.AppendUvarint([]byte{fmtSparse}, uint64(n))
	b = binary.AppendUvarint(b, uint64(k))
	b = append(b, gaps...)
	for i := 0; i < k; i++ {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(i)-0.5))
	}
	return b
}

// gapEdge is one hand-built params block, the frame limit it is decoded
// under (0: the default), and what the decoder must make of it: "" to accept,
// otherwise a piece of its error text.
type gapEdge struct {
	name  string
	block []byte
	limit int
	err   string
}

// lanes returns k one-byte gaps of 1 with the gap bytes of lane i replaced
// by at[i]: the shapes a word of eight gaps can take.
func lanes(k int, at map[int][]byte) []byte {
	var g []byte
	for i := 0; i < k; i++ {
		if b, ok := at[i]; ok {
			g = append(g, b...)
		} else {
			g = append(g, 1)
		}
	}
	return g
}

// i8Block builds an int8 sparse params block by hand: n, k, a scale, the gap
// bytes as given and no values — the bytes after the gaps are whatever the
// gaps leave of the count pre-check's 2k.
func i8Block(n, k int, gaps ...byte) []byte {
	b := binary.AppendUvarint([]byte{fmtSparse | byte(QuantI8)}, uint64(n))
	b = binary.AppendUvarint(b, uint64(k))
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(0.5))
	return append(b, gaps...)
}

// gapEdges is every gap shape the word-at-a-time path must hand over to the
// one-gap path, or refuse, exactly as the reference does, with the error
// text the decoder gave before it read words.
func gapEdges() []gapEdge {
	cases := []gapEdge{
		{"non-canonical 1", sparseBlock(8, 2, 0x81, 0x00, 0x80, 0x00), 0, ""}, // idx 1, 2
		{"non-canonical 127", sparseBlock(200, 1, 0xFF, 0x80, 0x00), 0, ""},   // idx 127
		{"0x80 then 0x01 is 128", sparseBlock(200, 2, 0x80, 0x01, 0x05), 0, ""},
		{"one-byte gap lands on n", sparseBlock(5, 1, 5), 0, "sparse index 5 out of range [0,5)"},
		{"one-byte gap lands on n-1", sparseBlock(5, 1, 4), 0, ""},
		{"second gap lands on n", sparseBlock(5, 2, 1, 3), 0, "sparse index 5 out of range [0,5)"},
		{"two-byte gap lands on n", sparseBlock(129, 1, 0x81, 0x01), 0, "sparse index 129 out of range [0,129)"},
		{"varint runs off the block", sparseBlock(8, 1, 0x80), 0, "truncated payload"},

		// Indices 2·i+1 for i < k: a word's eighth index is 15 after the
		// first word, 31 after the second.
		{"lane 7 lands on n-1", sparseBlock(16, 8, lanes(8, nil)...), 0, ""},
		{"lane 7 lands on n", sparseBlock(15, 8, lanes(8, nil)...), 0, "sparse index 15 out of range [0,15)"},
		{"second word, lane 7 lands on n-1", sparseBlock(32, 16, lanes(16, nil)...), 0, ""},
		{"second word, lane 7 lands on n", sparseBlock(31, 16, lanes(16, nil)...), 0, "sparse index 31 out of range [0,31)"},
		{"lane 0 lands on n-1", sparseBlock(40, 8, lanes(8, map[int][]byte{0: {39}})...), 0, "sparse index 41 out of range [0,40)"},
		{"lane 0 lands on n", sparseBlock(40, 8, lanes(8, map[int][]byte{0: {40}})...), 0, "sparse index 40 out of range [0,40)"},
		{"second word, lane 0 lands on n-1", sparseBlock(18, 16, lanes(16, nil)...), 0, "sparse index 19 out of range [0,18)"},
		{"second word, lane 0 lands on n", sparseBlock(17, 16, lanes(16, nil)...), 0, "sparse index 17 out of range [0,17)"},
		{"second word, lane 0 past n", sparseBlock(16, 16, lanes(16, nil)...), 0, "sparse index 17 out of range [0,16)"},

		// Truncated inside a word: the count pre-check refuses an f32 block
		// cut in its gaps; an int8 block whose first eight gaps are
		// four-byte varints passes it with three bytes left for nine gaps.
		{"f32 block cut mid-word", sparseBlock(64, 16, lanes(16, nil)...)[:3+12], 0, "sparse params count 16 exceeds payload"},
		{"int8 gaps run out mid-word", i8Block(400, 16, append(bytes.Repeat([]byte{0x80, 0x80, 0x80, 0x00}, 7), 0, 0, 0, 0, 0)...), 0, "bad varint at offset"},

		// Frame limit 64 bounds a block to 16 coordinates, under the 127 a
		// one-byte gap can reach. The one-byte path skips the gap bound, so
		// its refusal comes from the range check — n ≤ 16 < gap — where the
		// reference names the gap; a multi-byte gap still meets the gap
		// bound first.
		{"one-byte gap over the bound", sparseBlock(16, 1, 100), 64, "out of range"},
		{"two-byte gap over the bound", sparseBlock(16, 1, 0x80, 0x01), 64, "gap 128 exceeds limit"},
		{"one-byte gap over the bound in lane 5", sparseBlock(16, 8, lanes(8, map[int][]byte{5: {100}})...), 64, "sparse index 110 out of range [0,16)"},
		{"lowered limit, lane 7 lands on n", sparseBlock(16, 8, lanes(8, map[int][]byte{7: {2}})...), 64, "sparse index 16 out of range [0,16)"},
		{"lowered limit, a word inside it", sparseBlock(16, 8, 0, 0, 0, 0, 0, 0, 0, 8), 64, ""},
	}
	for lane := 0; lane < 8; lane++ {
		for _, k := range []int{8, 16} {
			// 128 as a two-byte gap, and 1 as a non-canonical one, in each
			// lane of the first word.
			cases = append(cases,
				gapEdge{fmt.Sprintf("two-byte gap in lane %d of %d", lane, k), sparseBlock(400, k, lanes(k, map[int][]byte{lane: {0x80, 0x01}})...), 0, ""},
				gapEdge{fmt.Sprintf("non-canonical gap in lane %d of %d", lane, k), sparseBlock(400, k, lanes(k, map[int][]byte{lane: {0x81, 0x00}})...), 0, ""})
		}
	}
	for k := 1; k <= 17; k++ {
		// Every tail length after zero, one and two words.
		cases = append(cases, gapEdge{fmt.Sprintf("k=%d", k), sparseBlock(2*k, k, lanes(k, nil)...), 0, ""},
			gapEdge{fmt.Sprintf("k=%d, last on n", k), sparseBlock(2*k-1, k, lanes(k, nil)...), 0, fmt.Sprintf("sparse index %d out of range", 2*k-1)})
	}
	return cases
}

// TestDecodeParamsGapEdges holds the decoder to the reference, and to the
// error text it gave before it read gaps a word at a time, on every gap shape
// that leaves the word path: a multi-byte gap in each lane, an index landing
// on n − 1 or n in the first and last lane, every tail length, a block
// truncated inside a word, and a lowered frame limit inside one. Every
// truncation of each block is held to the reference too.
func TestDecodeParamsGapEdges(t *testing.T) {
	d := &decoders{}
	for _, c := range gapEdges() {
		checkDecodeParams(t, d, c.block, c.limit)
		for i := range c.block {
			checkDecodeParams(t, d, c.block[:i], c.limit)
		}
		got, _ := d.decode(c.block, c.limit, false)
		if c.err == "" && got.err != nil || c.err != "" && (got.err == nil || !strings.Contains(got.err.Error(), c.err)) {
			t.Errorf("%s: err %v, want %q", c.name, got.err, c.err)
		}
	}

	// Under the lowered limit the reference names the gap where the one-byte
	// path names the index it lands on.
	for _, c := range []struct {
		name  string
		block []byte
		want  string
	}{
		{"one-byte gap over the bound", sparseBlock(16, 1, 100), "gap 100 exceeds limit"},
		{"two-byte gap over the bound", sparseBlock(16, 1, 0x80, 0x01), "gap 128 exceeds limit"},
	} {
		if _, want := d.decode(c.block, 64, false); want.err == nil || !strings.Contains(want.err.Error(), c.want) {
			t.Errorf("%s: reference err %v, want %q", c.name, want.err, c.want)
		}
	}
	for _, limit := range []int{0, 64, 400, 512} {
		checkDecodeParams(t, d, sparseBlock(16, 2, 3, 11), limit)
	}
}

// FuzzDecodeParams searches for a params block, and a frame limit, on which
// the fixed-width decoder and the reference disagree. The frame limit is
// 64 KiB less the fuzzed amount, so a hostile length densifies into at most
// 64 KiB.
func FuzzDecodeParams(f *testing.F) {
	for _, v := range [][]float32{
		nil, {1}, {1, 2, 3}, {0, 0, -1, 0, 0, 0, 0, 2.5, 0},
		oddValues, runsVector(4, 126, 127, 128, 129, 0),
	} {
		for _, comp := range allCompressions {
			f.Add(appendParams(nil, v, nil, comp), uint16(0), false)
		}
		f.Add(appendParams(nil, nil, sparseOf(v), Compression{}), uint16(0), true)
	}
	for _, c := range gapEdges() {
		limit := uint16(0)
		if c.limit > 0 {
			limit = uint16(1<<16 - c.limit)
		}
		f.Add(c.block, limit, c.err == "")
	}
	f.Add([]byte{0x00, 0x20, 0x01, 0x02}, uint16(0), false) // dense count over payload
	f.Fuzz(func(t *testing.T, block []byte, limit uint16, densify bool) {
		if got, want := (&decoders{}).decode(block, 1<<16-int(limit), densify); !got.agrees(want) {
			t.Fatalf("decoder (err %v, %d bytes read) and reference (err %v, %d bytes) differ", got.err, got.off, want.err, want.off)
		}
	})
}

// TestCodecQuantizedNumericalEdges sends tensors on the edges of the float16
// and int8 encodings — all zero, all denormal, saturating, NaN — through
// encode → decode → SparseFedAvg, in the dense and in the sparse block form,
// and pins what arrives and what the fold makes of it.
func TestCodecQuantizedNumericalEdges(t *testing.T) {
	var (
		inf      = float32(math.Inf(1))
		negZero  = float32(math.Copysign(0, -1))
		nan      = math.Float32frombits(0x7FC00000)
		max32    = float32(math.MaxFloat32)
		denormal = math.Float32frombits(0x100) // 256·2⁻¹⁴⁹, far under float16's range
	)
	// int8 scales: maxAbs/127 in float32. Dequantising 127·scale rounds back up
	// past MaxFloat32 for a saturating tensor (so ±MaxFloat32 and the ±Inf the
	// scale clamps to it arrive as ±Inf), and for the denormal tensor the scale
	// rounds to 2·2⁻¹⁴⁹, so 256·2⁻¹⁴⁹ quantises to 128, clamps to 127 and
	// arrives as 254·2⁻¹⁴⁹.
	satScale, denScale, nanScale := max32/127, denormal/127, float32(2)/127
	if v := 127 * satScale; !math.IsInf(float64(v), 1) {
		t.Fatalf("127·(MaxFloat32/127) = %v, the saturating pins assume +Inf", v)
	}
	for _, c := range []struct {
		name     string
		q        Quant
		in, want []float32
	}{
		{"int8 all zero: scale 0 gives zeros", QuantI8,
			[]float32{0, 0, 0, 0}, []float32{0, 0, 0, 0}},
		{"float16 all zero", QuantF16,
			[]float32{0, 0, 0, 0}, []float32{0, 0, 0, 0}},
		{"int8 all denormal", QuantI8,
			[]float32{denormal, -denormal, denormal, -denormal},
			[]float32{127 * denScale, -127 * denScale, 127 * denScale, -127 * denScale}},
		{"float16 all denormal: signed zeros", QuantF16,
			[]float32{denormal, -denormal, denormal, -denormal}, []float32{0, negZero, 0, negZero}},
		{"int8 saturating: ±127·scale", QuantI8,
			[]float32{max32, -max32, inf, -inf, 70000, -1e6},
			[]float32{127 * satScale, -127 * satScale, 127 * satScale, -127 * satScale, 0, 0}},
		{"float16 saturating: overflow gives ±Inf", QuantF16,
			[]float32{max32, -max32, inf, -inf, 65520, -1e6}, []float32{inf, -inf, inf, -inf, inf, -inf}},
		{"int8 NaN maps to 0", QuantI8,
			[]float32{nan, 2, -2, nan}, []float32{0, 127 * nanScale, -127 * nanScale, 0}},
		{"float16 NaN stays NaN", QuantF16,
			[]float32{nan, 2, -2, nan}, []float32{nan, 2, -2, nan}},
	} {
		sp := &tensor.SparseVec{N: 2 * len(c.in)}
		for i, v := range c.in {
			sp.Indices = append(sp.Indices, int32(2*i+1))
			sp.Values = append(sp.Values, v)
		}
		for _, form := range []struct {
			name string
			comp Compression
			u    *Update
		}{
			{"dense", Compression{Quant: c.q, DisableSparse: true}, &Update{Participating: true, Weight: 1, Params: c.in}},
			{"sparse", Compression{Quant: c.q}, &Update{Participating: true, Weight: 1, Sparse: sp}},
		} {
			var buf bytes.Buffer
			if err := NewCodec(form.comp).Encode(&buf, form.u); err != nil {
				t.Fatalf("%s, %s: %v", c.name, form.name, err)
			}
			m, err := Decode(&buf)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, form.name, err)
			}
			u := m.(*Update)
			got, fold := u.DenseInto(nil), make([]float32, len(c.in))
			if form.name == "sparse" {
				if u.Sparse == nil || !slices.Equal(u.Sparse.Indices, sp.Indices) {
					t.Fatalf("%s, sparse: decoded %+v", c.name, u.Sparse)
				}
				got, fold = u.Sparse.Values, make([]float32, sp.N)
			}
			if !sameBits(got, c.want) {
				t.Errorf("%s, %s: decoded %v, want %v", c.name, form.name, got, c.want)
			}
			// One update of weight 1 folds to 0 + 1·v: its value, except that
			// −0 becomes +0. Two of them sum before they are scaled by ½.
			for i, w := range c.want {
				if form.name == "sparse" {
					i = 2*i + 1
				}
				if math.Float32bits(w) != math.Float32bits(negZero) {
					fold[i] = w
				}
			}
			one := (&SparseFedAvg{}).Aggregate([]*Update{u})
			if !sameBits(one, fold) {
				t.Errorf("%s, %s: one-update fold %v, want %v", c.name, form.name, one, fold)
			}
			two := (&SparseFedAvg{}).Aggregate([]*Update{u, u})
			for i, w := range fold {
				if want := (w + w) * 0.5; math.Float32bits(two[i]) != math.Float32bits(want) {
					t.Errorf("%s, %s: two-update fold [%d] = %v, want %v", c.name, form.name, i, two[i], want)
				}
			}
		}
	}
}

// TestCodecSteadyStateAllocatesNothing: once a Codec's buffers have grown to
// a stream's largest frame, encoding and decoding it — every block form, the
// densified sparse global included — allocate nothing.
func TestCodecSteadyStateAllocatesNothing(t *testing.T) {
	w, sv := benchVector(4099, 0.10)
	msgs := []Msg{
		&Update{Participating: true, Weight: 1, Params: w},
		&Update{Participating: true, Weight: 1, Sparse: sv},
		&GlobalModel{Params: w, Version: 1},
		&GlobalModel{Params: sv.Densify(), Version: 2},
		&Catchup{Params: sv.Densify(), Version: 3},
	}
	for _, comp := range allCompressions {
		enc, dec := NewCodec(comp), NewCodec(Compression{})
		var buf bytes.Buffer
		var r bytes.Reader
		round := func() {
			for _, m := range msgs {
				buf.Reset()
				if err := enc.Encode(&buf, m); err != nil {
					t.Fatal(err)
				}
				r.Reset(buf.Bytes())
				if _, err := dec.Decode(&r); err != nil {
					t.Fatal(err)
				}
			}
		}
		round()
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Errorf("%+v: %v allocations per encode/decode round, want 0", comp, allocs)
		}
	}
}

// TestFirstEncodeAllocatesOnlyItsFrame: a fresh Codec's first encode of a
// sparse block — the support-armed broadcast of a union-19 global, a
// ρ = 10 % explicit sparse upload, and a union-19 dense upload whose first
// eight coordinates are non-zero, which the dense write must not take for
// dense — allocates the frame it returns and at
// most a constant more (the header's first small buffers, the round-up of a
// large allocation to whole pages). Nothing sized by the model may stage
// gaps or values beside the frame.
func TestFirstEncodeAllocatesOnlyItsFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const slack = 16 << 10
	global := benchUnion19()
	var support []int32
	for i, v := range global {
		if v != 0 {
			support = append(support, int32(i))
		}
	}
	led := benchUnion19()
	copy(led, zeroFreeWith(8))
	for _, c := range []struct {
		name string
		m    Msg
	}{
		{"support-armed union-19 global", &GlobalModel{Params: global, Version: 1, frame: &sharedFrame{support: support}}},
		{"ρ = 10 % sparse upload", benchUpdate(false)},
		{"support-less union-19 upload led by eight non-zeros", &Update{Participating: true, Weight: 100, Params: led}},
	} {
		codec := NewCodec(Compression{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frame, err := codec.frame(c.m)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(frame) >= 4*benchN {
			t.Fatalf("%s: a %d-byte frame is not sparse", c.name, len(frame))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(frame))+slack {
			t.Errorf("%s: first encode allocated %d bytes for a %d-byte frame, want at most %d more", c.name, alloc, len(frame), slack)
		}
	}
}

// checkSupportFrame folds a seeded script of sparse updates through
// SparseFedAvg at the given shard count, round after round, and holds each
// commit's support to its contract and its frame to the support-less one:
// the support is nil exactly when some shard's touched set passed a quarter
// of its range (the switch to a full sweep), and otherwise it is the strictly
// ascending set of coordinates the round's folds touched, with +0 bits
// everywhere outside it; a GlobalModel armed with it encodes, under every
// value encoding, to the bytes of one encoded without it. The script mixes
// ordinary sparse updates, exact cancellations of the previous update (sums
// of +0 inside the support), −0 values, the codec's odd bit patterns, and
// folds dense enough to cross the switch.
func checkSupportFrame(t *testing.T, seed uint64, shards, n, folds int) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	agg := NewShardedFedAvg(shards)
	plan := shard.NewPlan(n, shards)
	for round := 0; round < 3; round++ {
		agg.BeginRound()
		touched := make([]bool, n)
		var prev *Update
		for f := 0; f < folds; f++ {
			u := &Update{Participating: true, Weight: float64(1 + rng.Intn(3))}
			kind := rng.Intn(5)
			if kind == 0 && prev != nil {
				// Exact cancellation: the same coordinates and weight, negated.
				neg := &tensor.SparseVec{N: n, Indices: prev.Sparse.Indices, Values: make([]float32, len(prev.Sparse.Values))}
				for i, v := range prev.Sparse.Values {
					neg.Values[i] = -v
				}
				u.Weight, u.Sparse = prev.Weight, neg
			} else {
				density := []float64{0.002, 0.01, 0.03, 0.06, 0.3}[rng.Intn(5)]
				mask := make([]bool, n)
				vals := make([]float32, n)
				for i := range mask {
					mask[i] = rng.Float64() < density
					switch kind {
					case 1:
						vals[i] = float32(math.Copysign(0, -1))
					case 2:
						vals[i] = oddValues[rng.Intn(len(oddValues))]
					default:
						vals[i] = float32(rng.Norm())
					}
				}
				u.Sparse = tensor.GatherMask(nil, vals, mask)
			}
			for _, j := range u.Sparse.Indices {
				touched[j] = true
			}
			agg.Accumulate(u)
			prev = u
		}
		global := agg.FinishRound()
		support := agg.support()

		swept := false
		for s := 0; s < plan.Shards(); s++ {
			lo, hi := plan.Bounds(s)
			count := 0
			for j := lo; j < hi; j++ {
				if touched[j] {
					count++
				}
			}
			swept = swept || count*4 > hi-lo
		}
		if swept != (support == nil) {
			t.Fatalf("seed %d shards %d n %d round %d: support nil=%v, a shard swept its range=%v", seed, shards, n, round, support == nil, swept)
		}
		if support != nil {
			in := make([]bool, n)
			for i, j := range support {
				if i > 0 && j <= support[i-1] {
					t.Fatalf("seed %d shards %d round %d: support not strictly ascending at %d", seed, shards, round, i)
				}
				in[j] = true
			}
			for j, v := range global {
				if in[j] != touched[j] {
					t.Fatalf("seed %d shards %d round %d: coordinate %d in support %v, touched %v", seed, shards, round, j, in[j], touched[j])
				}
				if !in[j] && math.Float32bits(v) != 0 {
					t.Fatalf("seed %d shards %d round %d: coordinate %d outside the support holds %#x", seed, shards, round, j, math.Float32bits(v))
				}
			}
		}
		for _, comp := range allCompressions {
			armed := &GlobalModel{Params: global, Version: 7, frame: &sharedFrame{support: support}}
			got := buildFrame(nil, armed, comp)
			want := buildFrame(nil, &GlobalModel{Params: global, Version: 7}, comp)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d shards %d n %d round %d comp %+v: support-armed frame differs from the compaction frame (%d vs %d bytes, first difference at %d)",
					seed, shards, n, round, comp, len(got), len(want), firstDiff(got, want))
			}
		}
	}
}

// supportShards is every fold layout the support property runs at.
var supportShards = []int{1, 2, 4, 7}

// checkCancelledSupport folds one sparse update over support and a second,
// of the same weight, that cancels it exactly on drop, so the commit's
// support keeps entries whose coordinates hold +0; it holds that support to
// the script and the support-armed frame to the compaction frame under every
// compression.
func checkCancelledSupport(t *testing.T, name string, n int, support, drop []int32) {
	t.Helper()
	agg := NewShardedFedAvg(1)
	agg.BeginRound()
	up := &tensor.SparseVec{N: n, Indices: support}
	for i := range support {
		up.Values = append(up.Values, float32(i%7)+0.25)
	}
	down := &tensor.SparseVec{N: n, Indices: drop}
	for _, j := range drop {
		down.Values = append(down.Values, -up.Values[slices.Index(support, j)])
	}
	agg.Accumulate(&Update{Participating: true, Weight: 2, Sparse: up})
	agg.Accumulate(&Update{Participating: true, Weight: 2, Sparse: down})
	global := agg.FinishRound()
	if got := agg.support(); !slices.Equal(got, support) {
		t.Fatalf("%s: support %v, want %v", name, got, support)
	}
	for _, j := range drop {
		if math.Float32bits(global[j]) != 0 {
			t.Fatalf("%s: cancelled coordinate %d holds %#x", name, j, math.Float32bits(global[j]))
		}
	}
	for _, comp := range allCompressions {
		got := buildFrame(nil, &GlobalModel{Params: global, Version: 7, frame: &sharedFrame{support: support}}, comp)
		want := buildFrame(nil, &GlobalModel{Params: global, Version: 7}, comp)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s, comp %+v: support-armed frame differs from the compaction frame (%d vs %d bytes, first difference at %d)",
				name, comp, len(got), len(want), firstDiff(got, want))
		}
	}
}

// TestSupportFrameMatchesCompaction is the support contract and the
// encoder's byte identity over random sparse fold sequences, and over the
// cancellations that make the support's bound overshoot the block: a
// dropped first entry, last entry and run of entries, a drop whose merged
// gap shortens the gap bytes (0 and 0 merge into 1: two bytes become one)
// and one whose merged gap keeps them (63 and 64 merge into 128: two bytes
// stay two), and drops that take k from 128 to 127, shrinking its varint.
func TestSupportFrameMatchesCompaction(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, p := range supportShards {
			checkSupportFrame(t, seed, p, 200+int(seed)*397, 2+int(seed%4))
		}
	}
	every := func(lo, hi, step int32) []int32 {
		var out []int32
		for j := lo; j < hi; j += step {
			out = append(out, j)
		}
		return out
	}
	s := every(3, 1000, 9) // 111 entries, gaps of 8
	k128 := every(0, 1280, 10)
	for _, c := range []struct {
		name          string
		n             int
		support, drop []int32
	}{
		{"first entry", 1000, s, s[:1]},
		{"last entry", 1000, s, s[len(s)-1:]},
		{"a run", 1000, s, s[40:52]},
		{"all of it", 1000, s, s},
		{"0 and 0 merge into 1", 1000, []int32{5, 6, 7, 40}, []int32{6}},
		{"63 and 64 merge into 128", 1000, []int32{5, 69, 134, 140}, []int32{69}},
		{"k 128 to 127, first", 6000, k128, k128[:1]},
		{"k 128 to 127, middle", 6000, k128, k128[64:65]},
		{"k 128 to 127, last", 6000, k128, k128[127:]},
		{"k 128 to 100", 6000, k128, k128[10:38]},
	} {
		checkCancelledSupport(t, c.name, c.n, c.support, c.drop)
	}
}

// FuzzSupportFrame searches for a fold script whose support breaks its
// contract or whose support-armed frame differs from the compaction frame.
func FuzzSupportFrame(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(1000), uint8(3))
	f.Add(uint64(2), uint8(3), uint16(7), uint8(6))
	f.Add(uint64(3), uint8(2), uint16(4099), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, shards uint8, n uint16, folds uint8) {
		checkSupportFrame(t, seed, supportShards[int(shards)%len(supportShards)], 1+int(n)%6000, 1+int(folds)%7)
	})
}
