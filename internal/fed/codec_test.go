package fed

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

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
		if !reflect.DeepEqual(got, m) {
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
	if math.Float32bits(u.Params[0]) != 0x7FC00123 {
		t.Errorf("float32 bits %#x", math.Float32bits(u.Params[0]))
	}
	if math.Float64bits(u.Weight) != 0x7FF8000000000042 {
		t.Errorf("float64 bits %#x", math.Float64bits(u.Weight))
	}
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
		if !reflect.DeepEqual(got, want) {
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
		if got.Params != nil {
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
		if u.ClientID != 3 || u.Params != nil || u.Sparse != nil {
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
	got, sp := c.params()
	if c.err != nil || c.off != len(block) {
		t.Fatalf("n=%d quant=%s: decode: err %v, %d of %d bytes read", len(dense), q, c.err, c.off, len(block))
	}
	if sp != nil {
		got = sp.Densify()
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
}

// fuzzParamsVector expands a fuzz pattern into a vector: the pattern is a
// sequence of (uvarint zero-run, value selector byte) pairs; whatever is left
// after the last whole pair is a trailing zero run. The length is capped so a
// hostile run cannot exhaust memory.
func fuzzParamsVector(pattern []byte) []float32 {
	const maxN = 1<<22 + 1024
	var nz []int
	var sel []byte
	n := 0
	for len(pattern) > 0 {
		run, w := binary.Uvarint(pattern)
		if w <= 0 || run > maxN || n+int(run) > maxN {
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
	f.Fuzz(func(t *testing.T, pattern []byte) {
		checkEncodeParams(t, fuzzParamsVector(pattern))
	})
}
