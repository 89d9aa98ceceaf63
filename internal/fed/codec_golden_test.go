package fed

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/prune"
	"repro/internal/tensor"
)

// TestCodecGoldenFrames pins the wire format at the byte level: these
// fixtures are the frozen v5 encodings of representative frames — the v4
// set (whose bytes v5 leaves untouched: a fixed cohort speaks bytes
// identical to v4) plus the elastic-membership additions: the hello's join
// flag, the server's seat-assignment hello reply, and the Leave frame (see
// docs/WIRE_FORMAT.md). If one of them changes, the codec changed — bump
// the Fingerprint formatVersion, regenerate the fixtures deliberately, and
// expect old and new binaries not to interoperate. An accidental diff here
// is a protocol break that the round-trip tests alone would not catch.
func TestCodecGoldenFrames(t *testing.T) {
	sparse := &tensor.SparseVec{N: 8, Indices: []int32{1, 2, 7}, Values: []float32{1, -2, 0.5}}
	cases := []struct {
		name string
		comp Compression
		msg  Msg
		hex  string
	}{
		{
			name: "hello",
			msg:  &helloMsg{clientID: 3, fingerprint: 0xDEADBEEFCAFE, quant: QuantF16},
			hex:  "000f00000003000000fecaefbeadde0000010000",
		},
		{
			// flags bit0 marks the rejoin; lastVersion 300 is the two-byte
			// uvarint 0xac 0x02.
			name: "rejoin hello",
			msg:  &helloMsg{clientID: 2, fingerprint: 0xDEADBEEFCAFE, rejoin: true, lastVersion: 300},
			hex:  "001000000002000000fecaefbeadde00000001ac02",
		},
		{
			// flags bit1 marks the join; the clientID field is zero because
			// the server assigns the seat in its reply.
			name: "join hello",
			msg:  &helloMsg{fingerprint: 0xDEADBEEFCAFE, join: true},
			hex:  "000f00000000000000fecaefbeadde0000000200",
		},
		{
			// The server's reply to a join hello: a plain hello whose
			// clientID is the assigned seat (no fingerprint, no flags).
			name: "seat-assignment hello",
			msg:  &helloMsg{clientID: 5},
			hex:  "000f000000050000000000000000000000000000",
		},
		{
			name: "leave",
			msg:  &Leave{ClientID: 3},
			hex:  "060400000003000000",
		},
		{
			name: "leave of a late seat",
			msg:  &Leave{ClientID: 300},
			hex:  "06040000002c010000",
		},
		{
			name: "round start",
			msg:  &RoundStart{TaskIdx: 2, Round: 5, Participate: true, TaskDone: true},
			hex:  "0109000000020000000500000003",
		},
		{
			name: "dense update",
			msg: &Update{ClientID: 1, Participating: true, Weight: 30, ComputeSeconds: 0.25,
				UpBytes: 1024, DownBytes: 2048, Params: []float32{1, -2, 0.5}},
			hex: "023400000001000000010000000000003e40000000000000d03f000400000000000000080000000000000000030000803f000000c00000003f",
		},
		{
			name: "sparse update",
			msg:  &Update{ClientID: 2, Participating: true, Weight: 7, Sparse: sparse},
			hex:  "023800000002000000010000000000001c40000000000000000000000000000000000000000000000000000408030100040000803f000000c00000003f",
		},
		{
			// BaseVersion is a uvarint: 300 spans two bytes (0xac 0x02).
			name: "versioned update",
			msg: &Update{ClientID: 3, Participating: true, Weight: 2, BaseVersion: 300,
				Params: []float32{1}},
			hex: "022d00000003000000010000000000000040000000000000000000000000000000000000000000000000ac0200010000803f",
		},
		{
			name: "auto-sparse global model",
			msg:  &GlobalModel{Params: []float32{0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0}},
			hex:  "030a0000000000040c010400004040",
		},
		{
			name: "dense global model",
			msg:  &GlobalModel{Params: []float32{1, 2, 3}},
			hex:  "0310000000000000030000803f0000004000004040",
		},
		{
			// Version 129 is the two-byte uvarint 0x81 0x01; flags bit0 is
			// the taskFinal marker.
			name: "task-final versioned global model",
			msg:  &GlobalModel{Params: []float32{1}, Version: 129, TaskFinal: true},
			hex:  "030900000081010100010000803f",
		},
		{
			name: "f16 global model",
			comp: Compression{Quant: QuantF16},
			msg:  &GlobalModel{Params: []float32{1, -2, 65504}},
			hex:  "030a00000000000103003c00c0ff7b",
		},
		{
			name: "i8 sparse update values",
			comp: Compression{Quant: QuantI8},
			msg:  &Update{ClientID: 0, Participating: true, Weight: 1, Sparse: sparse},
			hex:  "02330000000000000001000000000000f03f000000000000000000000000000000000000000000000000000608030402813c010004408120",
		},
		{
			name: "dropout acknowledgement",
			msg:  &Update{ClientID: 4},
			hex:  "022800000004000000000000000000000000000000000000000000000000000000000000000000000000000000",
		},
		{
			// Version 129 is the two-byte uvarint 0x81 0x01; the params
			// block is the dense float32 form.
			name: "catchup",
			msg:  &Catchup{TaskIdx: 1, Seen: 2, Version: 129, Params: []float32{1, 2, 3}},
			hex:  "0516000000010000000281010000030000803f0000004000004040",
		},
		{
			name: "task-final catchup",
			msg:  &Catchup{TaskIdx: 0, Seen: 3, Version: 5, TaskFinal: true, Params: []float32{1}},
			hex:  "050d0000000000000003050100010000803f",
		},
		{
			// TaskDone (flags bit1) with no payload: the rejoined seat
			// already finished the task and just waits for the next one.
			name: "task-done catchup",
			msg:  &Catchup{TaskIdx: 2, Seen: 1, Version: 7, TaskDone: true},
			hex:  "0509000000020000000107020000",
		},
		{
			name: "round end",
			msg:  &RoundEnd{ClientID: 1, EvalAccs: []float64{0.5, 1}},
			hex:  "041d00000001000000000200000000000000000000000000e03f000000000000f03f",
		},
		{
			name: "death report",
			msg:  &RoundEnd{ClientID: 2, Dead: true},
			hex:  "040d00000002000000010000000000000000",
		},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := NewCodec(c.comp).Encode(&buf, c.msg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := hex.EncodeToString(buf.Bytes())
		if got != c.hex {
			t.Errorf("%s: encoding changed\n got  %s\n want %s", c.name, got, c.hex)
			continue
		}
		// Every fixture must decode back cleanly.
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			t.Errorf("%s: fixture does not decode: %v", c.name, err)
		}
	}
}

// TestPaperShapeFrameBytes pins the exact frame sizes of one round at the
// paper's shape: the 6-layer CNN at CIFAR-100 shape (22 396 parameters), an
// upload that is the dense vector or its top-ρ (ρ = 10 %) magnitude
// selection — the mask the knowledge extractor computes — and a broadcast
// that is the aggregate such uploads commit, under every value encoding.
// Frame bytes are deterministic, so any change here is a codec change to
// make deliberately. README's sparse-pipeline table is 8 × (up + down).
func TestPaperShapeFrameBytes(t *testing.T) {
	const n, rho = 22396, 0.10
	rng := tensor.NewRNG(7)
	dense := make([]float32, n)
	rng.FillNorm(dense, 0.05)
	sparse := prune.Extract(dense, rho)
	cases := []struct {
		name     string
		comp     Compression
		sparse   bool
		up, down int
	}{
		{"dense-f32", Compression{DisableSparse: true}, false, 89631, 89595},
		{"sparse-f32", Compression{}, true, 11249, 11213},
		{"dense-f16", Compression{Quant: QuantF16, DisableSparse: true}, false, 44839, 44803},
		{"sparse-f16", Compression{Quant: QuantF16}, true, 6769, 6733},
		{"dense-i8", Compression{Quant: QuantI8, DisableSparse: true}, false, 22447, 22411},
		{"sparse-i8", Compression{Quant: QuantI8}, true, 4533, 4497},
	}
	for _, c := range cases {
		u := &Update{Participating: true, Weight: 100}
		if c.sparse {
			u.Sparse = sparse
		} else {
			u.Params = dense
		}
		gm := &GlobalModel{Params: (&SparseFedAvg{}).Aggregate([]*Update{u})}
		enc := NewCodec(c.comp)
		var up, down bytes.Buffer
		if err := enc.Encode(&up, u); err != nil {
			t.Fatalf("%s upload: %v", c.name, err)
		}
		if err := enc.Encode(&down, gm); err != nil {
			t.Fatalf("%s broadcast: %v", c.name, err)
		}
		if up.Len() != c.up || down.Len() != c.down {
			t.Errorf("%s: upload %d B, broadcast %d B; want %d B and %d B", c.name, up.Len(), down.Len(), c.up, c.down)
		}
	}
}
