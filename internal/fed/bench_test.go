package fed

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/tensor"
)

// benchVector builds an n-length dense parameter vector and its ρ-masked
// sparse counterpart (the shape of a pruned-knowledge update).
func benchVector(n int, rho float64) ([]float32, *tensor.SparseVec) {
	rng := tensor.NewRNG(77)
	w := make([]float32, n)
	rng.FillNorm(w, 0.05)
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = rng.Float64() < rho
	}
	return w, tensor.GatherMask(nil, w, mask)
}

const benchN = 1 << 18 // 262144 parameters ≈ the paper's 6-layer CNN

func benchUpdate(dense bool) *Update {
	w, sv := benchVector(benchN, 0.10)
	u := &Update{ClientID: 0, Participating: true, Weight: 100}
	if dense {
		u.Params = w
	} else {
		u.Sparse = sv
	}
	return u
}

func benchEncode(b *testing.B, u Msg, comp Compression) {
	c := NewCodec(comp)
	var bytesPerOp int64
	var counter bytes.Buffer
	if err := c.Encode(&counter, u); err != nil {
		b.Fatal(err)
	}
	bytesPerOp = int64(counter.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(io.Discard, u); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bytesPerOp), "wire-bytes/op")
}

func BenchmarkEncodeDense(b *testing.B) {
	benchEncode(b, benchUpdate(true), Compression{})
}

func BenchmarkEncodeSparse10(b *testing.B) {
	benchEncode(b, benchUpdate(false), Compression{})
}

func BenchmarkEncodeSparse10F16(b *testing.B) {
	benchEncode(b, benchUpdate(false), Compression{Quant: QuantF16})
}

func BenchmarkEncodeDenseI8(b *testing.B) {
	benchEncode(b, benchUpdate(true), Compression{Quant: QuantI8})
}

// benchUnion19 is the global model the ingest workloads broadcast: the union
// of two ρ = 10 % masks, 19 % of its coordinates non-zero.
func benchUnion19() []float32 {
	w, _ := benchVector(benchN, 0)
	rng := tensor.NewRNG(78)
	for i := range w {
		if rng.Float64() >= 0.19 {
			w[i] = 0
		}
	}
	return w
}

// BenchmarkEncodeGlobalUnion19 is one sparse-from-dense encode of a global
// model at the density a two-client union has — the scan the compacting
// encoder exists for.
func BenchmarkEncodeGlobalUnion19(b *testing.B) {
	benchEncode(b, &GlobalModel{Params: benchUnion19(), Version: 1}, Compression{})
}

// BenchmarkEncodeGlobalUnion19Support is the same encode with the fold's
// support armed on the frame, as a commit broadcast carries it: the encoder
// reads the union's coordinates instead of compacting all of them.
func BenchmarkEncodeGlobalUnion19Support(b *testing.B) {
	global := benchUnion19()
	var support []int32
	for i, v := range global {
		if v != 0 {
			support = append(support, int32(i))
		}
	}
	f := &sharedFrame{support: support}
	gm := &GlobalModel{Params: global, Version: 1, frame: f}
	c := NewCodec(Compression{})
	for b.Loop() {
		f.filled = false // encode afresh, not replay the frame
		if err := c.Encode(io.Discard, gm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcast is one commit's broadcast to a cohort of wire links that
// write to nowhere: one encode plus one write per link, so ns/op should
// barely move with the cohort (it was one encode per link, linear in it).
func BenchmarkBroadcast(b *testing.B) {
	global := benchUnion19()
	for _, cohort := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("cohort=%d", cohort), func(b *testing.B) {
			srv := discardCohort(cohort)
			gm := &GlobalModel{Params: global, Version: 1}
			srv.broadcast(gm, nil, nil, nil) // sizes the frame
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := srv.broadcast(gm, nil, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDecode times one decode of m's frame two ways: payload decodes the
// payload where it lies, as a link does once the frame is read; frame reads
// it from a bytes.Reader first, which adds a copy of the whole payload.
func benchDecode(b *testing.B, m Msg, comp Compression) {
	var buf bytes.Buffer
	if err := NewCodec(comp).Encode(&buf, m); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	b.Run("payload", func(b *testing.B) {
		var s decodeScratch
		b.SetBytes(int64(len(frame) - frameHeader))
		for b.Loop() {
			if _, err := decodePayload(Kind(frame[0]), frame[frameHeader:], &s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame", func(b *testing.B) {
		c := NewCodec(Compression{})
		r := bytes.NewReader(frame)
		b.SetBytes(int64(len(frame)))
		for b.Loop() {
			r.Reset(frame)
			if _, err := c.Decode(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeDense(b *testing.B) {
	benchDecode(b, benchUpdate(true), Compression{})
}

func BenchmarkDecodeSparse10(b *testing.B) {
	benchDecode(b, benchUpdate(false), Compression{})
}

// BenchmarkDecodeGlobalUnion19 is one decode of the sparse-encoded global
// model the ingest workloads broadcast, into the dense vector a client
// installs: what every client and scripted peer pays per commit.
func BenchmarkDecodeGlobalUnion19(b *testing.B) {
	benchDecode(b, &GlobalModel{Params: benchUnion19(), Version: 1}, Compression{})
}

// BenchmarkFoldDenseUpload is the server's work on the dense uploads of one
// commit window of ingest_dense_sharded (K = 2, Shards = 2): each of two
// upload frames decoded where it lies, and folded. The round is never
// merged, so every window's first fold is a range's first participation
// (clear and add, or the write) and its second adds. SetBytes is the two
// payloads.
func BenchmarkFoldDenseUpload(b *testing.B) {
	var buf bytes.Buffer
	if err := NewCodec(Compression{}).Encode(&buf, benchUpdate(true)); err != nil {
		b.Fatal(err)
	}
	payload := buf.Bytes()[frameHeader:]
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			agg := NewShardedFedAvg(shards)
			var s decodeScratch
			b.SetBytes(2 * int64(len(payload)))
			for b.Loop() {
				agg.BeginRound()
				for range 2 {
					m, err := decodePayload(KindUpdate, payload, &s)
					if err != nil {
						b.Fatal(err)
					}
					agg.Accumulate(m.(*Update))
				}
			}
		})
	}
}

func benchAggregate(b *testing.B, agg Aggregator, dense bool, clients int) {
	var ups []*Update
	w, _ := benchVector(benchN, 0.10)
	rng := tensor.NewRNG(99)
	mask := make([]bool, benchN)
	for i := range mask {
		mask[i] = rng.Float64() < 0.10
	}
	for c := 0; c < clients; c++ {
		u := &Update{ClientID: c, Participating: true, Weight: float64(50 + c)}
		if dense {
			u.Params = w
		} else {
			u.Sparse = tensor.GatherMask(nil, w, mask)
		}
		ups = append(ups, u)
	}
	agg.Aggregate(ups) // warm the scratch (both vectors for SparseFedAvg)
	agg.Aggregate(ups)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Aggregate(ups)
	}
}

func BenchmarkAggregateWeightedDense(b *testing.B) {
	benchAggregate(b, &WeightedFedAvg{}, true, 8)
}

func BenchmarkAggregateSparseFedAvgDense(b *testing.B) {
	benchAggregate(b, &SparseFedAvg{}, true, 8)
}

func BenchmarkAggregateSparseFedAvgSparse10(b *testing.B) {
	benchAggregate(b, &SparseFedAvg{}, false, 8)
}

// BenchmarkRoundTripBytes reports the end-to-end bytes for one aggregation
// round (8 uploads + 8 broadcasts) under each codec — the bytes-per-round
// trajectory number.
func BenchmarkRoundTripBytes(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		comp  Compression
		dense bool
	}{
		{"dense-f32", Compression{DisableSparse: true}, true},
		{"sparse-f32", Compression{}, false},
		{"sparse-f16", Compression{Quant: QuantF16}, false},
		{"dense-i8", Compression{Quant: QuantI8, DisableSparse: true}, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			u := benchUpdate(cfg.dense)
			// The broadcast is the aggregate of the round's updates: dense
			// in → dense out, ρ-sparse in → union-sparse out (and the codec's
			// auto-sparse form then covers the down-link too).
			global := append([]float32(nil), (&SparseFedAvg{}).Aggregate([]*Update{u})...)
			c := NewCodec(cfg.comp)
			var round int64
			var buf bytes.Buffer
			for k := 0; k < 8; k++ {
				buf.Reset()
				c.Encode(&buf, u)
				round += int64(buf.Len())
				buf.Reset()
				c.Encode(&buf, &GlobalModel{Params: global})
				round += int64(buf.Len())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Encode(io.Discard, u)
			}
			b.ReportMetric(float64(round), "bytes/round")
		})
	}
}

func ExampleCompression() {
	var buf bytes.Buffer
	u := &Update{Participating: true, Weight: 1,
		Sparse: &tensor.SparseVec{N: 1 << 20, Indices: []int32{5}, Values: []float32{1}}}
	NewCodec(Compression{}).Encode(&buf, u)
	fmt.Println(buf.Len() < 64)
	// Output: true
}
