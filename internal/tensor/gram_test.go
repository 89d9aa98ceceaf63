package tensor

import (
	"fmt"
	"math"
	"testing"
)

// gramRows returns m rows of n floats whose magnitudes span six decades
// row to row, with a few signed zeros, so that a reordered or re-rounded sum
// shows in the low bits.
func gramRows(rng *RNG, m, n int) [][]float32 {
	rows := make([][]float32, m)
	for i := range rows {
		rows[i] = make([]float32, n)
		rng.FillNorm(rows[i], math.Pow(10, float64(i%7-3)))
		for p := i; p < n; p += 97 {
			rows[i][p] = float32(math.Copysign(0, float64(rows[i][p])))
		}
	}
	return rows
}

// TestGramMatchesDotSliceBitwise pins Gram's contract: every product equals
// DotSlice of its two rows bit for bit, across row counts that use every
// tile shape (1–4 rows a triangle, rectangles with one and two trailing
// rows), lengths that exercise every tail and a partial last block, and the
// ResNet18 gradient length, with the AVX2 pass and with the gate off.
func TestGramMatchesDotSliceBitwise(t *testing.T) {
	rng := NewRNG(61)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1023, 4099, 178352} {
		all := gramRows(rng, 12, n)
		forEachKernelGate(t, func(t *testing.T) {
			for m := 1; m <= 12; m++ {
				rows := all[:m]
				prod := make([]float64, m*(m+1)/2)
				Gram(prod, rows)
				for i := range rows {
					for j := 0; j <= i; j++ {
						want := DotSlice(rows[i], rows[j])
						if got := prod[i*(i+1)/2+j]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("n%d m%d: product (%d,%d) = %v, DotSlice gives %v", n, m, i, j, got, want)
						}
					}
				}
			}
		})
	}
}

// TestGramBeyondStackRows covers the row count past the AVX2 pass's stack
// lanes, which computes every product as one DotSlice call.
func TestGramBeyondStackRows(t *testing.T) {
	m := gramMaxRows + 1
	rows := gramRows(NewRNG(62), m, 37)
	prod := make([]float64, m*(m+1)/2)
	Gram(prod, rows)
	for i := range rows {
		for j := 0; j <= i; j++ {
			if got, want := prod[i*(i+1)/2+j], DotSlice(rows[i], rows[j]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("product (%d,%d) = %v, DotSlice gives %v", i, j, got, want)
			}
		}
	}
}

func TestGramAllocFree(t *testing.T) {
	for _, m := range []int{2, 4, 11} {
		rows := gramRows(NewRNG(63), m, 4099)
		prod := make([]float64, m*(m+1)/2)
		if allocs := testing.AllocsPerRun(10, func() { Gram(prod, rows) }); allocs != 0 {
			t.Fatalf("m%d: Gram allocates %.1f objects/op, want 0", m, allocs)
		}
	}
}

// axpyRowsRef is AxpyRows' definition: a copy of x, one AxpySlice per row in
// order, then the scale.
func axpyRowsRef(x, coef []float32, rows [][]float32, scale float32) []float32 {
	out := append([]float32(nil), x...)
	for i, r := range rows {
		AxpySlice(out, coef[i], r)
	}
	if scale != 1 {
		for p := range out {
			out[p] *= scale
		}
	}
	return out
}

// TestAxpyRowsMatchesAxpySliceBitwise pins AxpyRows to its definition bit
// for bit, for 0 to 10 rows, every tail of the 32- and 8-float steps and a
// partial pure-Go block, with and without a scale, AVX2 and gate off.
func TestAxpyRowsMatchesAxpySliceBitwise(t *testing.T) {
	rng := NewRNG(66)
	for _, n := range []int{0, 1, 5, 7, 8, 9, 31, 32, 33, 47, 1023, 4099} {
		rows := gramRows(rng, 11, n)
		coef := make([]float32, 10)
		for i := range coef {
			coef[i] = float32(rng.Norm()) * float32(math.Pow(10, float64(i%5-2)))
		}
		forEachKernelGate(t, func(t *testing.T) {
			for k := 0; k <= 10; k++ {
				for _, scale := range []float32{1, 0.6180339} {
					want := axpyRowsRef(rows[0], coef[:k], rows[1:k+1], scale)
					got := make([]float32, n)
					AxpyRows(got, rows[0], coef[:k], rows[1:k+1], scale)
					for p := range want {
						if math.Float32bits(got[p]) != math.Float32bits(want[p]) {
							t.Fatalf("n%d k%d scale %v: element %d = %v, want %v", n, k, scale, p, got[p], want[p])
						}
					}
				}
			}
		})
	}
}

func TestAxpyRowsAllocFree(t *testing.T) {
	rows := gramRows(NewRNG(67), 4, 4099)
	dst, coef := make([]float32, 4099), []float32{1, 2, 3}
	if allocs := testing.AllocsPerRun(10, func() { AxpyRows(dst, rows[0], coef, rows[1:], 0.5) }); allocs != 0 {
		t.Fatalf("AxpyRows allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkGram times the one-pass Gram of [g; G₁…G_k] at the CI-scale
// ResNet18's gradient length for FedKNOW's k = 1, 3 and 10, in MB/s of rows
// read.
func BenchmarkGram(b *testing.B) {
	const n = 178352
	for _, k := range []int{1, 3, 10} {
		rows := gramRows(NewRNG(64), k+1, n)
		prod := make([]float64, (k+1)*(k+2)/2)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(4 * n * (k + 1)))
			for i := 0; i < b.N; i++ {
				Gram(prod, rows)
			}
		})
	}
}
