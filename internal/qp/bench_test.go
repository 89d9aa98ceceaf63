package qp

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// BenchmarkIntegrate measures one integration at the CI-scale ResNet18's
// gradient length for k = 1 (the post-aggregation guard), 3 (FedKNOW's
// CI-scale K) and 10 (the paper's K), with every constraint violated so the
// QP runs: each constraint is −g plus its own noise, as the benchmark
// module's probe builds them. The workspace is warm, as a training step's is.
func BenchmarkIntegrate(b *testing.B) {
	const dim = 178352
	r := tensor.NewRNG(1)
	g := make([]float32, dim)
	r.FillNorm(g, 1)
	for _, k := range []int{1, 3, 10} {
		G := make([][]float32, k)
		for i := range G {
			G[i] = make([]float32, dim)
			r.FillNorm(G[i], 1e-3)
			tensor.AxpySlice(G[i], -1, g)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var w Workspace
			w.Integrate(g, G)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Integrate(g, G)
			}
		})
	}
}

func BenchmarkSolveDual(b *testing.B) {
	r := tensor.NewRNG(2)
	k := 10
	a := make([][]float64, k)
	bb := make([]float64, k)
	for i := range a {
		a[i] = make([]float64, k)
		for j := range a[i] {
			a[i][j] = r.Norm()
		}
		a[i][i] += float64(k) // diagonally dominant PSD-ish
		bb[i] = r.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveDual(a, bb)
	}
}
