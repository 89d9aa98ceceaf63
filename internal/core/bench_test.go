package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/tensor"
)

// BenchmarkExtract times one KnowledgeExtractor.Extract with the extractor's
// defaults — top-ρ selection, ten batch-16 fine-tune steps through the pruned
// model, refresh — on the benchmark workload's model at CI scale (ResNet18,
// 3×16×16 input): what a client pays at the end of every task.
func BenchmarkExtract(b *testing.B) {
	pinKernelThreads(b, 1)
	rng := tensor.NewRNG(31)
	m := model.MustBuild("ResNet18", 10, 3, 16, 16, 1, rng.Fork(1))
	ds := data.Generate(data.Config{Name: "b", NumClasses: 10, TrainPerClass: 24,
		TestPerClass: 1, C: 3, H: 16, W: 16, Noise: 0.3, Seed: rng.Uint64()})
	ct := data.ClientTask{TaskID: 0, Classes: []int{0, 1}}
	for _, s := range ds.Train {
		if s.Y <= 1 {
			ct.Train = append(ct.Train, s)
		}
	}
	e := NewKnowledgeExtractor(0.1)
	draw := rng.Fork(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Extract(m, ct, draw)
	}
}
