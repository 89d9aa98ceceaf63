package nn_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// These tests sit beside the liveness hook rather than in internal/core
// because a test-only hook does not cross a package boundary: they drive
// FedKNOW's extractor and restorer — the two places a pruned model, most of
// whose channels are exactly zero, runs through Conv2D — with the layer
// observing dead channels and with every channel forced alive.

// deadConvs counts the ungrouped convolutions of m whose last Forward left an
// input channel out and whose last backward left a row of dY out.
func deadConvs(m *model.Model) (deadIn, deadOut int) {
	nn.Walk(m.Net, func(l nn.Layer) {
		if c, ok := l.(*nn.Conv2D); ok && c.Groups == 1 {
			in, out := c.LiveCounts()
			if in < c.InC {
				deadIn++
			}
			if out < c.OutC {
				deadOut++
			}
		}
	})
	return deadIn, deadOut
}

// knowledgeRun builds a model and a client task from fixed seeds, extracts the
// task's knowledge with the extractor's defaults (ten fine-tune steps through
// the pruned model) and restores its gradient on a fresh batch. after, when
// set, sees the model right after the extraction (whose last passes were the
// fine-tune's) and right after the restorer's knowledge forward.
func knowledgeRun(arch string, after func(stage string, m *model.Model)) (*core.TaskKnowledge, []float32) {
	rng := tensor.NewRNG(17)
	m := model.MustBuild(arch, 8, 3, 12, 12, 1, rng.Fork(1))
	ds := data.Generate(data.Config{Name: "t", NumClasses: 8, TrainPerClass: 12,
		TestPerClass: 1, C: 3, H: 12, W: 12, Noise: 0.3, Seed: rng.Uint64()})
	ct := data.ClientTask{TaskID: 0, Classes: []int{0, 1}}
	for _, s := range ds.Train {
		if s.Y <= 1 {
			ct.Train = append(ct.Train, s)
		}
	}
	k := core.NewKnowledgeExtractor(0.1).Extract(m, ct, rng.Fork(3))
	if after != nil {
		after("the extractor's fine-tune", m)
	}
	x := tensor.Randn(rng.Fork(5), 1, 8, 3, 12, 12)
	r, ks := core.NewGradientRestorer(m), []*core.TaskKnowledge{k}
	r.PrepareTargets(ks, x)
	if after != nil {
		after("the restorer's knowledge forward", m)
	}
	return k, r.RestoredGradients(ks, m.Forward(x, true))[0]
}

// TestKnowledgeMatchesAllLiveRun is the test that protects the benchmark's
// result_digest and every fixed-seed trajectory: the knowledge store Extract
// fine-tunes through the pruned model, and the gradient the restorer rebuilds
// from it, are bit for bit those of a run in which no convolution left a
// channel out — while the observing run did leave channels out, in both
// directions.
func TestKnowledgeMatchesAllLiveRun(t *testing.T) {
	// Architectures with BatchNorm: its dropped scales are what kill channels.
	for _, arch := range []string{"ResNet18", "MobileNetV2"} {
		t.Run(arch, func(t *testing.T) {
			got, gotGrad := knowledgeRun(arch, func(stage string, m *model.Model) {
				// Or the comparison below holds nothing to anything.
				deadIn, deadOut := deadConvs(m)
				if deadIn == 0 {
					t.Fatalf("%s: no convolution saw a dead input channel", stage)
				}
				t.Logf("%s: %d convolutions with dead inputs, %d with dead dY rows", stage, deadIn, deadOut)
			})
			var want *core.TaskKnowledge
			var wantGrad []float32
			nn.WithAllLive(func() { want, wantGrad = knowledgeRun(arch, nil) })

			if len(got.Store.Indices) != len(want.Store.Indices) {
				t.Fatalf("store holds %d weights, the all-live run's %d", len(got.Store.Indices), len(want.Store.Indices))
			}
			for i, idx := range want.Store.Indices {
				if got.Store.Indices[i] != idx || math.Float32bits(got.Store.Values[i]) != math.Float32bits(want.Store.Values[i]) {
					t.Fatalf("stored weight %d: index %d value %v, the all-live run has index %d value %v",
						i, got.Store.Indices[i], got.Store.Values[i], idx, want.Store.Values[i])
				}
			}
			for i, w := range wantGrad {
				if math.Float32bits(gotGrad[i]) != math.Float32bits(w) {
					t.Fatalf("restored gradient[%d] = %v, the all-live run has %v", i, gotGrad[i], w)
				}
			}
		})
	}
}
