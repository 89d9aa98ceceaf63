package model_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// TestModelStateIsOneArena holds every zoo architecture to the arena layout:
// each parameter, gradient and running statistic is the view of its arena at
// its offset, capacity capped at its length, and stays that view through
// training steps, a knowledge extraction, a Borrow and a global install. A
// layer that re-allocates any of them fails here.
func TestModelStateIsOneArena(t *testing.T) {
	for _, name := range model.Names() {
		t.Run(name, func(t *testing.T) {
			rng := tensor.NewRNG(11)
			m := model.MustBuild(name, 4, 3, 12, 12, 1, rng.Fork(1))
			checkArena(t, m, "built")

			ct := data.ClientTask{Classes: []int{0, 1}}
			for i := 0; i < 8; i++ {
				x := make([]float32, 3*12*12)
				rng.FillNorm(x, 1)
				ct.Train = append(ct.Train, data.Sample{X: x, Y: i % 2})
			}
			x, labels := data.Batch(ct.Train, []int{0, 1, 2, 3}, 3, 12, 12)
			sgd := opt.NewSGD(opt.Const{Rate: 0.01}, 0.9, 5e-4)
			trainStep := func() {
				_, dl := nn.MaskedCrossEntropy(m.Forward(x, true), labels, ct.Classes)
				clear(m.Grads())
				m.Backward(dl)
				sgd.Step(m.Weights(), m.Grads())
			}
			trainStep()
			trainStep()
			checkArena(t, m, "two training steps")

			ex := core.NewKnowledgeExtractor(0.1)
			ex.FinetuneIters = 2
			ex.Extract(m, ct, rng)
			checkArena(t, m, "Extract")

			other := tensor.Randn(rng, 0.1, m.NumParams()).Data
			m.Borrow(func() {
				m.SetWeights(other)
				trainStep()
			})
			checkArena(t, m, "Borrow")

			m.SetWeights(other)
			checkArena(t, m, "a global install")
		})
	}
}

// checkArena checks that every parameter and gradient, in Params() order,
// then every BatchNorm2D's RunningMean and RunningVar in walk order, is the
// capped view of its arena at its offset, and that the views tile the arenas.
func checkArena(t *testing.T, m *model.Model, after string) {
	t.Helper()
	state, grads := m.State(), m.Grads()
	at := func(what string, arena []float32, off int, v []float32) {
		t.Helper()
		if len(v) == 0 || off+len(v) > len(arena) || &v[0] != &arena[off] || cap(v) != len(v) {
			t.Fatalf("after %s: %s (len %d, cap %d) is not the view of its arena at %d", after, what, len(v), cap(v), off)
		}
	}
	off := 0
	for _, p := range m.Params() {
		at(p.Name+" weights", state, off, p.W.Data)
		at(p.Name+" gradient", grads, off, p.Grad.Data)
		off += p.W.Len()
	}
	if w := m.Weights(); off != len(grads) || len(w) != off || cap(w) != off || &w[0] != &state[0] {
		t.Fatalf("after %s: the parameters fill %d floats, Weights has %d (cap %d), Grads %d", after, off, len(w), cap(w), len(grads))
	}
	nn.Walk(m.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			at("a RunningMean", state, off, bn.RunningMean)
			off += len(bn.RunningMean)
			at("a RunningVar", state, off, bn.RunningVar)
			off += len(bn.RunningVar)
		}
	})
	if off != len(state) {
		t.Fatalf("after %s: the views fill %d of the state arena's %d floats", after, off, len(state))
	}
}

// TestArenaInstallsRefuseWrongLength hits the three guarded writes into the
// arenas: a weight install, a gradient install and a knowledge store
// densified into the weights, each one value short and one value long.
func TestArenaInstallsRefuseWrongLength(t *testing.T) {
	m := model.MustBuild("SixCNN", 4, 3, 12, 12, 1, tensor.NewRNG(12))
	x := tensor.Randn(tensor.NewRNG(13), 1, 2, 3, 12, 12)
	n := m.NumParams()
	installs := map[string]func(k int){
		"SetWeights": func(k int) { m.SetWeights(make([]float32, k)) },
		"SetGrads":   func(k int) { m.SetGrads(make([]float32, k)) },
		"knowledge": func(k int) {
			ks := []*core.TaskKnowledge{{Classes: []int{0, 1}, Store: prune.Extract(make([]float32, k), 0.1)}}
			core.NewGradientRestorer(m).PrepareTargets(ks, x)
		},
	}
	for what, install := range installs {
		for _, k := range []int{n - 1, n + 1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s of %d values into a model of %d parameters did not panic", what, k, n)
					}
				}()
				install(k)
			}()
		}
	}
}
