package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// pinKernelThreads sets the kernel-thread budget for the rest of the test
// and restores the previous setting — "follow GOMAXPROCS" included — when it
// ends, so no test leaves a pinned width behind for a later alloc pin.
func pinKernelThreads(t testing.TB, n int) {
	prev := tensor.SetKernelThreads(n)
	t.Cleanup(func() { tensor.SetKernelThreads(prev) })
}

// knowledgeBearing returns a FedKNOW strategy that has finished `stored`
// tasks, and a batch of a new task to train on.
func knowledgeBearing(seed uint64, opts Options, stored int) (f *FedKNOW, x *tensor.Tensor, labels, classes []int) {
	rng := tensor.NewRNG(seed)
	ctx := newTestCtx(rng)
	f = New(ctx, opts)
	for i := 0; i < stored; i++ {
		f.TaskEnd(tinyClientTask(rng.Fork(uint64(10+i)), []int{2 * i, 2*i + 1}))
	}
	ct := tinyClientTask(rng.Fork(3), []int{6, 7})
	x, labels = data.Batch(ct.Train, ctx.RNG.Perm(len(ct.Train))[:8], 3, 12, 12)
	return f, x, labels, ct.Classes
}

// TestRestoreAllAllocFree pins the restorer's claim: with its buffers warm,
// restoring every stored task's gradient allocates nothing at kernel width 1
// (above it tensor.Parallel spawns, which allocates).
func TestRestoreAllAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse and instruments allocations")
	}
	pinKernelThreads(t, 1)
	f, x, _, _ := knowledgeBearing(21, Options{Rho: 0.1, K: 10}, 3)
	if allocs := testing.AllocsPerRun(10, func() { restoreAll(f.restorer, f.knowledge, x) }); allocs != 0 {
		t.Fatalf("restoring every task allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestTrainStepAllocFree pins a whole knowledge-bearing step — knowledge-model
// forwards, the shared live forward, one distillation backward per task, the
// QP and the optimiser step — at zero allocations, on both ways of choosing
// the restore set: every stored task (K covers the store, the paper's
// default), a cached signature subset (re-ranked only by the warm-up call
// AllocsPerRun makes before it counts), and a subset re-ranked by
// Wasserstein dissimilarity at every step.
func TestTrainStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse and instruments allocations")
	}
	for name, opts := range map[string]Options{
		"all stored tasks":       {Rho: 0.1, K: 10},
		"signature subset":       {Rho: 0.1, K: 2, SelectEvery: 1 << 30},
		"re-ranked at each step": {Rho: 0.1, K: 2, SelectEvery: 1},
	} {
		t.Run(name, func(t *testing.T) {
			pinKernelThreads(t, 1)
			f, x, labels, classes := knowledgeBearing(22, opts, 3)
			qpRuns := f.Stats.QPRuns
			allocs := testing.AllocsPerRun(10, func() { f.TrainStep(x, labels, classes) })
			if allocs != 0 {
				t.Fatalf("TrainStep allocates %.1f objects/op in steady state, want 0", allocs)
			}
			if f.Stats.QPRuns == qpRuns {
				t.Fatal("no step solved the QP: the pin did not cover the integrator's buffers")
			}
		})
	}
}

// TestExtractSegmentsAllocs pins the top-ρ selection's allocations to its
// result: the store and its index and value slices. The digit histograms
// live on the stack, so the count holds whatever the number of segments.
func TestExtractSegmentsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	m := model.MustBuild("ResNet18", 10, 3, 16, 16, 1, tensor.NewRNG(31).Fork(1))
	segments, w := paramSegments(m), m.Weights()
	for _, copies := range []int{1, 4} {
		many := make([]int, 0, copies*len(segments))
		manyW := make([]float32, 0, copies*len(w))
		for range copies {
			many, manyW = append(many, segments...), append(manyW, w...)
		}
		if allocs := testing.AllocsPerRun(5, func() { prune.ExtractSegments(manyW, many, 0.1) }); allocs > 3 {
			t.Fatalf("%d segments: %v allocations per call, want at most 3", len(many), allocs)
		}
	}
}
