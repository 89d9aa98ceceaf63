package shard

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// TestPlanPartition: the partition must cover [0, n) exactly, contiguously,
// balanced to within one coordinate, for awkward n/P combinations including
// P > n.
func TestPlanPartition(t *testing.T) {
	for _, c := range []struct{ n, p int }{
		{10, 1}, {10, 3}, {10, 10}, {3, 8}, {0, 4}, {1 << 16, 7},
	} {
		pl := NewPlan(c.n, c.p)
		next := 0
		for s := 0; s < pl.Shards(); s++ {
			lo, hi := pl.Bounds(s)
			if lo != next {
				t.Fatalf("n=%d p=%d shard %d starts at %d, want %d", c.n, c.p, s, lo, next)
			}
			if hi < lo {
				t.Fatalf("n=%d p=%d shard %d inverted [%d,%d)", c.n, c.p, s, lo, hi)
			}
			if w := hi - lo; w > c.n/pl.Shards()+1 {
				t.Fatalf("n=%d p=%d shard %d width %d is unbalanced", c.n, c.p, s, w)
			}
			next = hi
		}
		if next != c.n {
			t.Fatalf("n=%d p=%d partition covers [0,%d)", c.n, c.p, next)
		}
	}
	if NewPlan(8, 0).Shards() != 1 {
		t.Fatal("shards < 1 must clamp to 1")
	}
}

// mkSparse builds a deterministic sparse vector of ~density·n coordinates.
func mkSparse(rng *tensor.RNG, n int, density float64) *tensor.SparseVec {
	w := make([]float32, n)
	mask := make([]bool, n)
	for i := range w {
		w[i] = float32(rng.Norm())
		mask[i] = rng.Float64() < density
	}
	return tensor.GatherMask(nil, w, mask)
}

// pinKernelThreads sets the kernel-thread budget for the rest of the test
// and restores the previous setting — "follow GOMAXPROCS" included — when it
// ends.
func pinKernelThreads(t testing.TB, n int) {
	prev := tensor.SetKernelThreads(n)
	t.Cleanup(func() { tensor.SetKernelThreads(prev) })
}

// naiveFold is the reference: a plain dense accumulate of the same weighted
// contributions, per coordinate the same operations the reducer performs.
type naiveFold struct {
	acc []float32
}

func (f *naiveFold) dense(w float32, x []float32) {
	if f.acc == nil {
		f.acc = make([]float32, len(x))
	}
	for i, v := range x {
		f.acc[i] += w * v
	}
}

func (f *naiveFold) sparse(w float32, x *tensor.SparseVec) {
	if f.acc == nil {
		f.acc = make([]float32, x.N)
	}
	for i, j := range x.Indices {
		f.acc[j] += w * x.Values[i]
	}
}

func (f *naiveFold) merge(scale float32) []float32 {
	out := make([]float32, len(f.acc))
	for i, v := range f.acc {
		out[i] = scale * v
	}
	return out
}

// TestReducerMatchesNaive: for shard counts {1,2,8} and mixed dense/sparse
// rounds, the merged result must equal the naive single-loop fold bit for
// bit, across consecutive rounds (exercising the lazy re-zeroing and the
// double-buffered merge).
func TestReducerMatchesNaive(t *testing.T) {
	const n = 10_000
	for _, p := range []int{1, 2, 8} {
		rng := tensor.NewRNG(99)
		r := NewReducer(p)
		for round := 0; round < 4; round++ {
			naive := &naiveFold{}
			r.BeginRound()
			dense := make([]float32, n)
			for i := range dense {
				dense[i] = float32(rng.Norm())
			}
			contribs := []struct {
				w  float32
				sp *tensor.SparseVec
			}{
				{1.5, mkSparse(rng, n, 0.05)},
				{0.25, mkSparse(rng, n, 0.3)},
			}
			for _, c := range contribs {
				r.FoldSparse(c.w, c.sp)
				naive.sparse(c.w, c.sp)
			}
			if round%2 == 1 { // alternate rounds go full via a dense update
				r.FoldDense(2, dense)
				naive.dense(2, dense)
			}
			scale := float32(1 / (1.75 + float64(round%2)*2))
			got := r.Merge(scale)
			want := naive.merge(scale)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d round %d coordinate %d: %v, want %v", p, round, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReducerDeterministicAcrossThreads: the same fold sequence must produce
// identical bits for every kernel-thread budget — the property that lets the
// concurrent fold stage replace the serial loop without perturbing any
// reproducibility invariant.
func TestReducerDeterministicAcrossThreads(t *testing.T) {
	const n = 40_000
	run := func(threads int) []float32 {
		pinKernelThreads(t, threads)
		rng := tensor.NewRNG(5)
		r := NewReducer(8)
		r.BeginRound()
		r.FoldSparse(0.7, mkSparse(rng, n, 0.2))
		r.FoldDense(1.3, mkSparse(rng, n, 1).Densify())
		r.FoldSparse(0.1, mkSparse(rng, n, 0.01))
		return append([]float32(nil), r.Merge(1/3.1)...)
	}
	want := run(1)
	for _, threads := range []int{4, 16} {
		got := run(threads)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d coordinate %d: %v, want %v", threads, i, got[i], want[i])
			}
		}
	}
}

// TestReducerMergeSurvivesNextRound pins the double-buffer contract: the
// vector returned by Merge stays intact while the next round folds and
// merges, and is only rewritten by the round after that.
func TestReducerMergeSurvivesNextRound(t *testing.T) {
	r := NewReducer(4)
	r.BeginRound()
	r.FoldDense(1, []float32{5, 6, 7, 8, 9})
	first := r.Merge(1)
	r.BeginRound()
	r.FoldSparse(1, &tensor.SparseVec{N: 5, Indices: []int32{1, 4}, Values: []float32{10, 20}})
	second := r.Merge(1)
	if first[0] != 5 || first[1] != 6 || first[4] != 9 {
		t.Fatalf("round-r merge rewritten during round r+1: %v", first)
	}
	want := []float32{0, 10, 0, 0, 20}
	for i := range want {
		if second[i] != want[i] {
			t.Fatalf("second round coordinate %d = %v, want %v (stale scratch?)", i, second[i], want[i])
		}
	}
}

// TestReducerMergeSurvivesIdleRounds: rounds that end without a Merge — one
// opened twice, one abandoned after a fold — stay on their own buffer, so the
// last Merge result is intact until the next Merge returns.
func TestReducerMergeSurvivesIdleRounds(t *testing.T) {
	for _, p := range []int{1, 4} {
		r := NewReducer(p)
		r.BeginRound()
		r.FoldDense(1, []float32{5, 6, 7, 8, 9})
		first := r.Merge(1)
		r.BeginRound()
		r.BeginRound() // opened twice
		r.FoldDense(1, []float32{1, 1, 1, 1, 1})
		r.BeginRound() // the fold above is abandoned
		r.FoldSparse(1, &tensor.SparseVec{N: 5, Indices: []int32{0, 3}, Values: []float32{10, 20}})
		if want := []float32{5, 6, 7, 8, 9}; !slices.Equal(first, want) {
			t.Fatalf("p=%d: merge rewritten by rounds that never merged: %v, want %v", p, first, want)
		}
		if got, want := r.Merge(1), []float32{10, 0, 0, 20, 0}; !slices.Equal(got, want) {
			t.Fatalf("p=%d: merge after idle rounds %v, want %v", p, got, want)
		}
	}
}

// TestReducerMergeAllocFree: at one kernel thread a steady-state round — the
// folds, and a Merge that scales a sparse union past the kernels' parallel
// threshold — allocates nothing, at one shard and at several.
func TestReducerMergeAllocFree(t *testing.T) {
	pinKernelThreads(t, 1)
	const n = 1 << 18
	rng := tensor.NewRNG(34)
	ups := []*tensor.SparseVec{mkSparse(rng, n, 0.1), mkSparse(rng, n, 0.1)}
	for _, p := range []int{1, 4} {
		r := NewReducer(p)
		round := func() {
			r.BeginRound()
			for _, u := range ups {
				r.FoldSparse(1, u)
			}
			r.Merge(0.5)
		}
		round()
		round() // both buffers sized and listed
		if r.Support() == nil {
			t.Fatalf("p=%d: the union went full; the pin must scale a sparse one", p)
		}
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Fatalf("p=%d: a steady-state fold + merge allocates %v times", p, allocs)
		}
	}
}

// TestReducerWindowRoundTrip: capturing the open window after some folds,
// then restoring it into a fresh reducer and folding the rest, must land on
// the exact bits of the uninterrupted fold — in both the sparse and the
// dense (full-mode) capture regimes, at one shard and at several, and across
// layouts (a cut taken at one shard count restores at another).
func TestReducerWindowRoundTrip(t *testing.T) {
	const n = 5_000
	mk := func() (head, tail []struct {
		w  float32
		sp *tensor.SparseVec
	}, dense []float32) {
		rng := tensor.NewRNG(17)
		head = append(head, struct {
			w  float32
			sp *tensor.SparseVec
		}{0.5, mkSparse(rng, n, 0.08)})
		tail = append(tail, struct {
			w  float32
			sp *tensor.SparseVec
		}{1.25, mkSparse(rng, n, 0.12)})
		dense = make([]float32, n)
		for i := range dense {
			dense[i] = float32(rng.Norm())
		}
		return
	}
	for _, p := range []struct{ cut, restore int }{{1, 1}, {4, 4}, {1, 4}, {4, 1}} {
		for _, withDense := range []bool{false, true} {
			head, tail, dense := mk()

			// Uninterrupted reference.
			ref := NewReducer(p.cut)
			ref.BeginRound()
			for _, c := range head {
				ref.FoldSparse(c.w, c.sp)
			}
			if withDense {
				ref.FoldDense(2, dense)
			}
			for _, c := range tail {
				ref.FoldSparse(c.w, c.sp)
			}
			want := append([]float32(nil), ref.Merge(0.25)...)

			// Crash after head: capture, restore into a fresh reducer, fold tail.
			r1 := NewReducer(p.cut)
			r1.BeginRound()
			for _, c := range head {
				r1.FoldSparse(c.w, c.sp)
			}
			if withDense {
				r1.FoldDense(2, dense)
			}
			idx, vals, isDense := r1.Window()
			if isDense != withDense {
				t.Fatalf("shards=%v withDense=%v: capture dense=%v", p, withDense, isDense)
			}
			idx = append([]int32(nil), idx...)
			vals = append([]float32(nil), vals...)

			r2 := NewReducer(p.restore)
			r2.BeginRound()
			r2.RestoreWindow(n, idx, vals, isDense)
			for _, c := range tail {
				r2.FoldSparse(c.w, c.sp)
			}
			got := r2.Merge(0.25)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%v withDense=%v coordinate %d: restored %v, uninterrupted %v", p, withDense, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReducerEmptyAndResize: a round with no folds merges to the prior
// zero state, a vector-length change rebuilds the partition cleanly, and an
// abandoned round is cleared like a merged one.
func TestReducerEmptyAndResize(t *testing.T) {
	r := NewReducer(3)
	r.BeginRound()
	r.FoldDense(1, []float32{1, 2, 3, 4})
	_ = r.Merge(1)
	r.BeginRound()
	r.FoldDense(1, []float32{9, 9}) // resize mid-run
	got := r.Merge(0.5)
	if len(got) != 2 || got[0] != 4.5 || got[1] != 4.5 {
		t.Fatalf("after resize: %v", got)
	}
	r.BeginRound()
	empty := r.Merge(1)
	for i, v := range empty {
		if v != 0 {
			t.Fatalf("empty round coordinate %d = %v, want 0", i, v)
		}
	}
	// A round abandoned without Merge must not leak its sums into the round
	// that next reuses its buffer.
	r.BeginRound()
	r.FoldDense(1, []float32{7, 7})
	r.BeginRound()
	r.BeginRound()
	r.FoldSparse(1, &tensor.SparseVec{N: 2, Indices: []int32{1}, Values: []float32{3}})
	if got := r.Merge(1); got[0] != 0 || got[1] != 3 {
		t.Fatalf("after an abandoned round: %v, want [0 3]", got)
	}
}

// TestReducerSupport: after every Merge, Support is nil exactly when some
// shard ran full; otherwise it is the strictly ascending set of coordinates
// the round's sparse folds reached — so every coordinate outside it reads +0
// bits, while one inside may hold a cancelled zero of either sign. Rounds
// alternate the two buffers, cross the quarter-range switch, and include a
// round abandoned before its Merge.
func TestReducerSupport(t *testing.T) {
	const n = 3000
	for _, p := range []int{1, 2, 4, 7} {
		rng := tensor.NewRNG(uint64(40 + p))
		r := NewReducer(p)
		for round := 0; round < 12; round++ {
			r.BeginRound()
			// The buffer was merged two rounds ago: an unmerged round must
			// not claim that round's support.
			if stale := r.Support(); stale != nil {
				t.Fatalf("p=%d round %d: an unmerged round claims %d coordinates", p, round, len(stale))
			}
			touched := make([]bool, n)
			folds := 1 + round%3
			if round%4 == 3 {
				folds = 8 // 8 × 5 % passes a quarter of every range
			}
			var prev *tensor.SparseVec
			for f := 0; f < folds; f++ {
				sp := mkSparse(rng, n, 0.05)
				if f == 1 {
					// Exact cancellations: the second fold takes back what the
					// first put on its coordinates, and adds a −0, so the support
					// holds coordinates whose sums are +0.
					sp = &tensor.SparseVec{N: n, Indices: prev.Indices, Values: make([]float32, len(prev.Values))}
					for i, v := range prev.Values {
						sp.Values[i] = -v
					}
					sp.Values[0] = float32(math.Copysign(0, -1))
				}
				prev = sp
				for _, j := range sp.Indices {
					touched[j] = true
				}
				r.FoldSparse(1, sp)
			}
			if round == 5 {
				continue // abandoned: the next use of this buffer must still clear it
			}
			got := r.Merge(0.5)
			sup := r.Support()
			full := false
			for s := 0; s < p; s++ {
				full = full || r.ranges[r.cur][s].full
			}
			if full != (sup == nil) {
				t.Fatalf("p=%d round %d: support nil=%v, some shard full=%v", p, round, sup == nil, full)
			}
			if full {
				continue
			}
			in := make([]bool, n)
			for i, j := range sup {
				if i > 0 && j <= sup[i-1] {
					t.Fatalf("p=%d round %d: support not strictly ascending at %d: %d after %d", p, round, i, j, sup[i-1])
				}
				in[j] = true
			}
			for j := range got {
				if in[j] != touched[j] {
					t.Fatalf("p=%d round %d: coordinate %d in support %v, touched %v", p, round, j, in[j], touched[j])
				}
				if !in[j] && math.Float32bits(got[j]) != 0 {
					t.Fatalf("p=%d round %d: coordinate %d outside the support holds %#x", p, round, j, math.Float32bits(got[j]))
				}
			}
		}
	}
}

// BenchmarkReducerFoldSparse is one commit window of the sparse ingest
// workload: two folds of distinct ρ = 10 % masks over 2¹⁸ coordinates, the
// merge, and the support the broadcast encodes from.
func BenchmarkReducerFoldSparse(b *testing.B) {
	const n = 1 << 18
	rng := tensor.NewRNG(7)
	ups := []*tensor.SparseVec{mkSparse(rng, n, 0.10), mkSparse(rng, n, 0.10)}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			r := NewReducer(p)
			var sup []int32
			for b.Loop() {
				r.BeginRound()
				for _, u := range ups {
					r.FoldSparse(1, u)
				}
				r.Merge(0.5)
				sup = r.Support()
			}
			b.ReportMetric(float64(len(sup)), "support")
		})
	}
}
