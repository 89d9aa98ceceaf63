package fed

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/tensor"
)

// testAggregatorConformance checks the behaviour every Aggregator must
// provide: empty rounds yield nil, weighting follows sample counts with
// zero-weight clients counted once, and the result is a convex combination
// that preserves unanimous coordinates exactly.
func testAggregatorConformance(t *testing.T, newAgg func() Aggregator) {
	t.Helper()
	t.Run("empty round", func(t *testing.T) {
		if got := newAgg().Aggregate(nil); got != nil {
			t.Fatalf("empty round: got %v, want nil", got)
		}
	})
	t.Run("single client is identity", func(t *testing.T) {
		params := []float32{1, -2, 3.5}
		got := newAgg().Aggregate([]*Update{{Participating: true, Weight: 17, Params: params}})
		for i := range params {
			if got[i] != params[i] {
				t.Fatalf("single-client aggregate[%d] = %v, want %v", i, got[i], params[i])
			}
		}
	})
	t.Run("weighted averaging", func(t *testing.T) {
		ups := []*Update{
			{Participating: true, Weight: 1, Params: []float32{0, 4, 8}},
			{Participating: true, Weight: 3, Params: []float32{4, 4, 0}},
		}
		got := newAgg().Aggregate(ups)
		want := []float32{3, 4, 2} // (1·a + 3·b) / 4
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-6 {
				t.Fatalf("aggregate[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	})
	t.Run("zero weight counts once", func(t *testing.T) {
		ups := []*Update{
			{Participating: true, Weight: 0, Params: []float32{0}},
			{Participating: true, Weight: 1, Params: []float32{2}},
		}
		got := newAgg().Aggregate(ups)
		if math.Abs(float64(got[0]-1)) > 1e-6 {
			t.Fatalf("zero-weight client must count as weight 1: got %v, want 1", got[0])
		}
	})
	t.Run("unanimity preserved", func(t *testing.T) {
		// Identical inputs must aggregate back to (numerically) the same
		// vector whatever the weights.
		params := []float32{0.1, -0.2, 0.30000001}
		ups := []*Update{
			{Participating: true, Weight: 5, Params: params},
			{Participating: true, Weight: 11, Params: params},
			{Participating: true, Weight: 2, Params: params},
		}
		got := newAgg().Aggregate(ups)
		for i := range params {
			if math.Abs(float64(got[i]-params[i])) > 1e-6 {
				t.Fatalf("unanimous aggregate[%d] = %v, want %v", i, got[i], params[i])
			}
		}
	})
	t.Run("scratch reuse does not leak", func(t *testing.T) {
		agg := newAgg()
		first := agg.Aggregate([]*Update{{Participating: true, Weight: 1, Params: []float32{1, 1}}})
		if first[0] != 1 {
			t.Fatal("first round wrong")
		}
		second := agg.Aggregate([]*Update{{Participating: true, Weight: 1, Params: []float32{9, 9}}})
		if second[0] != 9 {
			t.Fatalf("second round got %v: stale scratch", second[0])
		}
	})
}

func TestWeightedFedAvgConformance(t *testing.T) {
	testAggregatorConformance(t, func() Aggregator { return &WeightedFedAvg{} })
	if (&WeightedFedAvg{}).Name() == "" {
		t.Fatal("aggregator must be identifiable")
	}
}

// fedAvgShards is every fold layout the SparseFedAvg suite runs at: the
// single loop, and shard counts that do and do not divide the test vectors.
var fedAvgShards = []int{1, 2, 4, 8}

// pinKernelThreads sets the kernel-thread budget for the rest of the test
// and restores the previous setting — "follow GOMAXPROCS" included — when it
// ends, so no test leaves a pinned width behind for a later alloc pin.
func pinKernelThreads(t testing.TB, n int) {
	prev := tensor.SetKernelThreads(n)
	t.Cleanup(func() { tensor.SetKernelThreads(prev) })
}

// forEachFedAvgPlan runs fn as one subtest per fold layout, plus the zero
// value (which must be the 1-shard plan).
func forEachFedAvgPlan(t *testing.T, fn func(t *testing.T, newAgg func() *SparseFedAvg)) {
	t.Run("zero value", func(t *testing.T) { fn(t, func() *SparseFedAvg { return &SparseFedAvg{} }) })
	for _, p := range fedAvgShards {
		t.Run(fmt.Sprintf("shards=%d", p), func(t *testing.T) {
			fn(t, func() *SparseFedAvg { return NewShardedFedAvg(p) })
		})
	}
}

func TestSparseFedAvgConformance(t *testing.T) {
	forEachFedAvgPlan(t, func(t *testing.T, newAgg func() *SparseFedAvg) {
		testAggregatorConformance(t, func() Aggregator { return newAgg() })
	})
	for p, want := range map[int]string{0: "SparseFedAvg", 1: "SparseFedAvg", 4: "ShardedFedAvg(4)"} {
		if got := NewShardedFedAvg(p).Name(); got != want {
			t.Fatalf("NewShardedFedAvg(%d).Name() = %q, want %q", p, got, want)
		}
	}
	if got := (&SparseFedAvg{}).Name(); got != "SparseFedAvg" {
		t.Fatalf("zero value names itself %q", got)
	}
}

// sparsify converts an update's dense params to the equivalent sparse form.
func sparsify(u *Update) *Update {
	s := *u
	s.Sparse = tensor.GatherNonzeros(nil, u.Params)
	s.Params = nil
	return &s
}

// fedAvgCase is one canned round of the bitwise pin, with the FNV-64a digest
// of SparseFedAvg's result bits captured at the last commit that still had a
// hand-written single-loop SparseFedAvg beside the sharded reducer (bc10130).
type fedAvgCase struct {
	name   string
	ups    []*Update
	digest uint64
}

// fedAvgCases builds the five round shapes the fold distinguishes, large
// enough to cross the shard fan-out threshold: all dense; sparse under one
// shared mask (every fold re-marks the same coordinates); sparse under
// independent masks (the touched set grows); independent masks whose union
// passes a quarter of the vector (the overflow to full mode); dense and
// sparse interleaved.
func fedAvgCases() []fedAvgCase {
	const n, clients = 50_000, 6
	mk := func(seed uint64, density float64, sharedMask bool, sparse func(c int) bool) []*Update {
		rng := tensor.NewRNG(seed)
		shared := make([]bool, n)
		for i := range shared {
			shared[i] = rng.Float64() < density
		}
		var ups []*Update
		for c := 0; c < clients; c++ {
			params := make([]float32, n)
			for i := range params {
				keep := shared[i]
				if !sharedMask {
					keep = rng.Float64() < density
				}
				if keep {
					params[i] = float32(rng.Norm())
				}
			}
			u := &Update{ClientID: c, Participating: true, Weight: float64(7 + 3*c), Params: params}
			if sparse(c) {
				u = sparsify(u)
			}
			ups = append(ups, u)
		}
		return ups
	}
	all := func(int) bool { return true }
	return []fedAvgCase{
		{"dense", mk(100, 1, false, func(int) bool { return false }), 0x8631de5af36fd6ec},
		{"shared-mask", mk(101, 0.10, true, all), 0xbfec0c5c010871eb},
		{"distinct-masks", mk(102, 0.03, false, all), 0xe9d1421b5e27f6b7},
		{"union-overflow", mk(103, 0.10, false, all), 0x8a1143e095720d9f},
		{"mixed", mk(104, 0.15, false, func(c int) bool { return c%2 == 1 }), 0x3a66a636e1ab4e8a},
	}
}

// digestBits is the FNV-64a hash of a vector's little-endian float32 bits.
func digestBits(v []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range v {
		u := math.Float32bits(x)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSparseFedAvgBitwise is the determinism pin of the one fold: for every
// shard count and kernel-thread budgets {1, 4}, a multi-round streaming
// sequence that walks each buffer through full → sparse → full transitions
// must reproduce, bit for bit, both the reference WeightedFedAvg (which
// densifies nothing but sweeps the whole vector) and the digests of the
// retired single-loop implementation.
func TestSparseFedAvgBitwise(t *testing.T) {
	cases := fedAvgCases()
	wants := make([][]float32, len(cases))
	for i, c := range cases {
		wants[i] = append([]float32(nil), (&WeightedFedAvg{}).Aggregate(c.ups)...)
		if got := digestBits(wants[i]); got != c.digest {
			t.Fatalf("%s: WeightedFedAvg digest %#x, want the parent-commit SparseFedAvg's %#x", c.name, got, c.digest)
		}
	}
	// Buffer A sees dense, distinct, mixed, distinct; buffer B shared,
	// overflow, shared.
	order := []int{0, 1, 2, 3, 4, 1, 2}
	for _, threads := range []int{1, 4} {
		pinKernelThreads(t, threads)
		forEachFedAvgPlan(t, func(t *testing.T, newAgg func() *SparseFedAvg) {
			agg := newAgg()
			for r, ci := range order {
				got := agg.Aggregate(cases[ci].ups)
				for i, want := range wants[ci] {
					if math.Float32bits(got[i]) != math.Float32bits(want) {
						t.Fatalf("threads=%d round %d (%s) coordinate %d: %v, want %v",
							threads, r, cases[ci].name, i, got[i], want)
					}
				}
			}
		})
	}
}

// TestSparseFedAvgStreaming drives the StreamAggregator interface the way
// the server does — BeginRound / Accumulate / FinishRound across several
// rounds — and checks round isolation: coordinates touched in one round must
// read zero in the next (the targeted re-zeroing), across both scratch
// vectors, including at more shards than coordinates.
func TestSparseFedAvgStreaming(t *testing.T) {
	rounds := [][]*Update{
		{{Participating: true, Weight: 1,
			Sparse: &tensor.SparseVec{N: 6, Indices: []int32{0, 3}, Values: []float32{2, 4}}}},
		{{Participating: true, Weight: 1,
			Sparse: &tensor.SparseVec{N: 6, Indices: []int32{1}, Values: []float32{8}}}},
		{{Participating: true, Weight: 1,
			Sparse: &tensor.SparseVec{N: 6, Indices: []int32{5}, Values: []float32{6}}}},
		{{Participating: true, Weight: 1, Params: []float32{1, 1, 1, 1, 1, 1}}},
		{{Participating: true, Weight: 1,
			Sparse: &tensor.SparseVec{N: 6, Indices: []int32{2}, Values: []float32{9}}}},
	}
	wants := [][]float32{
		{2, 0, 0, 4, 0, 0},
		{0, 8, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 6},
		{1, 1, 1, 1, 1, 1},
		{0, 0, 9, 0, 0, 0},
	}
	forEachFedAvgPlan(t, func(t *testing.T, newAgg func() *SparseFedAvg) {
		agg := newAgg()
		for r, ups := range rounds {
			agg.BeginRound()
			for _, u := range ups {
				agg.Accumulate(u)
			}
			got := agg.FinishRound()
			for i, want := range wants[r] {
				if got[i] != want {
					t.Fatalf("round %d coordinate %d = %v, want %v (stale scratch?)", r, i, got[i], want)
				}
			}
		}
		// Empty round after activity.
		agg.BeginRound()
		if got := agg.FinishRound(); got != nil {
			t.Fatalf("empty round returned %v", got)
		}
	})
}

// TestSparseFedAvgBroadcastSurvivesNextRound pins the double-buffer
// contract: the vector returned for round r must stay intact while round
// r+1 accumulates (over zero-copy loopback, clients may still be reading
// the broadcast when the next round's first update arrives) — and through
// round r+1's FinishRound, which the async commit path relies on.
func TestSparseFedAvgBroadcastSurvivesNextRound(t *testing.T) {
	forEachFedAvgPlan(t, func(t *testing.T, newAgg func() *SparseFedAvg) {
		agg := newAgg()
		first := agg.Aggregate([]*Update{{Participating: true, Weight: 1, Params: []float32{5, 6, 7}}})
		agg.BeginRound()
		agg.Accumulate(&Update{Participating: true, Weight: 1, Params: []float32{1, 2, 3}})
		second := agg.FinishRound()
		if first[0] != 5 || first[1] != 6 || first[2] != 7 {
			t.Fatalf("round-r broadcast rewritten during round r+1: %v", first)
		}
		if second[0] != 1 || second[1] != 2 || second[2] != 3 {
			t.Fatalf("second round wrong: %v", second)
		}
	})
}

// TestSparseFedAvgZeroAllocSteadyState: once the scratch is sized, further
// rounds — a shared mask, distinct masks, sparse with a dense straggler, and
// the reference WeightedFedAvg's — must not allocate at kernel width 1. (At
// any greater width tensor.Parallel spawns a goroutine and closure per chunk,
// so the sharded fan-out allocates by construction; the pin sets the width
// itself rather than trusting whatever an earlier test left behind.)
func TestSparseFedAvgZeroAllocSteadyState(t *testing.T) {
	pinKernelThreads(t, 1)
	rng := tensor.NewRNG(32)
	n := 8192
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = rng.Float64() < 0.1
	}
	w := make([]float32, n)
	for i := range w {
		w[i] = float32(rng.Norm())
	}
	other := make([]bool, n)
	for i := range other {
		other[i] = rng.Float64() < 0.1
	}
	ups := []*Update{
		{Participating: true, Weight: 3, Sparse: tensor.GatherMask(nil, w, mask)},
		{Participating: true, Weight: 2, Sparse: tensor.GatherMask(nil, w, mask)},
		{Participating: true, Weight: 1, Params: w},
		{Participating: true, Weight: 4, Sparse: tensor.GatherMask(nil, w, other)},
	}
	forEachFedAvgPlan(t, func(t *testing.T, newAgg func() *SparseFedAvg) {
		agg := newAgg()
		for _, round := range [][]*Update{ups[:2], {ups[0], ups[3]}, ups[:3]} {
			for warm := 0; warm < 4; warm++ { // both buffers, their unions and the support
				agg.Aggregate(round)
				agg.support()
			}
			allocs := testing.AllocsPerRun(50, func() {
				agg.BeginRound()
				for _, u := range round {
					agg.Accumulate(u)
				}
				agg.FinishRound()
				agg.support()
			})
			if allocs != 0 {
				t.Fatalf("steady-state aggregation of %d updates (fold, merge, support) allocates %v per round", len(round), allocs)
			}
		}
	})
	// The reference rule reuses its one scratch vector the same way.
	ref := &WeightedFedAvg{}
	ref.Aggregate(ups)
	if allocs := testing.AllocsPerRun(50, func() { ref.Aggregate(ups) }); allocs != 0 {
		t.Fatalf("steady-state WeightedFedAvg.Aggregate allocates %v per call", allocs)
	}
}

// TestFinishRoundOutlivesNextWindow pins the lifetime both schedulers commit
// on without a copy: a FinishRound result stays intact through the next
// BeginRound — also one repeated, as at a task boundary, or one closing an
// empty round — and every Accumulate, up to the next FinishRound. It holds
// for the default rule at one and four shards and for every buffered rule,
// server momentum included, on sparse and on dense updates.
func TestFinishRoundOutlivesNextWindow(t *testing.T) {
	const n, cohort, windows = 300, 5, 5
	specs := []struct {
		spec   string
		shards int
	}{
		{"fedavg", 1}, {"fedavg", 4},
		{"trimmed-mean:0", 1}, {"trimmed-mean:0.2", 1}, {"median", 1}, {"krum:1", 1},
		{"fedopt:0", 1}, {"fedopt:0.9", 1}, {"fedopt:0.5:median", 1},
	}
	for _, sc := range specs {
		for _, sparse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/shards=%d/sparse=%v", sc.spec, sc.shards, sparse), func(t *testing.T) {
				agg, err := ParseAggregator(sc.spec, sc.shards)
				if err != nil {
					t.Fatal(err)
				}
				stream := agg.(StreamAggregator)
				rng := tensor.NewRNG(34)
				fold := func() {
					for id := 0; id < cohort; id++ {
						w := make([]float32, n)
						mask := make([]bool, n)
						for i := range w {
							w[i] = float32(rng.Norm())
							mask[i] = rng.Float64() < 0.3
						}
						u := &Update{ClientID: id, Participating: true, Weight: float64(1 + id), Params: w}
						if sparse {
							u.Params, u.Sparse = nil, tensor.GatherMask(nil, w, mask)
						}
						stream.Accumulate(u)
					}
				}
				stream.BeginRound()
				fold()
				prev := stream.FinishRound()
				for win := 1; win < windows; win++ {
					want := append([]float32(nil), prev...)
					stream.BeginRound()
					switch win % 3 {
					case 1: // a task boundary opens the round twice
						stream.BeginRound()
					case 2: // an empty round (a stale-only flush) closes in between
						if g := stream.FinishRound(); g != nil {
							t.Fatalf("window %d: an empty round returned %d values", win, len(g))
						}
						stream.BeginRound()
					}
					fold()
					for i := range want {
						if math.Float32bits(prev[i]) != math.Float32bits(want[i]) {
							t.Fatalf("window %d: coordinate %d of the previous result rewritten before FinishRound: %v, was %v",
								win, i, prev[i], want[i])
						}
					}
					prev = stream.FinishRound()
				}
			})
		}
	}
}
