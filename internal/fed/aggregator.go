package fed

import (
	"fmt"

	"repro/internal/shard"
	"repro/internal/tensor"
)

// Aggregator combines one round's participating client updates into the
// global flat parameter vector. Implementations receive updates ordered by
// client ID (the order that makes floating-point aggregation reproducible)
// and may return a slice aliasing internal scratch: the server guarantees
// the result is consumed before the next Aggregate call.
type Aggregator interface {
	// Name identifies the aggregation rule in reports.
	Name() string
	// Aggregate reduces the updates to a global vector, or nil when the
	// round had no participants.
	Aggregate(updates []*Update) []float32
}

// StreamAggregator is an Aggregator that can reduce a round incrementally:
// the server folds each update into the global scratch the moment it is
// decoded (still in ascending-client-ID order) instead of buffering per-
// client copies, so server memory and latency stay flat as the federation
// grows. An update passed to Accumulate may alias transport decode buffers
// and is only valid for the duration of the call.
type StreamAggregator interface {
	Aggregator
	// BeginRound resets the round state.
	BeginRound()
	// Accumulate folds one participating update into the round.
	Accumulate(u *Update)
	// FinishRound completes the reduction and returns the global vector, or
	// nil when no update was accumulated. The result may alias internal
	// scratch rewritten by the next round.
	FinishRound() []float32
}

// WeightedFedAvg is §III-A's aggregation rule: the sample-count-weighted
// average of the participants' parameter vectors. A zero weight counts as
// one so an empty-shard client still participates. The accumulation order
// (ascending client ID, Axpy then one scale) is part of the contract — it
// is what keeps results bitwise reproducible across transports and
// parallelism settings.
type WeightedFedAvg struct {
	buf []float32 // global scratch, reused every round
}

// Name identifies the aggregation rule.
func (a *WeightedFedAvg) Name() string { return "WeightedFedAvg" }

// Aggregate computes the weighted average into reused scratch.
func (a *WeightedFedAvg) Aggregate(updates []*Update) []float32 {
	var total float64
	var global []float32
	for _, u := range updates {
		w := u.Weight
		if w == 0 {
			w = 1
		}
		total += w
		if global == nil {
			n := u.ParamLen()
			if cap(a.buf) < n {
				a.buf = make([]float32, n)
			}
			global = a.buf[:n]
			clear(global)
		}
		if u.Sparse != nil {
			tensor.AxpySparse(global, float32(w), u.Sparse)
		} else {
			tensor.AxpySlice(global, float32(w), u.Params)
		}
	}
	if global == nil {
		return nil
	}
	inv := float32(1 / total)
	for i := range global {
		global[i] *= inv
	}
	return global
}

// SparseFedAvg is WeightedFedAvg as a StreamAggregator: the server default.
// It keeps only the weight arithmetic — a zero weight counts as one, the
// total accumulates in float64 arrival order, the round is scaled once by
// float32(1/total) — and hands every already-weighted update to the repo's
// one fold engine (internal/shard), which owns the double-buffered global,
// the touched-coordinate bookkeeping that makes an all-sparse round cost
// O(active knowledge), and the -shards fan-out. Per coordinate the engine
// performs WeightedFedAvg's clear → Axpy → one scale in the same order, so
// the two are bitwise interchangeable for every shard and thread count.
//
// The zero value is the 1-shard (single-loop) plan; NewShardedFedAvg picks
// the shard count. The FinishRound result stays intact through the whole
// next round: over the zero-copy loopback transport a streaming reducer
// starts writing when the next round's first update is decoded, which can be
// before every participant has consumed the previous broadcast.
type SparseFedAvg struct {
	r     *shard.Reducer // nil until the first round: one shard
	total float64
	count int
}

// NewShardedFedAvg builds the streaming aggregator at the given shard count
// (minimum 1, the zero value's single-loop layout).
func NewShardedFedAvg(shards int) *SparseFedAvg {
	return &SparseFedAvg{r: shard.NewReducer(shards)}
}

// Shards reports the fold's shard count.
func (a *SparseFedAvg) Shards() int {
	if a.r == nil {
		return 1
	}
	return a.r.Shards()
}

// Name identifies the aggregation rule, and its shard count above one.
func (a *SparseFedAvg) Name() string {
	if p := a.Shards(); p > 1 {
		return fmt.Sprintf("ShardedFedAvg(%d)", p)
	}
	return "SparseFedAvg"
}

// BeginRound opens a fresh round and resets the weight bookkeeping.
func (a *SparseFedAvg) BeginRound() {
	if a.r == nil {
		a.r = shard.NewReducer(1)
	}
	a.r.BeginRound()
	a.total, a.count = 0, 0
}

// Accumulate folds one participating update into the round.
func (a *SparseFedAvg) Accumulate(u *Update) {
	w := u.Weight
	if w == 0 {
		w = 1
	}
	a.total += w
	a.count++
	if u.Sparse != nil {
		a.r.FoldSparse(float32(w), u.Sparse)
		return
	}
	a.r.FoldDense(float32(w), u.Params)
}

// FinishRound normalises the round by the accumulated weight; nil when no
// update was accumulated.
func (a *SparseFedAvg) FinishRound() []float32 {
	if a.count == 0 {
		return nil
	}
	return a.r.Merge(float32(1 / a.total))
}

// Aggregate implements the buffered Aggregator interface in terms of the
// streaming one.
func (a *SparseFedAvg) Aggregate(updates []*Update) []float32 {
	a.BeginRound()
	for _, u := range updates {
		a.Accumulate(u)
	}
	return a.FinishRound()
}

// windowState exports the open commit window's raw partial accumulation
// (windowedAggregator).
func (a *SparseFedAvg) windowState() (idx []int32, vals []float32, dense bool, total float64) {
	idx, vals, dense = a.r.Window()
	return idx, vals, dense, a.total
}

// restoreWindow reinstates a captured open window after BeginRound
// (windowedAggregator).
func (a *SparseFedAvg) restoreWindow(n int, idx []int32, vals []float32, dense bool, total float64, count int) {
	a.r.RestoreWindow(n, idx, vals, dense)
	a.total, a.count = total, count
}
