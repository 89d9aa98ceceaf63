// Package shard is the repo's one streaming weighted-mean fold: the
// parameter vector is index-partitioned into P contiguous shards, and every
// incoming update's subrange is folded in place into its shard's range
// [lo, hi) of a double-buffered global vector; closing the round scales each
// range by the caller's normalisation factor. One shard is the single-loop
// layout; more shards fold concurrently on the tensor.Parallel worker pool.
//
// The point of the partition is throughput without changing a single bit:
// because the shards own disjoint coordinate ranges and every kernel is
// per-coordinate independent, folding P shards concurrently performs exactly
// the arithmetic, in exactly the per-coordinate order, of the reference
// clear → Axpy → one scale loop (fed.WeightedFedAvg) — so the result is
// bitwise identical for every shard count and every thread count, and the
// fold stage scales with cores while the ingest loop stays serial only in
// arrival order.
//
// Ownership: rounds alternate between two global vectors. The vector
// returned by Merge stays intact while the next round folds and merges —
// which is what lets zero-copy loopback clients still be reading a broadcast
// when the next commit lands — and is reused by the round after that, each
// shard first re-zeroing only what its range held.
package shard

import (
	"slices"

	"repro/internal/tensor"
)

// shardParMin is the per-update work size (dense length, or stored
// coordinates) above which a fold or merge fans out over the kernel pool;
// below it the dispatch costs more than the arithmetic.
const shardParMin = 1 << 11

// Plan is the index partition: P contiguous shards covering [0, n), balanced
// to within one coordinate (the first n mod P shards are one longer). A
// contiguous partition — rather than striding — keeps every kernel a dense
// or ascending-index loop over one cache-friendly range, and makes a sparse
// update's per-shard subrange one binary search away.
type Plan struct {
	n      int
	shards int
}

// NewPlan builds the balanced contiguous partition of [0, n) into shards
// parts. shards < 1 is treated as 1; shards > n leaves the excess shards
// empty.
func NewPlan(n, shards int) Plan {
	if shards < 1 {
		shards = 1
	}
	return Plan{n: n, shards: shards}
}

// N reports the partitioned vector length.
func (p Plan) N() int { return p.n }

// Shards reports the partition's shard count.
func (p Plan) Shards() int { return p.shards }

// Bounds reports shard s's half-open coordinate range [lo, hi).
func (p Plan) Bounds(s int) (lo, hi int) {
	q, r := p.n/p.shards, p.n%p.shards
	lo = s*q + min(s, r)
	hi = lo + q
	if s < r {
		hi++
	}
	return lo, hi
}

// shardRange is one shard's range of one global buffer: what the range's
// last round left in it, which is both the open round's touched-coordinate
// record and what must be re-zeroed before the range is folded into again.
// seen lags the reducer's round counter until the shard first participates,
// which is what makes clearing lazy and parallel: it happens inside the
// shard's own fold call.
type shardRange struct {
	lo, hi int
	seen   uint64
	// full marks that the whole range participates: a dense update joined,
	// or the sparse union outgrew the point where per-coordinate bookkeeping
	// beats one sequential sweep. Scaling a zero coordinate is the identity,
	// so both modes produce the same bits.
	full  bool
	union []int32 // ascending coordinates touched (unless full)
}

// Reducer is the fold engine. Protocol, mirroring a streaming aggregator
// round: BeginRound, any number of FoldDense/FoldSparse calls (each the
// already-weighted contribution of one update), then Merge. The caller owns
// arrival order and the weight arithmetic (including the total being
// normalised by); the reducer owns the partition, the double-buffered
// global, the touched-coordinate bookkeeping and the parallel fan-out.
type Reducer struct {
	shards int
	plan   Plan
	bufs   [2][]float32
	ranges [2][]shardRange // [buffer][shard]
	cur    int
	round  uint64

	// Per-shard scratch: the union merge target (swapped with the range's
	// union), and the shard's subrange view of the sparse update being
	// folded — a field so that handing it to the kernel allocates nothing.
	mrg  [][]int32
	view []tensor.SparseVec

	winIdx  []int32 // Window sparse-export scratch
	winVals []float32

	// Pending-operation operands plus persistent range closures over them:
	// building a fresh closure per fold would allocate on every update, so
	// the hot path stays allocation-free by parking the operands in fields
	// for the duration of one dispatch. opX/opSp may alias transport decode
	// scratch and are nilled as soon as the dispatch returns.
	opW         float32 // a fold's weight, or a merge's scale
	opX         []float32
	opSp        *tensor.SparseVec
	denseRange  func(lo, hi int)
	sparseRange func(lo, hi int)
	mergeRange  func(lo, hi int)
}

// NewReducer builds a reducer with the given shard count (minimum 1). The
// partition is sized by the first fold's vector length.
func NewReducer(shards int) *Reducer {
	if shards < 1 {
		shards = 1
	}
	r := &Reducer{shards: shards}
	r.denseRange = func(lo, hi int) {
		for s := lo; s < hi; s++ {
			r.foldDenseShard(s, r.opW, r.opX)
		}
	}
	r.sparseRange = func(lo, hi int) {
		for s := lo; s < hi; s++ {
			r.foldSparseShard(s, r.opW, r.opSp)
		}
	}
	r.mergeRange = func(lo, hi int) {
		for s := lo; s < hi; s++ {
			r.mergeShard(s, r.opW)
		}
	}
	return r
}

// Shards reports the configured shard count.
func (r *Reducer) Shards() int { return r.shards }

// BeginRound opens a new round on the other global buffer (the previous
// Merge result stays intact for one more full round). What that buffer still
// holds from two rounds ago is cleared lazily, per shard, when the shard
// next participates.
func (r *Reducer) BeginRound() {
	r.cur ^= 1
	r.round++
}

// size (re)builds the partition for vector length n. Steady state — the
// length never changes within a run — this is one comparison.
func (r *Reducer) size(n int) {
	if r.plan.n == n && r.mrg != nil {
		return
	}
	r.plan = NewPlan(n, r.shards)
	r.mrg = make([][]int32, r.shards)
	r.view = make([]tensor.SparseVec, r.shards)
	for b := range r.bufs {
		r.bufs[b] = make([]float32, n)
		r.ranges[b] = make([]shardRange, r.shards)
		for s := range r.ranges[b] {
			lo, hi := r.plan.Bounds(s)
			r.ranges[b][s] = shardRange{lo: lo, hi: hi}
		}
	}
}

// join restores one range's all-zero invariant on its shard's first
// participation of the open round, clearing only what its previous round
// touched.
func (r *Reducer) join(sh *shardRange) {
	if sh.seen == r.round {
		return
	}
	buf := r.bufs[r.cur]
	if sh.full {
		clear(buf[sh.lo:sh.hi])
	} else {
		for _, j := range sh.union {
			buf[j] = 0
		}
	}
	sh.union = sh.union[:0]
	sh.full = false
	sh.seen = r.round
}

// each runs fn over every shard: fanned out over the kernel pool when there
// is more than one shard and the work is large enough to pay for the
// dispatch, inline otherwise. Shards own disjoint state, so either
// execution produces the same bits.
func (r *Reducer) each(work int, fn func(lo, hi int)) {
	if r.shards > 1 && work >= shardParMin {
		tensor.Parallel(r.shards, fn)
		return
	}
	fn(0, r.shards)
}

// FoldDense folds one dense already-weighted contribution: every shard adds
// w·x over its range — per coordinate, exactly WeightedFedAvg's Axpy.
func (r *Reducer) FoldDense(w float32, x []float32) {
	r.size(len(x))
	r.opW, r.opX = w, x
	r.each(len(x), r.denseRange)
	r.opX = nil
}

// foldDenseShard folds one shard's range of a dense contribution.
func (r *Reducer) foldDenseShard(s int, w float32, x []float32) {
	sh := &r.ranges[r.cur][s]
	r.join(sh)
	tensor.AxpySlice(r.bufs[r.cur][sh.lo:sh.hi], w, x[sh.lo:sh.hi])
	sh.full = true
}

// FoldSparse folds one sparse already-weighted contribution: each shard
// locates its contiguous subrange of the ascending index list by binary
// search and folds only that, maintaining its range's touched-coordinate
// union. A shard with no coordinate in range does not participate.
func (r *Reducer) FoldSparse(w float32, x *tensor.SparseVec) {
	r.size(x.N)
	r.opW, r.opSp = w, x
	r.each(len(x.Indices), r.sparseRange)
	r.opSp = nil
}

// foldSparseShard folds one shard's subrange of a sparse contribution.
func (r *Reducer) foldSparseShard(s int, w float32, x *tensor.SparseVec) {
	sh := &r.ranges[r.cur][s]
	i0 := tensor.SearchInt32(x.Indices, int32(sh.lo))
	i1 := i0 + tensor.SearchInt32(x.Indices[i0:], int32(sh.hi))
	if i0 == i1 {
		return
	}
	r.join(sh)
	idx := x.Indices[i0:i1]
	v := &r.view[s]
	*v = tensor.SparseVec{N: x.N, Indices: idx, Values: x.Values[i0:i1]}
	tensor.AxpySparse(r.bufs[r.cur], w, v)
	*v = tensor.SparseVec{}
	if sh.full {
		return
	}
	// Clients sharing one prune mask (the coordinated-sparsity regime) send
	// identical index lists: detect that with one cheap scan and skip the
	// branchier merge. When clients prune independently the union keeps
	// growing; past a quarter of the range, one sequential full sweep is
	// cheaper than per-coordinate bookkeeping, so stop tracking.
	if !slices.Equal(sh.union, idx) {
		r.mrg[s] = tensor.MergeIndices(r.mrg[s], sh.union, idx)
		sh.union, r.mrg[s] = r.mrg[s], sh.union
		if len(sh.union)*4 > sh.hi-sh.lo {
			sh.full = true
		}
	}
}

// Merge closes the round: every shard scales its range of the open buffer
// by scale — the whole range when full, only the touched coordinates
// otherwise — after a shard that sat the round out has re-zeroed what its
// range still held. Concurrent execution is indistinguishable from the
// ascending loop because the ranges are disjoint. The returned vector
// aliases the reducer's double-buffered scratch: it stays intact through the
// whole next round and is rewritten by the round after that.
func (r *Reducer) Merge(scale float32) []float32 {
	if r.mrg == nil {
		return nil // nothing was ever folded
	}
	r.opW = scale
	r.each(r.plan.n, r.mergeRange)
	return r.bufs[r.cur]
}

// mergeShard normalises one shard's range in place.
func (r *Reducer) mergeShard(s int, scale float32) {
	sh := &r.ranges[r.cur][s]
	r.join(sh)
	if !sh.full {
		tensor.ScaleIndexed(r.bufs[r.cur], scale, sh.union)
		return
	}
	// Unrolled like tensor.AxpySlice: the one-statement loop is core-bound
	// and its speed swings ~30 % with where the linker happens to align it.
	seg := r.bufs[r.cur][sh.lo:sh.hi]
	for len(seg) >= 4 {
		seg[0] *= scale
		seg[1] *= scale
		seg[2] *= scale
		seg[3] *= scale
		seg = seg[4:]
	}
	for i := range seg {
		seg[i] *= scale
	}
}

// Window exports the open round's raw (unscaled) partial accumulation for a
// durable mid-window snapshot. When any shard runs in full mode the export
// is dense: idx is nil and vals is the whole partial vector. Otherwise idx
// holds the ascending union of touched coordinates across shards and vals
// their partial sums. Both returns alias reducer scratch valid until the
// next fold, merge, or Window call.
func (r *Reducer) Window() (idx []int32, vals []float32, dense bool) {
	buf := r.bufs[r.cur]
	r.winIdx, r.winVals = r.winIdx[:0], r.winVals[:0]
	for s := range r.ranges[r.cur] {
		// A shard that has not participated joins empty-handed, so the dense
		// export below reads zeros — not the round before last — in its range.
		sh := &r.ranges[r.cur][s]
		r.join(sh)
		dense = dense || sh.full
		r.winIdx = append(r.winIdx, sh.union...)
		for _, j := range sh.union {
			r.winVals = append(r.winVals, buf[j])
		}
	}
	if dense {
		return nil, buf, true
	}
	return r.winIdx, r.winVals, false
}

// RestoreWindow reinstates a partial accumulation captured by Window into a
// freshly begun round (call BeginRound first): subsequent folds stack on top
// of the restored partials exactly as they would have on the uninterrupted
// originals. A dense capture (idx nil, len(vals) == n) restores every shard
// in full mode; a sparse capture restores each shard's union subrange.
func (r *Reducer) RestoreWindow(n int, idx []int32, vals []float32, dense bool) {
	r.size(n)
	buf := r.bufs[r.cur]
	for s := range r.ranges[r.cur] {
		sh := &r.ranges[r.cur][s]
		r.join(sh)
		if dense {
			copy(buf[sh.lo:sh.hi], vals[sh.lo:sh.hi])
			sh.full = true
			continue
		}
		i0 := tensor.SearchInt32(idx, int32(sh.lo))
		i1 := i0 + tensor.SearchInt32(idx[i0:], int32(sh.hi))
		for i := i0; i < i1; i++ {
			buf[idx[i]] = vals[i]
		}
		sh.union = append(sh.union, idx[i0:i1]...)
		sh.full = len(sh.union)*4 > sh.hi-sh.lo
	}
}
