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
// arrival order. A dense fold that opens its range's round writes 0 + w·x
// over what the range held instead of clearing it first (the kernels' write
// form, the clear and the add in one pass), and a dense operand may be the
// little-endian float32 run it arrived as (FoldDenseLE), folded with no
// decode.
//
// Touched coordinates: each shard's range of each global vector carries a
// bitmap of the coordinates sparse folds reached this round. A fold sets
// bits and counts the new ones, which is what switches the range to a full
// sweep past a quarter of it. Merge walks the bitmap once into the ascending
// union, scales exactly those coordinates, and keeps the list: it is the
// merged vector's support (Support) — every coordinate outside it holds +0 —
// and it is what the lazy clear re-zeroes when the buffer comes round again.
//
// Ownership: rounds alternate between two global vectors. The vector
// returned by Merge stays intact through every BeginRound and fold until the
// next Merge returns — which is what lets the server keep it as the committed
// global, with no copy, for a whole commit window — and is reused by the
// round after that, each shard first re-zeroing only what its range held. A
// round that ends without a Merge (abandoned, or opened twice) keeps its
// buffer, so idle rounds never reach the published vector.
package shard

import (
	"math/bits"
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
// shard's own fold call, and not at all when that fold is dense.
type shardRange struct {
	lo, hi int
	seen   uint64
	// full marks that the whole range participates: a dense update joined,
	// or the sparse union outgrew the point where per-coordinate bookkeeping
	// beats one sequential sweep. Scaling a zero coordinate is the identity,
	// so both modes produce the same bits. A full range stops marking, so its
	// bitmap and union mean nothing until the clear resets them.
	full bool
	// bits has bit j−lo set for every coordinate j a sparse fold reached this
	// round; count is how many are set. The bitmap is the open round's
	// record: folds, Window and RestoreWindow read and write only it. It is
	// allocated by the range's first sparse fold.
	bits  []uint64
	count int
	// union is the bitmap as an ascending list, built by Merge (listed) and
	// kept until the clear that ends the range's round re-zeroes exactly
	// those coordinates. A round abandoned before its Merge is listed by the
	// clear itself.
	union  []int32
	listed bool
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
	// merged marks that bufs[cur] holds the last Merge result: the next
	// BeginRound moves to the other buffer instead of folding over it.
	merged bool

	// view is each shard's subrange view of the sparse update being folded
	// — a field so that handing it to the kernel allocates nothing.
	view []tensor.SparseVec

	support []int32 // Support's concatenation of the shard unions (shards > 1)
	winIdx  []int32 // Window sparse-export scratch
	winVals []float32

	// Pending-operation operands plus persistent range closures over them:
	// building a fresh closure per fold would allocate on every update, so
	// the hot path stays allocation-free by parking the operands in fields
	// for the duration of one dispatch. opX/opLE/opSp may alias transport
	// frame or decode scratch and are nilled as soon as the dispatch returns.
	opW         float32 // a fold's weight, or a merge's scale
	opX         []float32
	opLE        []byte // a dense operand as a little-endian float32 run
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
			r.foldDenseShard(s)
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

// BeginRound opens a new round: on the other global buffer when the open one
// holds the last Merge result (which stays intact until the next Merge), on
// the same one when its round ended unmerged. What the buffer still holds is
// cleared lazily, per shard, when the shard next participates.
func (r *Reducer) BeginRound() {
	if r.merged {
		r.cur ^= 1
		r.merged = false
	}
	r.round++
}

// size (re)builds the partition for vector length n. Steady state — the
// length never changes within a run — this is one comparison.
func (r *Reducer) size(n int) {
	if r.plan.n == n && r.view != nil {
		return
	}
	r.plan = NewPlan(n, r.shards)
	r.view = make([]tensor.SparseVec, r.shards)
	// The lists start empty but non-nil: an empty support is a claim (every
	// coordinate is +0), a nil one is none.
	r.support = []int32{}
	for b := range r.bufs {
		r.bufs[b] = make([]float32, n)
		r.ranges[b] = make([]shardRange, r.shards)
		for s := range r.ranges[b] {
			lo, hi := r.plan.Bounds(s)
			r.ranges[b][s] = shardRange{lo: lo, hi: hi, union: []int32{}}
		}
	}
}

// join opens the round on one range at its shard's first participation and
// reports whether it did. A range the caller is about to write whole (write:
// a dense fold's write form) is left as it is; any other gets its all-zero
// invariant back, clearing only what its previous round touched.
func (r *Reducer) join(sh *shardRange, write bool) bool {
	if sh.seen == r.round {
		return false
	}
	if !write {
		buf := r.bufs[r.cur]
		if sh.full {
			clear(buf[sh.lo:sh.hi])
		} else {
			for _, j := range sh.list() {
				buf[j] = 0
			}
		}
	}
	clear(sh.bits)
	sh.count, sh.full, sh.listed = 0, false, false
	sh.seen = r.round
	return true
}

// mark sets the bits of a sparse fold's coordinates (ascending, inside the
// range), counts the ones that were not set yet, and switches the range to
// full once the touched set passes a quarter of it — from there one
// sequential sweep is cheaper than per-coordinate bookkeeping.
func (sh *shardRange) mark(idx []int32) {
	if sh.bits == nil { // a range only dense updates reach never needs one
		sh.bits = make([]uint64, (sh.hi-sh.lo+63)/64)
	}
	set, lo, added := sh.bits, uint(sh.lo), 0
	for _, j := range idx {
		b := uint(j) - lo
		w := set[b>>6]
		added += int(^w >> (b & 63) & 1)
		set[b>>6] = w | 1<<(b&63)
	}
	sh.count += added
	sh.full = sh.count*4 > sh.hi-sh.lo
}

// list returns the range's touched coordinates in ascending order, walking
// the bitmap into union unless this round's list is already there.
func (sh *shardRange) list() []int32 {
	if !sh.listed {
		sh.union = appendBits(slices.Grow(sh.union[:0], sh.count), sh.bits, sh.lo)
		sh.listed = true
	}
	return sh.union
}

// appendBits appends lo+i for every set bit i of set to dst, ascending.
func appendBits(dst []int32, set []uint64, lo int) []int32 {
	for w, word := range set {
		base := int32(lo + w<<6)
		for word != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
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

// FoldDenseLE is FoldDense with x the little-endian float32 run of 4n bytes
// it arrived as (the wire's dense params block): every shard folds its range
// straight from the run, bit for bit FoldDense of the decoded vector.
func (r *Reducer) FoldDenseLE(w float32, x []byte) {
	n := len(x) / 4
	r.size(n)
	r.opW, r.opLE = w, x
	r.each(n, r.denseRange)
	r.opLE = nil
}

// foldDenseShard folds one shard's range of the dense operand, opLE when it
// is set and opX otherwise. The range's first participation of the round
// writes 0 + w·x over what it held, which is bit for bit clearing it and
// adding; later ones add.
func (r *Reducer) foldDenseShard(s int) {
	sh := &r.ranges[r.cur][s]
	dst, w, lo, hi := r.bufs[r.cur][sh.lo:sh.hi], r.opW, sh.lo, sh.hi
	write := r.join(sh, true)
	switch {
	case r.opLE != nil && write:
		tensor.AxpyWriteFloat32sLE(dst, w, r.opLE[4*lo:4*hi])
	case r.opLE != nil:
		tensor.AxpyFloat32sLE(dst, w, r.opLE[4*lo:4*hi])
	case write:
		tensor.AxpyWriteSlice(dst, w, r.opX[lo:hi])
	default:
		tensor.AxpySlice(dst, w, r.opX[lo:hi])
	}
	sh.full = true
}

// FoldSparse folds one sparse already-weighted contribution: each shard
// locates its contiguous subrange of the ascending index list by binary
// search and folds only that, marking the coordinates in its range's bitmap.
// A shard with no coordinate in range does not participate.
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
	r.join(sh, false)
	idx := x.Indices[i0:i1]
	v := &r.view[s]
	*v = tensor.SparseVec{N: x.N, Indices: idx, Values: x.Values[i0:i1]}
	tensor.AxpySparse(r.bufs[r.cur], w, v)
	*v = tensor.SparseVec{}
	if !sh.full {
		sh.mark(idx)
	}
}

// Merge closes the round: every shard scales its range of the open buffer
// by scale — the whole range when full, otherwise only the touched
// coordinates, listed from its bitmap — after a shard that sat the round out
// has re-zeroed what its range still held. Concurrent execution is
// indistinguishable from the ascending loop because the ranges are disjoint.
// The returned vector aliases the reducer's double-buffered scratch: it
// stays intact through every BeginRound and fold until the next Merge
// returns, and is rewritten by the round after that.
func (r *Reducer) Merge(scale float32) []float32 {
	if r.view == nil {
		return nil // nothing was ever folded
	}
	r.opW = scale
	r.each(r.plan.n, r.mergeRange)
	r.merged = true
	return r.bufs[r.cur]
}

// mergeShard normalises one shard's range in place.
func (r *Reducer) mergeShard(s int, scale float32) {
	sh := &r.ranges[r.cur][s]
	r.join(sh, false)
	if !sh.full {
		tensor.ScaleIndexed(r.bufs[r.cur], scale, sh.list())
		return
	}
	tensor.ScaleSlice(r.bufs[r.cur][sh.lo:sh.hi], scale)
}

// Support reports the support of the vector the last Merge returned: the
// ascending list of coordinates any sparse fold of its round reached. Every
// coordinate outside it holds +0 bits; one inside may still hold a zero (an
// exact cancellation). It is nil — no claim — when a shard ran full, and
// also when the open round has not been merged, so it must be read before
// the next BeginRound. The list aliases reducer scratch valid until the next
// Merge or Support call.
func (r *Reducer) Support() []int32 {
	rs := r.ranges[r.cur]
	for i := range rs {
		// Merge lists every range of its round except the full ones.
		if !rs[i].listed || rs[i].seen != r.round {
			return nil
		}
	}
	if len(rs) == 1 {
		return rs[0].union
	}
	r.support = r.support[:0]
	for i := range rs {
		r.support = append(r.support, rs[i].union...)
	}
	return r.support
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
		r.join(sh, false)
		if sh.full {
			dense = true
			continue
		}
		at := len(r.winIdx)
		r.winIdx = appendBits(r.winIdx, sh.bits, sh.lo)
		for _, j := range r.winIdx[at:] {
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
// in full mode; a sparse capture marks each shard's subrange in its bitmap.
func (r *Reducer) RestoreWindow(n int, idx []int32, vals []float32, dense bool) {
	r.size(n)
	buf := r.bufs[r.cur]
	for s := range r.ranges[r.cur] {
		sh := &r.ranges[r.cur][s]
		r.join(sh, dense)
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
		sh.mark(idx[i0:i1])
	}
}
