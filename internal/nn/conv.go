package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over CNHW batches (InC, N, H, W), lowered
// batch-wide: tensor.Im2Col writes the batch into one (InC·K·K) × (N·spatial)
// column matrix row by row (image i owns columns [i·spatial, (i+1)·spatial)
// of every row), and each pass is a single GEMM per group against it —
// forward Y = W × cols, weight gradient dWᵀ = cols × dYᵀ (added into W.Grad
// transposed), input gradient dcols = Wᵀ × dY, which tensor.Col2Im raises
// back onto dX. Y, dY and dX are CNHW too, which is the GEMM's own
// channel-major layout: the forward product is written straight into the
// output and the input-gradient product reads dY where it lies. Groups splits
// input and output channels into independent groups (groups == InC == OutC
// gives a depthwise convolution).
//
// Dead channels. The layer does work only for the channels that hold data. A
// channel is dead when every one of its elements across the batch compares
// == 0 (so ±0 is dead; a NaN or an Inf keeps its channel alive), and the
// layer finds that out itself on every pass — the input channels of x in
// Forward, the rows of dY in backward — by a scan that leaves a live channel
// at its first non-zero; nothing is declared to it and nothing tunes it. When
// every channel is alive — every step of a dense model — the three products
// are the ones above on W and dY themselves. When some are dead — after the
// BatchNorm of a FedKNOW knowledge model, whose dropped scales make most
// channels exactly 0·x̂ + 0, or behind a masked or dead unit — then
//
//   - Forward lowers only the live input channels, into a column matrix of
//     that many slots, and multiplies it by the matching columns of W;
//   - backward computes dWᵀ for (tap of a live input channel, live dY row)
//     alone and adds it into W.Grad at those places, and dB for live rows;
//   - dcols is the product of the live rows of W and of dY (gathered), and
//     only those of its rows that some live row of W has a non-zero weight for
//     are cleared, computed and raised (the others would be +0 and
//     tensor.Col2Im leaves them out; every plane of dX is still cleared).
//
// The gathered columns or rows of W and the compact dW sit in one buffer the
// layer owns, no larger than W. What is left out is a term with an
// exactly-zero factor: for finite weights and activations fma(w, 0, c) = c,
// so every element of Y, dW, dB and dX keeps its bits (the sign of a zero
// aside), the surviving terms keeping their order — tensor.GemmPart's
// argument, which is also why the three products name the volume of the
// whole product: a few live channels of a large layer can fall below the size
// at which tensor.Gemm switches from its fused kernels to an unfused loop,
// and must not. The condition is finiteness: a dead channel under an Inf or
// NaN weight no longer yields a NaN. A grouped convolution takes every
// channel as alive (its products are per group and the zoo's are
// small-volume direct loops).
//
// The weight gradient takes dY pixel-major (N·spatial × OutC), the one copy
// of dY the layer makes (tensor.TransposeRows, eight rows by eight pixels in
// registers at a time). The lowering parallelises over the live input
// channels, the raising over all of them (a channel owns its K·K rows of the
// matrix and its run of planes of dX, and all its taps are summed by one
// worker in one order), the pixel-major copy over pixels, and the GEMMs over
// disjoint blocks of C whose placement no element's value depends on; the
// scans, gathers and the transposed add of dW are serial. So every output
// element has one accumulation order whatever the thread count. All three
// products run on tensor.Gemm's outer-product form, and none packs an
// operand: as B, cols, dY and pixel-major dY have n-contiguous rows, and
// op(A) is read through strides, which takes Wᵀ in place and cols as it is.
// The weight gradient's cols is an activation, so that product skips the
// sparse-A sample (tensor.GemmPartDense). Every product writes its output
// (the GEMM's write form, β = 0) rather than adding onto a cleared buffer —
// Y, each block of dWᵀ, and dcols when every channel is alive — so no buffer
// is cleared before a product. Its chains start from +0 in registers, with
// the bits of chains started from a buffer cleared to +0.
//
// The column matrix, the output and the input gradient are retained on the
// layer and reused; the gathered rows of dY, the pixel-major dY, a block of
// dWᵀ and the column gradient live only inside one call and come from a pool
// every layer shares.
// Steady-state training therefore performs no heap allocations.
type Conv2D struct {
	InC, OutC, K, Stride, Pad, Groups int
	Bias                              bool
	W                                 *Param // (OutC, InC/Groups * K * K)
	B                                 *Param // (OutC), nil when Bias is false

	cols     []float32 // column matrix of the live input channels, kept for the backward pass
	liveIn   []int     // input channels alive in the last Forward, ascending
	lastN    int
	lastInH  int
	lastInW  int
	lastOutH int
	lastOutW int
	flops    float64

	liveOut []int     // rows of dY alive in the running backward, ascending
	part    []float32 // gathered W or compact dW while some channel is dead; at most len(W)
	taps    []bool    // rows of dcols to raise in the running backward; empty for all

	yBuf  *tensor.Tensor // forward output, reused
	dxBuf *tensor.Tensor // backward input-gradient, reused
}

// scratchPool holds the call-scoped conv buffers (the gathered and the
// pixel-major dY, a block of dWᵀ and the column gradient). One pool serves
// every layer of every model, so a network pays for its largest layer once
// instead of once per layer.
// Pointers are pooled to avoid boxing slice headers.
var scratchPool = sync.Pool{New: func() any { return new([]float32) }}

// getScratch returns a pooled buffer resized to n floats, contents undefined.
func getScratch(n int) *[]float32 {
	p := scratchPool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

// NewConv2D declares a convolution with Kaiming-normal weights and a zero
// bias; Bind gives it storage and draws the weights.
func NewConv2D(name string, inC, outC, k, stride, pad, groups int, bias bool) *Conv2D {
	if inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: conv groups %d must divide inC %d and outC %d", groups, inC, outC))
	}
	fanIn := inC / groups * k * k
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, Groups: groups,
		Bias: bias, W: declare(name+".w", kaimingNormal(fanIn), outC, fanIn)}
	if bias {
		c.B = declare(name+".b", initRule{kind: zeros}, outC)
	}
	return c
}

// split runs fn over [0, n) on the kernel pool: n is the live input channels
// for lower, all of them for raise and N·spatial for pixelMajor. Every fn
// writes only its own range's regions, so the split never shows in a result.
// The single-threaded path builds no closure and so allocates nothing.
func (c *Conv2D) split(n int, fn func(c *Conv2D, a, b []float32, lo, hi int), a, b []float32) {
	if n > 1 && tensor.KernelThreads() > 1 {
		tensor.Parallel(n, func(lo, hi int) { fn(c, a, b, lo, hi) })
	} else {
		fn(c, a, b, 0, n)
	}
}

// Forward convolves a CNHW batch of shape (InC, N, H, W) into (OutC, N,
// outH, outW).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[0] != c.InC {
		panic(fmt.Sprintf("nn: conv input shape %v, want (%d,N,H,W)", x.Shape, c.InC))
	}
	n, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, c.K, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(w, c.K, c.Stride, c.Pad)
	c.lastN, c.lastInH, c.lastInW, c.lastOutH, c.lastOutW = n, h, w, outH, outW
	kk := c.K * c.K
	gOut := c.OutC / c.Groups
	fanIn := c.InC / c.Groups * kk
	ns := n * outH * outW

	c.liveIn = c.liveChannels(c.liveIn[:0], x.Data, c.InC, n*h*w)
	live := len(c.liveIn)
	liveFan := live / c.Groups * kk // per group: a grouped conv is all alive
	if need := live * kk * ns; cap(c.cols) < need {
		c.cols = make([]float32, need)
	} else {
		c.cols = c.cols[:need]
	}
	c.split(live, (*Conv2D).lower, c.cols, x.Data)

	c.yBuf = tensor.Ensure(c.yBuf, c.OutC, n, outH, outW)
	y := c.yBuf.Data
	wt := c.W.W.Data
	if live < c.InC {
		wt = c.gatherTaps()
	}
	for g := 0; g < c.Groups; g++ {
		tensor.GemmPart(y[g*gOut*ns:(g+1)*gOut*ns], wt[g*gOut*liveFan:(g+1)*gOut*liveFan],
			c.cols[g*liveFan*ns:(g+1)*liveFan*ns], gOut, liveFan, ns, false, gOut*fanIn*ns, true)
	}
	if c.Bias {
		for oc, b := range c.B.W.Data {
			row := y[oc*ns : (oc+1)*ns]
			for j := range row {
				row[j] += b
			}
		}
	}

	c.flops = 2 * float64(c.OutC) * float64(fanIn) * float64(ns)
	return c.yBuf
}

// liveScan appends to dst, in ascending order, the channels of the CNHW batch
// x (ch runs of run floats) that hold anything but ±0. It is a variable only
// so that this package's tests can put "every channel is alive" in its place
// and hold the layer to itself; nothing else assigns it.
var liveScan = func(dst []int, x []float32, ch, run int) []int {
	for k := 0; k < ch; k++ {
		if anyNonZero(x[k*run : (k+1)*run]) {
			dst = append(dst, k)
		}
	}
	return dst
}

// anyNonZero reports whether p holds an element that does not compare == 0.
// Eight elements are tested at once: shifting the sign out of their or-ed bit
// patterns leaves zero exactly when all eight are ±0, so a live run is left at
// its first group and a dead one costs one pass without a branch per element.
func anyNonZero(p []float32) bool {
	for ; len(p) >= 8; p = p[8:] {
		q := p[:8]
		bits := math.Float32bits(q[0]) | math.Float32bits(q[1]) | math.Float32bits(q[2]) | math.Float32bits(q[3]) |
			math.Float32bits(q[4]) | math.Float32bits(q[5]) | math.Float32bits(q[6]) | math.Float32bits(q[7])
		if bits<<1 != 0 {
			return true
		}
	}
	for _, v := range p {
		if v != 0 {
			return true
		}
	}
	return false
}

// liveChannels returns in dst the channels of the CNHW batch x (ch runs of
// run floats) that are alive, in ascending order: all of them for a grouped
// convolution.
func (c *Conv2D) liveChannels(dst []int, x []float32, ch, run int) []int {
	if cap(dst) < ch {
		dst = make([]int, 0, ch) // once: a later, livelier batch must not grow it
	}
	if c.Groups > 1 {
		for k := 0; k < ch; k++ {
			dst = append(dst, k)
		}
		return dst
	}
	return liveScan(dst, x, ch, run)
}

// partBuf returns n floats of the layer's own buffer, which holds one of the
// gathered columns of W (Forward), the compact dW and the gathered rows of W
// (backward, one after the other). It grows to the largest part the layer has
// met, as cols does, and no part is larger than W.
func (c *Conv2D) partBuf(n int) []float32 {
	if cap(c.part) < n {
		c.part = make([]float32, n)
	}
	return c.part[:n]
}

// gatherTaps returns W with only the columns of the live input channels:
// OutC rows of len(liveIn)·K·K weights, in the order of the column matrix's
// slots.
func (c *Conv2D) gatherTaps() []float32 {
	kk := c.K * c.K
	fanIn, liveFan := c.InC*kk, len(c.liveIn)*kk
	dst := c.partBuf(c.OutC * liveFan)
	for oc := 0; oc < c.OutC; oc++ {
		row := c.W.W.Data[oc*fanIn : (oc+1)*fanIn]
		for j, ch := range c.liveIn {
			copy(dst[oc*liveFan+j*kk:oc*liveFan+(j+1)*kk], row[ch*kk:(ch+1)*kk])
		}
	}
	return dst
}

// lower writes the live input channels in slots [lo, hi) of the column matrix
// from the batch x.
func (c *Conv2D) lower(cols, x []float32, lo, hi int) {
	tensor.Im2Col(cols, x, c.lastN, c.lastInH, c.lastInW, c.K, c.K, c.Stride, c.Pad,
		c.lastOutH, c.lastOutW, c.liveIn, lo, hi)
}

// raise is lower's adjoint: input channels [lo, hi) of the input gradient are
// rebuilt from those of their rows of the column gradient that c.taps keeps,
// which it only reads.
func (c *Conv2D) raise(dx, dcols []float32, lo, hi int) {
	tensor.Col2Im(dx, dcols, c.lastN, c.lastInH, c.lastInW, c.K, c.K, c.Stride, c.Pad,
		c.lastOutH, c.lastOutW, lo, hi, c.taps)
}

// BackwardParamsOnly accumulates dW (and dB) without producing the input
// gradient: the column-gradient GEMM and the col2im adjoint are skipped
// entirely. Used for the first layer of a network, whose dX nobody consumes.
func (c *Conv2D) BackwardParamsOnly(dout *tensor.Tensor) { c.backward(dout, false) }

// Backward accumulates dW (and dB) and returns dX via the col2im adjoint.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	c.backward(dout, true)
	return c.dxBuf
}

// backward runs the batch-wide gradient GEMMs. The column gradient is
// call-scoped scratch that raise reads; cols, which the 1 + k weight-gradient
// products of a FedKNOW step read, is never written after Forward.
//
// The operands are W and dY themselves unless a channel is dead: then the
// live rows of dY are gathered, dW is computed for them and the live input
// taps alone, and dcols comes from the live rows of W. No live row leaves dW
// and dB untouched and dX zero; no live input channel leaves dW untouched.
func (c *Conv2D) backward(dout *tensor.Tensor, needDX bool) {
	kk := c.K * c.K
	gOut := c.OutC / c.Groups
	fanIn := c.InC / c.Groups * kk
	ns := c.lastN * c.lastOutH * c.lastOutW
	vol := gOut * fanIn * ns

	c.liveOut = c.liveChannels(c.liveOut[:0], dout.Data, c.OutC, ns)
	rows := len(c.liveOut)
	gRows := rows / c.Groups // per group: a grouped conv is all alive
	c.weightGrad(dout.Data, vol)

	if needDX {
		dy, wt := dout.Data, c.W.W.Data
		var live *[]float32
		c.taps = c.taps[:0]
		if rows < c.OutC {
			live = getScratch(rows * ns)
			for j, oc := range c.liveOut {
				copy((*live)[j*ns:(j+1)*ns], dy[oc*ns:(oc+1)*ns])
			}
			dy, wt = *live, c.gatherRows()
		}
		dcols := getScratch(c.InC * kk * ns)
		for r, on := range c.taps {
			if on {
				clear((*dcols)[r*ns : (r+1)*ns])
			}
		}
		write := len(c.taps) == 0
		for g := 0; g < c.Groups; g++ {
			// dcols = Wᵀ × dY → (fanIn, N·spatial), k = gRows: W is read in place.
			// With every channel alive the product writes all of dcols. With
			// some dead it accumulates onto the rows in c.taps, cleared above:
			// a row outside them gets no term on the sparse route and
			// arithmetic on stale scratch on the dense one, and raise reads
			// neither, so clearing all of dcols would be wasted.
			tensor.GemmPart((*dcols)[g*fanIn*ns:(g+1)*fanIn*ns], wt[g*gRows*fanIn:(g+1)*gRows*fanIn],
				dy[g*gRows*ns:(g+1)*gRows*ns], fanIn, gRows, ns, true, vol, write)
		}
		if live != nil {
			scratchPool.Put(live)
		}
		c.dxBuf = tensor.Ensure(c.dxBuf, c.InC, c.lastN, c.lastInH, c.lastInW)
		c.split(c.InC, (*Conv2D).raise, c.dxBuf.Data, *dcols)
		scratchPool.Put(dcols)
	}
}

// wgBlockFloats bounds the block of dWᵀ that weightGrad computes and adds
// at a time, so that the block is still in L1 when it is added.
const wgBlockFloats = 4 * 1024

// weightGrad accumulates dW (and dB) for the live rows of dout. Per group it
// computes dWᵀ = cols × dYᵀ → (liveFan, gRows), k = N·spatial, on the
// outer-product kernels: cols is read in place, dY is copied pixel-major,
// and every element of dW is one multiply-add chain over the N·spatial
// columns in order, onto zero. The product is then added, transposed, into
// W.Grad — or, while a channel is dead, into the compact dW (one row per live
// row of dY, K·K columns per live input channel) that scatterGrad adds into
// W.Grad at the places it stands for. It runs in blocks of rows of dWᵀ, which
// no element's chain depends on, each written by its product, not cleared.
// dB sums each row of dY in the same order as the chain.
func (c *Conv2D) weightGrad(dout []float32, vol int) {
	kk := c.K * c.K
	ns := c.lastN * c.lastOutH * c.lastOutW
	rows := len(c.liveOut)
	if rows == 0 {
		return
	}
	gRows, liveFan := rows/c.Groups, len(c.liveIn)/c.Groups*kk

	dypm := getScratch(rows * ns)
	c.split(ns, (*Conv2D).pixelMajor, *dypm, dout)
	if c.Bias {
		for _, oc := range c.liveOut {
			var s float32
			for _, v := range dout[oc*ns : (oc+1)*ns] {
				s += v
			}
			c.B.Grad.Data[oc] += s
		}
	}
	grad, ld := c.W.Grad.Data, c.InC/c.Groups*kk
	compact := rows < c.OutC || len(c.liveIn) < c.InC // never grouped: a grouped conv is all alive
	if compact {
		grad, ld = c.partBuf(rows*liveFan), liveFan
		clear(grad)
	}
	blk := min(liveFan, max(8, (wgBlockFloats/gRows)&^7))
	dwT := getScratch(blk * gRows)
	for g := 0; g < c.Groups; g++ {
		for r0 := 0; r0 < liveFan; r0 += blk {
			r1 := min(r0+blk, liveFan)
			t := (*dwT)[:(r1-r0)*gRows]
			tensor.GemmPartDense(t, c.cols[(g*liveFan+r0)*ns:(g*liveFan+r1)*ns], (*dypm)[g*ns*gRows:(g+1)*ns*gRows],
				r1-r0, ns, gRows, vol, true)
			tensor.AddTransposed(grad[g*gRows*ld+r0:(g+1)*gRows*ld], ld, t, r1-r0, gRows)
		}
	}
	if compact {
		c.scatterGrad(grad)
	}
	scratchPool.Put(dwT)
	scratchPool.Put(dypm)
}

// pixelMajor writes pixels [lo, hi) of dout's live rows into dypm, group by
// group an (N·spatial) × gRows matrix: pixel p is row p, and the j-th live
// row of the group its column.
func (c *Conv2D) pixelMajor(dypm, dout []float32, lo, hi int) {
	ns := c.lastN * c.lastOutH * c.lastOutW
	gRows := len(c.liveOut) / c.Groups
	for g := 0; g < c.Groups; g++ {
		tensor.TransposeRows(dypm[(g*ns+lo)*gRows:], gRows, dout, c.liveOut[g*gRows:(g+1)*gRows], ns, lo, hi)
	}
}

// scatterGrad adds the compact dW — one row per live row of dY, K·K columns
// per live input channel — into W.Grad at the places it stands for.
func (c *Conv2D) scatterGrad(dw []float32) {
	kk := c.K * c.K
	fanIn, liveFan := c.InC*kk, len(c.liveIn)*kk
	for i, oc := range c.liveOut {
		for j, ch := range c.liveIn {
			dst := c.W.Grad.Data[oc*fanIn+ch*kk : oc*fanIn+(ch+1)*kk]
			for t, v := range dw[i*liveFan+j*kk : i*liveFan+(j+1)*kk] {
				dst[t] += v
			}
		}
	}
}

// gatherRows returns the rows of W that belong to the live rows of dY, and
// sets c.taps to the columns in which any of them is non-zero: the rows of
// dcols = Wᵀ × dY that receive a term at all.
func (c *Conv2D) gatherRows() []float32 {
	fanIn := c.InC * c.K * c.K
	if cap(c.taps) < fanIn {
		c.taps = make([]bool, fanIn)
	}
	c.taps = c.taps[:fanIn]
	clear(c.taps)
	dst := c.partBuf(len(c.liveOut) * fanIn)
	for j, oc := range c.liveOut {
		row := c.W.W.Data[oc*fanIn : (oc+1)*fanIn]
		copy(dst[j*fanIn:(j+1)*fanIn], row)
		for r, v := range row {
			if v != 0 {
				c.taps[r] = true
			}
		}
	}
	return dst
}

// Params returns the kernel (and bias when present).
func (c *Conv2D) Params() []*Param {
	if c.Bias {
		return []*Param{c.W, c.B}
	}
	return []*Param{c.W}
}

// FLOPs reports the work of the most recent forward pass.
func (c *Conv2D) FLOPs() float64 { return c.flops }
