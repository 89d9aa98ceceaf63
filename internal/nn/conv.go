package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW batches, lowered batch-wide:
// tensor.Im2Col writes the batch into one (InC·K·K) × (N·spatial) column
// matrix row by row (image i owns columns [i·spatial, (i+1)·spatial) of every
// row), and each pass is a single GEMM per group against it — forward
// Y = W × cols, weight gradient dWᵀ = cols × dYᵀ (added into W.Grad
// transposed), input gradient dcols = Wᵀ × dY, which tensor.Col2Im raises
// back onto dX. Groups splits input and output channels into independent
// groups (groups == InC == OutC gives a depthwise convolution).
//
// Dead channels. The layer does work only for the channels that hold data. A
// channel is dead when every one of its elements across the batch compares
// == 0 (so ±0 is dead; a NaN or an Inf keeps its channel alive), and the
// layer finds that out itself on every pass — the input channels of x in
// Forward, the rows of the channel-major dY in backward — by a scan that
// leaves a live channel at its first non-zero; nothing is declared to it and
// nothing tunes it. When every channel is alive — every step of a dense
// model — the three products are the ones above on W and dY themselves. When
// some are dead — after the BatchNorm of a FedKNOW knowledge model, whose
// dropped scales make most channels exactly 0·x̂ + 0, or behind a masked or
// dead unit — then
//
//   - Forward lowers only the live input channels, into a column matrix of
//     that many slots, and multiplies it by the matching columns of W;
//   - backward computes dWᵀ for (tap of a live input channel, live dY row)
//     alone and adds it into W.Grad at those places, and dB for live rows;
//   - dcols is the product of the live rows of W and of dY, and only those of
//     its rows that some live row of W has a non-zero weight for are cleared,
//     computed and raised (the others would be +0 and tensor.Col2Im leaves
//     them out; every plane of dX is still cleared).
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
// Y crosses the GEMMs channel-major (OutC × N·spatial), and so does dY on
// its way to dcols; the weight gradient takes dY pixel-major (N·spatial ×
// OutC). The lowering parallelises over the live input channels and the
// raising over all of them (a channel owns its K·K rows of the matrix and its
// planes of dX, and all its taps are summed by one worker in one order), the
// copies between those layouts and NCHW over images, and the GEMMs over
// disjoint blocks of C whose placement no element's value depends on; the
// scans, gathers and the transposed add of dW are serial. So every output
// element has one accumulation order whatever the thread count. All three
// products run on tensor.Gemm's outer-product form, and none packs an
// operand: as B, cols, channel-major dY and pixel-major dY have n-contiguous
// rows, and op(A) is read through strides, which takes Wᵀ in place and cols
// as it is. The weight gradient's cols is an activation, so that product
// skips the sparse-A sample (tensor.GemmPartDense).
//
// The column matrix, the output and the input gradient are retained on the
// layer and reused; the staging copies of Y and dY, a block of dWᵀ and the
// column gradient live only inside one call and come from a pool every layer
// shares.
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

// scratchPool holds the call-scoped conv buffers (the staging copies of Y and
// dY, a block of dWᵀ and the column gradient). One pool serves every layer of
// every model, so a network pays for its largest layer once instead of once
// per layer.
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

// NewConv2D builds a convolution with Kaiming-normal initialisation.
func NewConv2D(name string, inC, outC, k, stride, pad, groups int, bias bool, rng *tensor.RNG) *Conv2D {
	if inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: conv groups %d must divide inC %d and outC %d", groups, inC, outC))
	}
	fanIn := inC / groups * k * k
	w := tensor.New(outC, fanIn)
	rng.FillNorm(w.Data, math.Sqrt(2.0/float64(fanIn)))
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, Groups: groups,
		Bias: bias, W: NewParam(name+".w", w)}
	if bias {
		c.B = NewParam(name+".b", tensor.New(outC))
	}
	return c
}

// split runs fn over [0, n) on the kernel pool: n is the batch's images for
// the layout copies, the live input channels for lower and all of them for
// raise. Every fn writes only its own range's regions, so the split never
// shows in a result. The single-threaded path builds no closure and so
// allocates nothing.
func (c *Conv2D) split(n int, fn func(c *Conv2D, a, b []float32, lo, hi int), a, b []float32) {
	if n > 1 && tensor.KernelThreads() > 1 {
		tensor.Parallel(n, func(lo, hi int) { fn(c, a, b, lo, hi) })
	} else {
		fn(c, a, b, 0, n)
	}
}

// Forward convolves a batch of shape (N, InC, H, W).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: conv input shape %v, want (N,%d,H,W)", x.Shape, c.InC))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, c.K, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(w, c.K, c.Stride, c.Pad)
	c.lastN, c.lastInH, c.lastInW, c.lastOutH, c.lastOutW = n, h, w, outH, outW
	kk := c.K * c.K
	gOut := c.OutC / c.Groups
	fanIn := c.InC / c.Groups * kk
	ns := n * outH * outW

	c.liveIn = c.liveChannels(c.liveIn[:0], x.Data, c.InC, n, h*w)
	live := len(c.liveIn)
	liveFan := live / c.Groups * kk // per group: a grouped conv is all alive
	if need := live * kk * ns; cap(c.cols) < need {
		c.cols = make([]float32, need)
	} else {
		c.cols = c.cols[:need]
	}
	c.split(live, (*Conv2D).lower, c.cols, x.Data)

	ycm := getScratch(c.OutC * ns)
	clear(*ycm)
	wt := c.W.W.Data
	if live < c.InC {
		wt = c.gatherTaps()
	}
	for g := 0; g < c.Groups; g++ {
		tensor.GemmPart((*ycm)[g*gOut*ns:(g+1)*gOut*ns], wt[g*gOut*liveFan:(g+1)*gOut*liveFan],
			c.cols[g*liveFan*ns:(g+1)*liveFan*ns], gOut, liveFan, ns, false, gOut*fanIn*ns)
	}
	c.yBuf = tensor.Ensure(c.yBuf, n, c.OutC, outH, outW)
	c.split(n, (*Conv2D).toNCHW, c.yBuf.Data, *ycm)
	scratchPool.Put(ycm)

	c.flops = 2 * float64(c.OutC) * float64(fanIn) * float64(ns)
	return c.yBuf
}

// liveScan appends to dst, in ascending order, the channels of the NCHW batch
// x (n images of ch planes of plane floats) that hold anything but ±0. A live
// channel is mostly settled by the first pixel of its first plane; otherwise
// its planes are scanned up to the first non-zero. It is a variable only so
// that this package's tests can put "every channel is alive" in its place and
// hold the layer to itself; nothing else assigns it.
var liveScan = func(dst []int, x []float32, ch, n, plane int) []int {
	for k := 0; k < ch; k++ {
		live := n > 0 && x[k*plane] != 0
		for i := 0; !live && i < n; i++ {
			live = anyNonZero(x[(i*ch+k)*plane : (i*ch+k+1)*plane])
		}
		if live {
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

// liveChannels returns in dst the channels of the NCHW batch x that are
// alive, in ascending order: all of them for a grouped convolution.
func (c *Conv2D) liveChannels(dst []int, x []float32, ch, n, plane int) []int {
	if cap(dst) < ch {
		dst = make([]int, 0, ch) // once: a later, livelier batch must not grow it
	}
	if c.Groups > 1 {
		for k := 0; k < ch; k++ {
			dst = append(dst, k)
		}
		return dst
	}
	return liveScan(dst, x, ch, n, plane)
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
	tensor.Im2Col(cols, x, c.lastN, c.InC, c.lastInH, c.lastInW, c.K, c.K, c.Stride, c.Pad,
		c.lastOutH, c.lastOutW, c.liveIn, lo, hi)
}

// toNCHW copies images [lo, hi) of the channel-major GEMM output into the
// NCHW tensor, adding the bias on the way.
func (c *Conv2D) toNCHW(y, ycm []float32, lo, hi int) {
	spatial := c.lastOutH * c.lastOutW
	ns := c.lastN * spatial
	for i := lo; i < hi; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			dst := y[(i*c.OutC+oc)*spatial : (i*c.OutC+oc+1)*spatial]
			src := ycm[oc*ns+i*spatial : oc*ns+(i+1)*spatial]
			if c.Bias {
				b := c.B.W.Data[oc]
				for j, v := range src {
					dst[j] = v + b
				}
			} else {
				copy(dst, src)
			}
		}
	}
}

// fromNCHW is toNCHW's inverse for the output gradient: images [lo, hi) of
// dout land in their columns of the channel-major matrix, which has one row
// per live channel of dout.
func (c *Conv2D) fromNCHW(dycm, dout []float32, lo, hi int) {
	spatial := c.lastOutH * c.lastOutW
	ns := c.lastN * spatial
	for i := lo; i < hi; i++ {
		for j, oc := range c.liveOut {
			copy(dycm[j*ns+i*spatial:j*ns+(i+1)*spatial], dout[(i*c.OutC+oc)*spatial:(i*c.OutC+oc+1)*spatial])
		}
	}
}

// raise is lower's adjoint: input channels [lo, hi) of the input gradient are
// rebuilt from those of their rows of the column gradient that c.taps keeps,
// which it consumes.
func (c *Conv2D) raise(dx, dcols []float32, lo, hi int) {
	tensor.Col2Im(dx, dcols, c.lastN, c.InC, c.lastInH, c.lastInW, c.K, c.K, c.Stride, c.Pad,
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
// scratch that raise consumes (tensor.Col2Im zeroes padding slots in it);
// cols, which the 1 + k weight-gradient products of a FedKNOW step read, is
// never written after Forward.
//
// The operands are W and dY themselves unless a channel is dead: then dY
// holds its live rows only, dW is computed for the live rows and live input
// taps alone, and dcols comes from the live rows of W. No live row leaves dW
// and dB untouched and dX zero; no live input channel leaves dW untouched.
func (c *Conv2D) backward(dout *tensor.Tensor, needDX bool) {
	kk := c.K * c.K
	gOut := c.OutC / c.Groups
	fanIn := c.InC / c.Groups * kk
	ns := c.lastN * c.lastOutH * c.lastOutW
	vol := gOut * fanIn * ns

	c.liveOut = c.liveChannels(c.liveOut[:0], dout.Data, c.OutC, c.lastN, c.lastOutH*c.lastOutW)
	rows := len(c.liveOut)
	gRows := rows / c.Groups // per group: a grouped conv is all alive
	c.weightGrad(dout.Data, vol)

	if needDX {
		dycm := getScratch(rows * ns)
		c.split(c.lastN, (*Conv2D).fromNCHW, *dycm, dout.Data)
		dcols := getScratch(c.InC * kk * ns)
		wt := c.W.W.Data
		c.taps = c.taps[:0]
		if rows < c.OutC {
			wt = c.gatherRows()
		}
		if len(c.taps) == 0 {
			clear(*dcols)
		}
		for r, on := range c.taps {
			if on {
				clear((*dcols)[r*ns : (r+1)*ns])
			}
		}
		for g := 0; g < c.Groups; g++ {
			// dcols = Wᵀ × dY → (fanIn, N·spatial), k = gRows: W is read in place.
			// A row outside c.taps gets no term on the sparse route and
			// arithmetic on stale scratch on the dense one; raise reads neither.
			tensor.GemmPart((*dcols)[g*fanIn*ns:(g+1)*fanIn*ns], wt[g*gRows*fanIn:(g+1)*gRows*fanIn],
				(*dycm)[g*gRows*ns:(g+1)*gRows*ns], fanIn, gRows, ns, true, vol)
		}
		scratchPool.Put(dycm)
		c.dxBuf = tensor.Ensure(c.dxBuf, c.lastN, c.InC, c.lastInH, c.lastInW)
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
// no element's chain depends on. dB sums each pixel-major column of dY in the
// same order as the chain.
func (c *Conv2D) weightGrad(dout []float32, vol int) {
	kk := c.K * c.K
	ns := c.lastN * c.lastOutH * c.lastOutW
	rows := len(c.liveOut)
	if rows == 0 {
		return
	}
	gRows, liveFan := rows/c.Groups, len(c.liveIn)/c.Groups*kk

	dypm := getScratch(rows * ns)
	c.split(c.lastN, (*Conv2D).pixelMajor, *dypm, dout)
	if c.Bias {
		for j, oc := range c.liveOut {
			g, r := j/gRows, j%gRows
			var s float32
			for p := 0; p < ns; p++ {
				s += (*dypm)[(g*ns+p)*gRows+r]
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
			clear(t)
			tensor.GemmPartDense(t, c.cols[(g*liveFan+r0)*ns:(g*liveFan+r1)*ns], (*dypm)[g*ns*gRows:(g+1)*ns*gRows],
				r1-r0, ns, gRows, vol)
			tensor.AddTransposed(grad[g*gRows*ld+r0:(g+1)*gRows*ld], ld, t, r1-r0, gRows)
		}
	}
	if compact {
		c.scatterGrad(grad)
	}
	scratchPool.Put(dwT)
	scratchPool.Put(dypm)
}

// pixelMajor writes images [lo, hi) of dout's live channels into dypm, group
// by group an (N·spatial) × gRows matrix: the pixel of image i at s is row
// i·spatial + s, and the j-th live channel of the group its column.
func (c *Conv2D) pixelMajor(dypm, dout []float32, lo, hi int) {
	spatial := c.lastOutH * c.lastOutW
	ns := c.lastN * spatial
	gRows := len(c.liveOut) / c.Groups
	for i := lo; i < hi; i++ {
		for j, oc := range c.liveOut {
			g, r := j/gRows, j%gRows
			dst := dypm[(g*ns+i*spatial)*gRows+r:]
			for s, v := range dout[(i*c.OutC+oc)*spatial : (i*c.OutC+oc+1)*spatial] {
				dst[s*gRows] = v
			}
		}
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
