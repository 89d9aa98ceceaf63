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
// Y = W × cols, weight gradient dW += dY × colsᵀ, input gradient
// dcols = Wᵀ × dY, which tensor.Col2Im raises back onto dX. Groups splits
// input and output channels into independent groups (groups == InC == OutC
// gives a depthwise convolution).
//
// Y and dY cross the GEMMs channel-major (OutC × N·spatial). The lowering and
// the raising parallelise over input channels (a channel owns its K·K rows of
// the matrix and its planes of dX, and all its taps are summed by one worker
// in one order), the copies between channel-major and NCHW over images, and
// the GEMMs over disjoint blocks of C whose placement no element's value
// depends on, so every output element has one accumulation order whatever the
// thread count. None of the three products packs an operand: as B, cols and
// dY have n-contiguous rows (tensor.Gemm's outer-product form, which reads A
// through strides and so takes Wᵀ in place); as Bᵀ, cols has k-contiguous
// rows (its dot form).
//
// The column matrix, the output and the input gradient are retained on the
// layer and reused; the channel-major staging and the column gradient live
// only inside one call and come from a pool every layer shares. Steady-state
// training therefore performs no heap allocations.
type Conv2D struct {
	InC, OutC, K, Stride, Pad, Groups int
	Bias                              bool
	W                                 *Param // (OutC, InC/Groups * K * K)
	B                                 *Param // (OutC), nil when Bias is false

	cols     []float32 // batch-wide column matrix, kept for the backward pass
	lastN    int
	lastInH  int
	lastInW  int
	lastOutH int
	lastOutW int
	flops    float64

	yBuf  *tensor.Tensor // forward output, reused
	dxBuf *tensor.Tensor // backward input-gradient, reused
}

// scratchPool holds the call-scoped conv buffers (channel-major Y / dY and
// the column gradient). One pool serves every layer of every model, so a
// network pays for its largest layer once instead of once per layer.
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
// the layout copies and the input channels for lower and raise. Every fn
// writes only its own range's regions, so the split never shows in a result.
// The single-threaded path builds no closure and so allocates nothing.
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
	gOut := c.OutC / c.Groups
	fanIn := c.InC / c.Groups * c.K * c.K
	ns := n * outH * outW

	if need := c.InC * c.K * c.K * ns; cap(c.cols) < need {
		c.cols = make([]float32, need)
	} else {
		c.cols = c.cols[:need]
	}
	c.split(c.InC, (*Conv2D).lower, c.cols, x.Data)

	ycm := getScratch(c.OutC * ns)
	clear(*ycm)
	for g := 0; g < c.Groups; g++ {
		tensor.Gemm((*ycm)[g*gOut*ns:(g+1)*gOut*ns], c.W.W.Data[g*gOut*fanIn:(g+1)*gOut*fanIn],
			c.cols[g*fanIn*ns:(g+1)*fanIn*ns], gOut, fanIn, ns, false, false)
	}
	c.yBuf = tensor.Ensure(c.yBuf, n, c.OutC, outH, outW)
	c.split(n, (*Conv2D).toNCHW, c.yBuf.Data, *ycm)
	scratchPool.Put(ycm)

	c.flops = 2 * float64(c.OutC) * float64(fanIn) * float64(ns)
	return c.yBuf
}

// lower writes input channels [lo, hi) of the batch x into their rows of the
// column matrix.
func (c *Conv2D) lower(cols, x []float32, lo, hi int) {
	tensor.Im2Col(cols, x, c.lastN, c.InC, c.lastInH, c.lastInW, c.K, c.K, c.Stride, c.Pad,
		c.lastOutH, c.lastOutW, lo, hi)
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
// dout land in their columns of the channel-major matrix.
func (c *Conv2D) fromNCHW(dycm, dout []float32, lo, hi int) {
	spatial := c.lastOutH * c.lastOutW
	ns := c.lastN * spatial
	for i := lo; i < hi; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			copy(dycm[oc*ns+i*spatial:oc*ns+(i+1)*spatial], dout[(i*c.OutC+oc)*spatial:(i*c.OutC+oc+1)*spatial])
		}
	}
}

// raise is lower's adjoint: input channels [lo, hi) of the input gradient are
// rebuilt from their rows of the column gradient, which it consumes.
func (c *Conv2D) raise(dx, dcols []float32, lo, hi int) {
	tensor.Col2Im(dx, dcols, c.lastN, c.InC, c.lastInH, c.lastInW, c.K, c.K, c.Stride, c.Pad,
		c.lastOutH, c.lastOutW, lo, hi)
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

// backward runs the batch-wide gradient GEMMs. dW sums over the k = N·spatial
// columns inside one GEMM and dB over one contiguous channel-major row, both
// in an order the shape alone fixes. The column gradient is scratch that
// raise consumes (tensor.Col2Im zeroes padding slots in it); cols, which the
// 1 + k dW products of a FedKNOW step read, is never written after Forward.
func (c *Conv2D) backward(dout *tensor.Tensor, needDX bool) {
	gOut := c.OutC / c.Groups
	fanIn := c.InC / c.Groups * c.K * c.K
	ns := c.lastN * c.lastOutH * c.lastOutW

	dycm := getScratch(c.OutC * ns)
	c.split(c.lastN, (*Conv2D).fromNCHW, *dycm, dout.Data)
	if c.Bias {
		for oc := 0; oc < c.OutC; oc++ {
			var s float32
			for _, v := range (*dycm)[oc*ns : (oc+1)*ns] {
				s += v
			}
			c.B.Grad.Data[oc] += s
		}
	}
	for g := 0; g < c.Groups; g++ {
		// dW += dY × colsᵀ → (gOut, fanIn): rows of dY against rows of cols.
		tensor.Gemm(c.W.Grad.Data[g*gOut*fanIn:(g+1)*gOut*fanIn], (*dycm)[g*gOut*ns:(g+1)*gOut*ns],
			c.cols[g*fanIn*ns:(g+1)*fanIn*ns], gOut, ns, fanIn, false, true)
	}
	if needDX {
		dcols := getScratch(c.InC * c.K * c.K * ns)
		clear(*dcols)
		for g := 0; g < c.Groups; g++ {
			// dcols = Wᵀ × dY → (fanIn, N·spatial), k = gOut: W is read in place.
			tensor.Gemm((*dcols)[g*fanIn*ns:(g+1)*fanIn*ns], c.W.W.Data[g*gOut*fanIn:(g+1)*gOut*fanIn],
				(*dycm)[g*gOut*ns:(g+1)*gOut*ns], fanIn, gOut, ns, true, false)
		}
		c.dxBuf = tensor.Ensure(c.dxBuf, c.lastN, c.InC, c.lastInH, c.lastInW)
		c.split(c.InC, (*Conv2D).raise, c.dxBuf.Data, *dcols)
		scratchPool.Put(dcols)
	}
	scratchPool.Put(dycm)
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
