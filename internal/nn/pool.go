package nn

import (
	"math"

	"repro/internal/tensor"
)

// MaxPool2D takes the max over K×K windows with the given stride, plane by
// plane of a CNHW batch: (C, N, H, W) to (C, N, outH, outW).
type MaxPool2D struct {
	K, Stride int

	lastArg   []int // flat input index chosen per output element
	lastShape []int
	yBuf      *tensor.Tensor
	dxBuf     *tensor.Tensor
}

// NewMaxPool2D returns a max-pooling layer.
func NewMaxPool2D(k, stride int) *MaxPool2D { return &MaxPool2D{K: k, Stride: stride} }

// Forward pools each plane independently.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c, n, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, m.K, m.Stride, 0)
	outW := tensor.ConvOutSize(w, m.K, m.Stride, 0)
	m.yBuf = tensor.Ensure(m.yBuf, c, n, outH, outW)
	y := m.yBuf
	if cap(m.lastArg) < y.Len() {
		m.lastArg = make([]int, y.Len())
	}
	m.lastArg = m.lastArg[:y.Len()]
	m.lastShape = append(m.lastShape[:0], x.Shape...)
	oi := 0
	for base := 0; base < x.Len(); base += h * w {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := float32(math.Inf(-1))
				bestIdx := -1
				for ky := 0; ky < m.K; ky++ {
					iy := oy*m.Stride + ky
					if iy >= h {
						break
					}
					for kx := 0; kx < m.K; kx++ {
						ix := ox*m.Stride + kx
						if ix >= w {
							break
						}
						idx := base + iy*w + ix
						if v := x.Data[idx]; v > best {
							best, bestIdx = v, idx
						}
					}
				}
				y.Data[oi] = best
				m.lastArg[oi] = bestIdx
				oi++
			}
		}
	}
	return y
}

// Backward routes each output gradient to the argmax input position.
func (m *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	m.dxBuf = tensor.Ensure(m.dxBuf, m.lastShape...)
	dx := m.dxBuf
	clear(dx.Data)
	for oi, idx := range m.lastArg {
		// idx is -1 when the window held no comparable value (all-NaN
		// inputs from a diverged model); drop the gradient rather than
		// crash so the caller can detect the NaN loss.
		if idx >= 0 {
			dx.Data[idx] += dout.Data[oi]
		}
	}
	return dx
}

// Params returns nil.
func (m *MaxPool2D) Params() []*Param { return nil }

// AvgPool2D averages over K×K windows with the given stride, plane by plane
// of a CNHW batch: (C, N, H, W) to (C, N, outH, outW).
type AvgPool2D struct {
	K, Stride int
	lastShape []int
	yBuf      *tensor.Tensor
	dxBuf     *tensor.Tensor
}

// NewAvgPool2D returns an average-pooling layer.
func NewAvgPool2D(k, stride int) *AvgPool2D { return &AvgPool2D{K: k, Stride: stride} }

// Forward pools each plane independently.
func (a *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c, n, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, a.K, a.Stride, 0)
	outW := tensor.ConvOutSize(w, a.K, a.Stride, 0)
	a.lastShape = append(a.lastShape[:0], x.Shape...)
	a.yBuf = tensor.Ensure(a.yBuf, c, n, outH, outW)
	y := a.yBuf
	inv := 1 / float32(a.K*a.K)
	oi := 0
	for base := 0; base < x.Len(); base += h * w {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var s float32
				for ky := 0; ky < a.K; ky++ {
					iy := oy*a.Stride + ky
					for kx := 0; kx < a.K; kx++ {
						ix := ox*a.Stride + kx
						s += x.Data[base+iy*w+ix]
					}
				}
				y.Data[oi] = s * inv
				oi++
			}
		}
	}
	return y
}

// Backward spreads each output gradient evenly over its window.
func (a *AvgPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	h, w := a.lastShape[2], a.lastShape[3]
	outH, outW := dout.Shape[2], dout.Shape[3]
	a.dxBuf = tensor.Ensure(a.dxBuf, a.lastShape...)
	dx := a.dxBuf
	clear(dx.Data)
	inv := 1 / float32(a.K*a.K)
	oi := 0
	for base := 0; base < dx.Len(); base += h * w {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				g := float32(dout.Data[oi] * inv)
				oi++
				for ky := 0; ky < a.K; ky++ {
					iy := oy*a.Stride + ky
					for kx := 0; kx < a.K; kx++ {
						ix := ox*a.Stride + kx
						dx.Data[base+iy*w+ix] += g
					}
				}
			}
		}
	}
	return dx
}

// Params returns nil.
func (a *AvgPool2D) Params() []*Param { return nil }

// GlobalAvgPool reduces a CNHW batch (C, N, H, W) to (N, C) by averaging each
// plane: one of the exits from the channel-major layout to the (N, ·) rows a
// Linear layer takes.
type GlobalAvgPool struct {
	lastShape []int
	yBuf      *tensor.Tensor
	dxBuf     *tensor.Tensor
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages each plane.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c, n, plane := x.Shape[0], x.Shape[1], x.Shape[2]*x.Shape[3]
	g.lastShape = append(g.lastShape[:0], x.Shape...)
	g.yBuf = tensor.Ensure(g.yBuf, n, c)
	squeeze(g.yBuf.Data, x.Data, c, n, plane)
	return g.yBuf
}

// Backward spreads each plane's gradient uniformly over the plane.
func (g *GlobalAvgPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	c, n, plane := g.lastShape[0], g.lastShape[1], g.lastShape[2]*g.lastShape[3]
	g.dxBuf = tensor.Ensure(g.dxBuf, g.lastShape...)
	inv := 1 / float32(plane)
	for ch := 0; ch < c; ch++ {
		for i := 0; i < n; i++ {
			gv := dout.Data[i*c+ch] * inv
			dst := g.dxBuf.Data[(ch*n+i)*plane : (ch*n+i+1)*plane]
			for j := range dst {
				dst[j] = gv
			}
		}
	}
	return g.dxBuf
}

// squeeze writes the mean of each plane of the CNHW batch x (c channels of n
// planes) into sq, transposed to (n, c): the plane of channel ch and image i
// is summed in pixel order into sq[i·c + ch].
func squeeze(sq, x []float32, c, n, plane int) {
	inv := 1 / float32(plane)
	for ch := 0; ch < c; ch++ {
		for i := 0; i < n; i++ {
			var s float32
			for _, v := range x[(ch*n+i)*plane : (ch*n+i+1)*plane] {
				s += v
			}
			sq[i*c+ch] = s * inv
		}
	}
}

// Params returns nil.
func (g *GlobalAvgPool) Params() []*Param { return nil }
