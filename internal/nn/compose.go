package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// view points t at data with the given shape, reusing t's shape slice: how a
// container hands a branch a block of channels without copying it, and how
// Linear sees its input as rows.
func view(t *tensor.Tensor, data []float32, shape ...int) *tensor.Tensor {
	t.Data = data
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// Identity passes its input through unchanged. Used as the default shortcut
// in residual blocks.
type Identity struct{}

// NewIdentity returns an Identity layer.
func NewIdentity() *Identity { return &Identity{} }

// Forward returns x.
func (Identity) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }

// Backward returns dout.
func (Identity) Backward(dout *tensor.Tensor) *tensor.Tensor { return dout }

// Params returns nil.
func (Identity) Params() []*Param { return nil }

// Residual computes Body(x) + Shortcut(x): the basic skip connection of
// ResNet-family architectures.
type Residual struct {
	Body     Layer
	Shortcut Layer

	yBuf  *tensor.Tensor
	dxBuf *tensor.Tensor
}

// NewResidual returns a residual block; a nil shortcut means identity.
func NewResidual(body, shortcut Layer) *Residual {
	if shortcut == nil {
		shortcut = NewIdentity()
	}
	return &Residual{Body: body, Shortcut: shortcut}
}

// Forward evaluates both paths and adds them.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	a := r.Body.Forward(x, train)
	b := r.Shortcut.Forward(x, train)
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("nn: residual shape mismatch %v + %v", a.Shape, b.Shape))
	}
	r.yBuf = tensor.Ensure(r.yBuf, a.Shape...)
	y := r.yBuf
	tensor.Add(y.Data, a.Data, b.Data)
	return y
}

// Backward splits the gradient into both paths and sums the input gradients.
func (r *Residual) Backward(dout *tensor.Tensor) *tensor.Tensor {
	da := r.Body.Backward(dout)
	db := r.Shortcut.Backward(dout)
	r.dxBuf = tensor.Ensure(r.dxBuf, da.Shape...)
	dx := r.dxBuf
	tensor.Add(dx.Data, da.Data, db.Data)
	return dx
}

// Params concatenates parameters of both paths.
func (r *Residual) Params() []*Param {
	return append(append([]*Param{}, r.Body.Params()...), r.Shortcut.Params()...)
}

// Concat runs branches in parallel on the same input and concatenates their
// CNHW outputs along the channel dimension (DenseNet, Inception,
// ShuffleNetV2 all need this). Channel-major, a branch's output is one block
// of the result and its gradient a view of the output gradient's block.
type Concat struct {
	Branches []Layer

	outs  []*tensor.Tensor
	yBuf  *tensor.Tensor
	dbs   []tensor.Tensor
	dxBuf *tensor.Tensor
}

// NewConcat returns a channel-concatenation container.
func NewConcat(branches ...Layer) *Concat { return &Concat{Branches: branches} }

// Forward evaluates every branch and stacks channels.
func (c *Concat) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if c.outs == nil {
		c.outs = make([]*tensor.Tensor, len(c.Branches))
	}
	totalC := 0
	for i, br := range c.Branches {
		c.outs[i] = br.Forward(x, train)
		if len(c.outs[i].Shape) != 4 {
			panic("nn: Concat branches must output CNHW")
		}
		totalC += c.outs[i].Shape[0]
	}
	s := c.outs[0].Shape
	c.yBuf = tensor.Ensure(c.yBuf, totalC, s[1], s[2], s[3])
	off := 0
	for _, o := range c.outs {
		off += copy(c.yBuf.Data[off:], o.Data)
	}
	return c.yBuf
}

// Backward hands each branch its block of the gradient and sums the input
// gradients.
func (c *Concat) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if c.dbs == nil {
		c.dbs = make([]tensor.Tensor, len(c.Branches))
	}
	var dx *tensor.Tensor
	off := 0
	for bi, br := range c.Branches {
		o := c.outs[bi]
		d := br.Backward(view(&c.dbs[bi], dout.Data[off:off+o.Len()], o.Shape...))
		off += o.Len()
		if dx == nil {
			c.dxBuf = tensor.Ensure(c.dxBuf, d.Shape...)
			dx = c.dxBuf
			copy(dx.Data, d.Data)
		} else {
			dx.AddInPlace(d)
		}
	}
	return dx
}

// Params concatenates all branch parameters.
func (c *Concat) Params() []*Param {
	var ps []*Param
	for _, b := range c.Branches {
		ps = append(ps, b.Params()...)
	}
	return ps
}

// ChannelShuffle permutes channels between groups (ShuffleNetV2): channels
// laid out as (groups, perGroup) become (perGroup, groups). A channel of a
// CNHW batch is one run, so each moves as one copy.
type ChannelShuffle struct {
	Groups int

	yBuf  *tensor.Tensor
	dxBuf *tensor.Tensor
}

// NewChannelShuffle returns a shuffle over the given group count.
func NewChannelShuffle(groups int) *ChannelShuffle { return &ChannelShuffle{Groups: groups} }

// Forward permutes channels.
func (s *ChannelShuffle) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if c := x.Shape[0]; c%s.Groups != 0 {
		panic(fmt.Sprintf("nn: shuffle groups %d must divide channels %d", s.Groups, c))
	}
	s.yBuf = tensor.Ensure(s.yBuf, x.Shape...)
	s.permute(s.yBuf.Data, x.Data, x.Shape[0], false)
	return s.yBuf
}

// Backward applies the inverse permutation.
func (s *ChannelShuffle) Backward(dout *tensor.Tensor) *tensor.Tensor {
	s.dxBuf = tensor.Ensure(s.dxBuf, dout.Shape...)
	s.permute(s.dxBuf.Data, dout.Data, dout.Shape[0], true)
	return s.dxBuf
}

// permute copies channel g·per + p of the c channels of src to channel
// p·Groups + g of dst, or the other way round when inverse.
func (s *ChannelShuffle) permute(dst, src []float32, c int, inverse bool) {
	per, run := c/s.Groups, len(src)/c
	for g := 0; g < s.Groups; g++ {
		for p := 0; p < per; p++ {
			from, to := g*per+p, p*s.Groups+g
			if inverse {
				from, to = to, from
			}
			copy(dst[to*run:(to+1)*run], src[from*run:(from+1)*run])
		}
	}
}

// Params returns nil.
func (s *ChannelShuffle) Params() []*Param { return nil }

// SEBlock is a squeeze-and-excitation gate: global average pool → FC →
// ReLU → FC → sigmoid, whose output re-scales each channel of the input. The
// squeeze leaves the CNHW layout for the (N, C) rows the FC layers take, and
// the gate is read back per plane.
type SEBlock struct {
	C, Reduced int
	FC1, FC2   *Linear
	relu       *ReLU
	sig        *Sigmoid

	lastX    *tensor.Tensor
	lastGate *tensor.Tensor

	sqBuf    *tensor.Tensor
	yBuf     *tensor.Tensor
	dgateBuf *tensor.Tensor
	dxBuf    *tensor.Tensor
}

// NewSEBlock returns a squeeze-and-excitation block over c channels with the
// given reduction ratio (typical value 4 or 16).
func NewSEBlock(name string, c, reduction int) *SEBlock {
	red := c / reduction
	if red < 1 {
		red = 1
	}
	return &SEBlock{
		C: c, Reduced: red,
		FC1:  NewLinear(name+".fc1", c, red),
		FC2:  NewLinear(name+".fc2", red, c),
		relu: NewReLU(),
		sig:  NewSigmoid(),
	}
}

// Forward computes channel gates and rescales x.
func (s *SEBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c, n, plane := x.Shape[0], x.Shape[1], x.Shape[2]*x.Shape[3]
	s.lastX = x
	s.sqBuf = tensor.Ensure(s.sqBuf, n, c)
	squeeze(s.sqBuf.Data, x.Data, c, n, plane)
	gate := s.sig.Forward(s.FC2.Forward(s.relu.Forward(s.FC1.Forward(s.sqBuf, train), train), train), train)
	s.lastGate = gate
	s.yBuf = tensor.Ensure(s.yBuf, x.Shape...)
	for ch := 0; ch < c; ch++ {
		for i := 0; i < n; i++ {
			g := gate.Data[i*c+ch]
			base := (ch*n + i) * plane
			y := s.yBuf.Data[base : base+plane]
			for j, v := range x.Data[base : base+plane] {
				y[j] = v * g
			}
		}
	}
	return s.yBuf
}

// Backward differentiates through both the scaling and the gate path.
func (s *SEBlock) Backward(dout *tensor.Tensor) *tensor.Tensor {
	c, n, plane := dout.Shape[0], dout.Shape[1], dout.Shape[2]*dout.Shape[3]
	// dGate[i,ch] = sum_j dout * x ; dx (scale path) = dout * gate
	s.dgateBuf = tensor.Ensure(s.dgateBuf, n, c)
	dgate := s.dgateBuf
	s.dxBuf = tensor.Ensure(s.dxBuf, dout.Shape...)
	dx := s.dxBuf
	for ch := 0; ch < c; ch++ {
		for i := 0; i < n; i++ {
			base := (ch*n + i) * plane
			g := s.lastGate.Data[i*c+ch]
			x, dxp := s.lastX.Data[base:base+plane], dx.Data[base:base+plane]
			var dg float32
			for j, d := range dout.Data[base : base+plane] {
				dg += float32(d * x[j])
				dxp[j] = d * g
			}
			dgate.Data[i*c+ch] = dg
		}
	}
	// back through FC2∘ReLU∘FC1∘squeeze
	dsq := s.FC1.Backward(s.relu.Backward(s.FC2.Backward(s.sig.Backward(dgate))))
	inv := 1 / float32(plane)
	for ch := 0; ch < c; ch++ {
		for i := 0; i < n; i++ {
			g := float32(dsq.Data[i*c+ch] * inv)
			dxp := dx.Data[(ch*n+i)*plane : (ch*n+i+1)*plane]
			for j := range dxp {
				dxp[j] += g
			}
		}
	}
	return dx
}

// Params returns the two FC layers' parameters.
func (s *SEBlock) Params() []*Param {
	return append(s.FC1.Params(), s.FC2.Params()...)
}
