package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// SplitConcat routes the first SplitC input channels through branch A and
// the remaining channels through branch B, then concatenates the two outputs
// along the channel dimension. This is the channel-split unit of
// ShuffleNetV2. Channel-major, the two halves of a CNHW batch are two blocks:
// each branch is handed a view of its block, and of its block of the output
// gradient.
type SplitConcat struct {
	SplitC int
	A, B   Layer

	lastShape      []int
	xa, xb, da, db tensor.Tensor
	ya, yb         *tensor.Tensor
	outBuf         *tensor.Tensor
	dxBuf          *tensor.Tensor
}

// NewSplitConcat returns a split/concat container.
func NewSplitConcat(splitC int, a, b Layer) *SplitConcat {
	return &SplitConcat{SplitC: splitC, A: a, B: b}
}

// Forward splits channels, runs both branches, and concatenates.
func (s *SplitConcat) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c, n, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if s.SplitC <= 0 || s.SplitC >= c {
		panic(fmt.Sprintf("nn: SplitConcat split %d of %d channels", s.SplitC, c))
	}
	s.lastShape = append(s.lastShape[:0], x.Shape...)
	at := s.SplitC * n * h * w
	s.ya = s.A.Forward(view(&s.xa, x.Data[:at], s.SplitC, n, h, w), train)
	s.yb = s.B.Forward(view(&s.xb, x.Data[at:], c-s.SplitC, n, h, w), train)
	if s.ya.Shape[2] != s.yb.Shape[2] || s.ya.Shape[3] != s.yb.Shape[3] {
		panic("nn: SplitConcat branch spatial mismatch")
	}
	s.outBuf = tensor.Ensure(s.outBuf, s.ya.Shape[0]+s.yb.Shape[0], n, s.ya.Shape[2], s.ya.Shape[3])
	at = copy(s.outBuf.Data, s.ya.Data)
	copy(s.outBuf.Data[at:], s.yb.Data)
	return s.outBuf
}

// Backward splits the output gradient, back-propagates both branches and
// re-assembles the input gradient.
func (s *SplitConcat) Backward(dout *tensor.Tensor) *tensor.Tensor {
	at := s.ya.Len()
	dxa := s.A.Backward(view(&s.da, dout.Data[:at], s.ya.Shape...))
	dxb := s.B.Backward(view(&s.db, dout.Data[at:], s.yb.Shape...))
	s.dxBuf = tensor.Ensure(s.dxBuf, s.lastShape...)
	at = copy(s.dxBuf.Data, dxa.Data)
	copy(s.dxBuf.Data[at:], dxb.Data)
	return s.dxBuf
}

// Params concatenates both branches' parameters.
func (s *SplitConcat) Params() []*Param {
	return append(append([]*Param{}, s.A.Params()...), s.B.Params()...)
}
