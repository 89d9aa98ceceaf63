package tensor

import "fmt"

// Sum returns the sum of all elements as float64.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// MatMulInto computes C = A×B into dst, reusing dst's storage when it has
// sufficient capacity (dst may be nil, or a tensor returned by a previous
// call). The destination is fully overwritten.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	dst = Ensure(dst, m, n)
	clear(dst.Data)
	Gemm(dst.Data, a.Data, b.Data, m, k, n, false, false)
	return dst
}
