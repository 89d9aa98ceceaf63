// Package tensor implements dense float32 tensors and the numeric kernels
// (GEMM, im2col, reductions) that back the neural-network substrate. It is
// the stand-in for the PyTorch tensor library used by the FedKNOW paper.
//
// Tensors are row-major and always contiguous. The package is deliberately
// small: only the operations the training stack needs are provided, and all
// of them are written against plain slices so they inline and vectorise well.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// numElems returns the product of dims, panicking on negative sizes. The
// panic path formats a copy of the shape so the (hot, variadic) argument
// slice never escapes to the heap.
func numElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, numElems(shape))}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied.
func FromSlice(data []float32, shape ...int) *Tensor {
	if len(data) != numElems(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// At returns the element at the given multi-index. Intended for tests and
// debugging; hot paths index Data directly.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddInPlace adds b elementwise into t.
func (t *Tensor) AddInPlace(b *Tensor) {
	if len(t.Data) != len(b.Data) {
		panic("tensor: AddInPlace size mismatch")
	}
	x, y := t.Data, b.Data
	for len(x) >= 4 && len(y) >= 4 {
		x[0] += y[0]
		x[1] += y[1]
		x[2] += y[2]
		x[3] += y[3]
		x, y = x[4:], y[4:]
	}
	for i, v := range y {
		x[i] += v
	}
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float32) {
	ScaleSlice(t.Data, s)
}

// ScaleSlice computes dst[i] *= s, the whole multiples of eight through the
// AVX2 kernel where it runs.
func ScaleSlice(dst []float32, s float32) {
	lo := 0
	if n8 := len(dst) &^ 7; hasDot4 && n8 > 0 {
		scaleAVX(&dst[0], n8, s)
		lo = n8
	}
	for i := lo; i < len(dst); i++ {
		dst[i] *= s
	}
}

// Axpy computes t += a*x (like BLAS saxpy).
func (t *Tensor) Axpy(a float32, x *Tensor) {
	if len(t.Data) != len(x.Data) {
		panic("tensor: Axpy size mismatch")
	}
	AxpySlice(t.Data, a, x.Data)
}

// AxpySlice computes dst += a*x over equal-length slices, each product
// rounded to float32 before its add: the explicit conversion keeps a compiler
// that fuses (arm64) from computing other bits than amd64 does, and the AVX2
// kernel that runs the whole multiples of eight multiplies and then adds; the
// rest runs 4-way unrolled. A length mismatch panics before anything is
// written.
func AxpySlice(dst []float32, a float32, x []float32) {
	if len(dst) != len(x) {
		panic("tensor: AxpySlice size mismatch")
	}
	if n8 := len(x) &^ 7; hasDot4 && n8 > 0 {
		axpyAVX(&dst[0], &x[0], n8, a)
		dst, x = dst[n8:], x[n8:]
	}
	for len(dst) >= 4 && len(x) >= 4 {
		dst[0] += float32(a * x[0])
		dst[1] += float32(a * x[1])
		dst[2] += float32(a * x[2])
		dst[3] += float32(a * x[3])
		dst, x = dst[4:], x[4:]
	}
	for i, v := range x {
		dst[i] += float32(a * v)
	}
}

// AxpyWriteSlice is AxpySlice's write form: dst = 0 + a*x, bit for bit what
// clearing dst and then AxpySlice leave, without reading dst. The +0 is
// added, not implied: it turns a product that rounds to -0 into +0, as the
// add onto a cleared coordinate does.
func AxpyWriteSlice(dst []float32, a float32, x []float32) {
	if len(dst) != len(x) {
		panic("tensor: AxpyWriteSlice size mismatch")
	}
	if n8 := len(x) &^ 7; hasDot4 && n8 > 0 {
		axpyWriteAVX(&dst[0], &x[0], n8, a)
		dst, x = dst[n8:], x[n8:]
	}
	for i, v := range x {
		dst[i] = 0 + float32(a*v)
	}
}

// axpyRowsBlock is AxpyRows' pure-Go coordinate block, in floats: dst's
// block stays in L1 while every row's block is added to it.
const axpyRowsBlock = 1024

// AxpyRows writes dst = x + coef[0]·rows[0] + … + coef[k-1]·rows[k-1] and,
// unless scale is 1, multiplies the result by scale, in one pass over the
// operands. Per element it performs exactly the float32 operations of
// copy(dst, x), one AxpySlice(dst, coef[i], rows[i]) per row in order and a
// final dst[p] *= scale: every product is rounded before its add, so the
// result is bit for bit theirs. dst must not overlap x or any row.
func AxpyRows(dst, x []float32, coef []float32, rows [][]float32, scale float32) {
	n := len(dst)
	if len(x) != n || len(coef) != len(rows) {
		panic("tensor: AxpyRows size mismatch")
	}
	for _, r := range rows {
		if len(r) != n {
			panic("tensor: AxpyRows size mismatch")
		}
	}
	lo := 0
	if n8 := n &^ 7; hasDot4 && n8 > 0 {
		var rp *[]float32
		var cp *float32
		if len(rows) > 0 {
			rp, cp = &rows[0], &coef[0]
		}
		axpyRowsAVX(&dst[0], &x[0], rp, cp, len(rows), n8, scale, scale != 1)
		lo = n8
	}
	for ; lo < n; lo += axpyRowsBlock {
		hi := min(lo+axpyRowsBlock, n)
		d := dst[lo:hi]
		copy(d, x[lo:hi])
		for i, r := range rows {
			AxpySlice(d, coef[i], r[lo:hi])
		}
		if scale != 1 {
			for p := range d {
				d[p] *= scale
			}
		}
	}
}

// Dot returns the inner product of t and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	return DotSlice(a.Data, b.Data)
}

// DotSlice returns the inner product of two equal-length slices, accumulated
// in float64 across four unrolled lanes. A product of two float32s is exact
// in float64, so rounding it explicitly changes no bits; it keeps the arm64
// build free of fused multiply-adds, which CI checks for this file.
func DotSlice(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot size mismatch")
	}
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += float64(float64(a[0]) * float64(b[0]))
		s1 += float64(float64(a[1]) * float64(b[1]))
		s2 += float64(float64(a[2]) * float64(b[2]))
		s3 += float64(float64(a[3]) * float64(b[3]))
		a, b = a[4:], b[4:]
	}
	s := s0 + s1 + s2 + s3
	for i, v := range a {
		s += float64(float64(v) * float64(b[i]))
	}
	return s
}

// NormSlice returns the Euclidean norm of a slice.
func NormSlice(x []float32) float64 {
	var s0, s1, s2, s3 float64
	for len(x) >= 4 {
		s0 += float64(float64(x[0]) * float64(x[0]))
		s1 += float64(float64(x[1]) * float64(x[1]))
		s2 += float64(float64(x[2]) * float64(x[2]))
		s3 += float64(float64(x[3]) * float64(x[3]))
		x = x[4:]
	}
	s := s0 + s1 + s2 + s3
	for _, v := range x {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}

// ArgMaxRow returns the index of the maximum element in row r of a 2-D
// tensor, optionally restricted to the given candidate columns (nil means
// all columns). Used for task-aware top-1 evaluation.
func (t *Tensor) ArgMaxRow(r int, candidates []int) int {
	if len(t.Shape) != 2 {
		panic("tensor: ArgMaxRow requires a 2-D tensor")
	}
	cols := t.Shape[1]
	row := t.Data[r*cols : (r+1)*cols]
	best, bestV := -1, float32(math.Inf(-1))
	if candidates == nil {
		for j, v := range row {
			if v > bestV {
				best, bestV = j, v
			}
		}
		return best
	}
	for _, j := range candidates {
		if row[j] > bestV {
			best, bestV = j, row[j]
		}
	}
	return best
}

// TransposeBlocks copies src, a rows × cols grid of equal-sized contiguous
// blocks, into dst as the cols × rows grid: block (r, k) of src becomes block
// (k, r) of dst. With planes for blocks it moves a batch between the (N, C,
// H, W) and (C, N, H, W) layouts.
func TransposeBlocks(dst, src []float32, rows, cols int) {
	size := len(src) / (rows * cols)
	for r := 0; r < rows; r++ {
		for k := 0; k < cols; k++ {
			copy(dst[(k*rows+r)*size:(k*rows+r+1)*size], src[(r*cols+k)*size:(r*cols+k+1)*size])
		}
	}
}

// Ensure returns a tensor with the given shape, reusing t's storage when its
// capacity suffices (t may be nil). Contents are unspecified: callers that
// need zeros must clear the data themselves. This is the scratch-buffer
// primitive the allocation-free training pipeline is built on.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := numElems(shape)
	if t == nil {
		return New(shape...)
	}
	if cap(t.Data) < n {
		t.Data = make([]float32, n)
	}
	t.Data = t.Data[:n]
	t.Shape = append(t.Shape[:0], shape...)
	return t
}
