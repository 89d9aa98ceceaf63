package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Dim(1) != 3 {
		t.Fatalf("Dim(1) = %d, want 3", x.Dim(1))
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetOffsets(t *testing.T) {
	x := New(2, 3)
	x.Set(5, 1, 2)
	if got := x.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %v, want 5", got)
	}
	if x.Data[1*3+2] != 5 {
		t.Fatal("row-major offset wrong")
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("Reshape must share backing data")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 7
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	a.AddInPlace(b)
	want := []float32{5, 7, 9}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("AddInPlace[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
	a.SubInPlace(b)
	for i, w := range []float32{1, 2, 3} {
		if a.Data[i] != w {
			t.Fatalf("SubInPlace[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
	a.MulInPlace(b)
	for i, w := range []float32{4, 10, 18} {
		if a.Data[i] != w {
			t.Fatalf("MulInPlace[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
	a.ScaleInPlace(0.5)
	for i, w := range []float32{2, 5, 9} {
		if a.Data[i] != w {
			t.Fatalf("ScaleInPlace[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
}

func TestAxpyDotNorm(t *testing.T) {
	a := FromSlice([]float32{1, 0, 2}, 3)
	b := FromSlice([]float32{3, 4, 5}, 3)
	a.Axpy(2, b)
	for i, w := range []float32{7, 8, 12} {
		if a.Data[i] != w {
			t.Fatalf("Axpy[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
	if got := Dot(b, b); got != 50 {
		t.Fatalf("Dot = %v, want 50", got)
	}
	if got := b.Norm(); math.Abs(got-math.Sqrt(50)) > 1e-12 {
		t.Fatalf("Norm = %v", got)
	}
}

func TestSumMean(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 4)
	if x.Sum() != 10 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 2.5 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if (&Tensor{}).Mean() != 0 {
		t.Fatal("empty Mean should be 0")
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float32{0.1, 0.9, 0.5, 0.7, 0.2, 0.3}, 2, 3)
	if got := x.ArgMaxRow(0, nil); got != 1 {
		t.Fatalf("ArgMaxRow(0) = %d, want 1", got)
	}
	if got := x.ArgMaxRow(1, nil); got != 0 {
		t.Fatalf("ArgMaxRow(1) = %d, want 0", got)
	}
	// Restricted to candidates: pick best among {0, 2}.
	if got := x.ArgMaxRow(0, []int{0, 2}); got != 2 {
		t.Fatalf("ArgMaxRow(0, {0,2}) = %d, want 2", got)
	}
}

// naiveMatMul is the O(mnk) textbook reference.
func naiveMatMul(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		got := MatMul(a, b)
		want := naiveMatMul(a.Data, b.Data, m, k, n)
		for i := range want {
			if math.Abs(float64(got.Data[i]-want[i])) > 1e-4 {
				t.Fatalf("trial %d: MatMul[%d] = %v, want %v", trial, i, got.Data[i], want[i])
			}
		}
	}
}

func transpose(a []float32, rows, cols int) []float32 {
	out := make([]float32, len(a))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = a[i*cols+j]
		}
	}
	return out
}

func TestGemmTransposeVariants(t *testing.T) {
	r := NewRNG(2)
	for trial := 0; trial < 10; trial++ {
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		want := naiveMatMul(a.Data, b.Data, m, k, n)
		aT := transpose(a.Data, m, k) // k×m
		bT := transpose(b.Data, k, n) // n×k

		check := func(name string, c []float32) {
			t.Helper()
			for i := range want {
				if math.Abs(float64(c[i]-want[i])) > 1e-4 {
					t.Fatalf("%s[%d] = %v, want %v", name, i, c[i], want[i])
				}
			}
		}
		c1 := make([]float32, m*n)
		Gemm(c1, aT, b.Data, m, k, n, true, false)
		check("transA", c1)
		c2 := make([]float32, m*n)
		Gemm(c2, a.Data, bT, m, k, n, false, true)
		check("transB", c2)
	}
}

// naiveConvSingle computes one convolution output directly from the
// definition, as a reference for Im2Col+GEMM.
func naiveConvSingle(img []float32, c, h, w int, ker []float32, kh, kw, stride, pad int) ([]float32, int, int) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	out := make([]float32, outH*outW)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			var s float32
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							continue
						}
						s += img[ch*h*w+iy*w+ix] * ker[(ch*kh+ky)*kw+kx]
					}
				}
			}
			out[oy*outW+ox] = s
		}
	}
	return out, outH, outW
}

func TestIm2ColMatchesDirectConvolution(t *testing.T) {
	r := NewRNG(3)
	cases := []struct{ c, h, w, k, stride, pad int }{
		{1, 5, 5, 3, 1, 1},
		{3, 8, 8, 3, 2, 1},
		{2, 7, 6, 5, 1, 2},
		{4, 4, 4, 1, 1, 0},
		{2, 6, 6, 3, 3, 0},
	}
	for _, tc := range cases {
		img := make([]float32, tc.c*tc.h*tc.w)
		r.FillNorm(img, 1)
		ker := make([]float32, tc.c*tc.k*tc.k)
		r.FillNorm(ker, 1)
		want, outH, outW := naiveConvSingle(img, tc.c, tc.h, tc.w, ker, tc.k, tc.k, tc.stride, tc.pad)

		cols := make([]float32, tc.c*tc.k*tc.k*outH*outW)
		Im2Col(cols, img, 1, tc.c, tc.h, tc.w, tc.k, tc.k, tc.stride, tc.pad, outH, outW, identity(tc.c), 0, tc.c)
		got := make([]float32, outH*outW)
		Gemm(got, ker, cols, 1, tc.c*tc.k*tc.k, outH*outW, false, false)
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("case %+v: conv[%d] = %v, want %v", tc, i, got[i], want[i])
			}
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> must equal <x, Col2Im(y)> — the defining property of
	// an adjoint, which the conv backward pass relies on.
	r := NewRNG(4)
	c, h, w, k, stride, pad := 2, 6, 6, 3, 2, 1
	outH := ConvOutSize(h, k, stride, pad)
	outW := ConvOutSize(w, k, stride, pad)
	x := make([]float32, c*h*w)
	r.FillNorm(x, 1)
	y := make([]float32, c*k*k*outH*outW)
	r.FillNorm(y, 1)

	fx := make([]float32, len(y))
	Im2Col(fx, x, 1, c, h, w, k, k, stride, pad, outH, outW, identity(c), 0, c)
	aty := make([]float32, len(x))
	Col2Im(aty, y, 1, c, h, w, k, k, stride, pad, outH, outW, 0, c, nil)

	lhs := DotSlice(fx, y)
	rhs := DotSlice(x, aty)
	if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint mismatch: <Fx,y>=%v <x,F*y>=%v", lhs, rhs)
	}
}

func TestConvOutSize(t *testing.T) {
	if got := ConvOutSize(32, 3, 1, 1); got != 32 {
		t.Fatalf("same-pad conv: %d", got)
	}
	if got := ConvOutSize(32, 3, 2, 1); got != 16 {
		t.Fatalf("strided conv: %d", got)
	}
	if got := ConvOutSize(4, 4, 4, 0); got != 1 {
		t.Fatalf("full-window pool: %d", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Fork(1).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(7)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Gaussian mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("Gaussian variance = %v", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestQuickDotSymmetry(t *testing.T) {
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		return math.Abs(DotSlice(a, b)-DotSlice(b, a)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormNonNegative(t *testing.T) {
	f := func(x []float32) bool { return NormSlice(x) >= 0 }
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
