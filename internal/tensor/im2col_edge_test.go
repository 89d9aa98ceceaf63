package tensor

import "testing"

// TestIm2ColKernelLargerThanInput covers taps that fall entirely outside the
// padded input (kernel larger than input+pad): the bounds-hoisted kernels
// must zero-fill instead of panicking.
func TestIm2ColKernelLargerThanInput(t *testing.T) {
	// 1×1 spatial input, K=7, pad=3, stride=1 → outH=outW=1.
	c, h, w, k, stride, pad := 2, 1, 1, 7, 1, 3
	outH := ConvOutSize(h, k, stride, pad)
	outW := ConvOutSize(w, k, stride, pad)
	img := []float32{5, -7}
	cols := make([]float32, c*k*k*outH*outW)
	for i := range cols {
		cols[i] = 99 // poison: every slot must be overwritten
	}
	Im2Col(cols, img, c, h, w, k, k, stride, pad, outH, outW, outH*outW, 0)
	// Reference: per-pixel bounds checks.
	want := make([]float32, len(cols))
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				rowIdx := (ch*k+ky)*k + kx
				iy, ix := ky-pad, kx-pad
				if iy == 0 && ix == 0 {
					want[rowIdx] = img[ch]
				}
			}
		}
	}
	for i := range cols {
		if cols[i] != want[i] {
			t.Fatalf("cols[%d] = %v, want %v", i, cols[i], want[i])
		}
	}
	// Adjoint must round-trip without panicking either.
	dst := make([]float32, c*h*w)
	Col2Im(dst, cols, c, h, w, k, k, stride, pad, outH, outW, outH*outW, 0)
	for ch := 0; ch < c; ch++ {
		if dst[ch] != img[ch] {
			t.Fatalf("col2im[%d] = %v, want %v", ch, dst[ch], img[ch])
		}
	}
}

// TestIm2ColIntoBatchMatrix pins the leading-dimension form: lowering image i
// of a batch at column offset i·spatial of one wide matrix writes exactly
// the lone-image block there and nothing outside it, and Col2Im reads the
// same block back.
func TestIm2ColIntoBatchMatrix(t *testing.T) {
	const n, c, h, w, k, stride, pad = 3, 2, 5, 7, 3, 2, 1
	outH, outW := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
	spatial, rows := outH*outW, c*k*k
	rng := NewRNG(8)
	imgs := make([]float32, n*c*h*w)
	rng.FillNorm(imgs, 1)

	const untouched = -7
	wide := make([]float32, rows*n*spatial)
	for i := range wide {
		wide[i] = untouched
	}
	const i = 1 // the middle image: both neighbours must survive
	img := imgs[i*c*h*w : (i+1)*c*h*w]
	Im2Col(wide, img, c, h, w, k, k, stride, pad, outH, outW, n*spatial, i*spatial)
	lone := make([]float32, rows*spatial)
	Im2Col(lone, img, c, h, w, k, k, stride, pad, outH, outW, spatial, 0)
	for r := 0; r < rows; r++ {
		for j := 0; j < n*spatial; j++ {
			want := float32(untouched)
			if j >= i*spatial && j < (i+1)*spatial {
				want = lone[r*spatial+j-i*spatial]
			}
			if got := wide[r*n*spatial+j]; got != want {
				t.Fatalf("wide[%d][%d] = %v, want %v", r, j, got, want)
			}
		}
	}

	fromWide, fromLone := make([]float32, c*h*w), make([]float32, c*h*w)
	Col2Im(fromWide, wide, c, h, w, k, k, stride, pad, outH, outW, n*spatial, i*spatial)
	Col2Im(fromLone, lone, c, h, w, k, k, stride, pad, outH, outW, spatial, 0)
	for j := range fromLone {
		if fromWide[j] != fromLone[j] {
			t.Fatalf("Col2Im[%d] = %v from the batch matrix, %v from the lone block", j, fromWide[j], fromLone[j])
		}
	}
}
